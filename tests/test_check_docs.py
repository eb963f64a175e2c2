"""The docs gate's name check (``tools/check_docs.py --names``)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", TOOL)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_a_doc_naming_a_missing_module_fails(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`repro.core.dtlp` and `repro.core.DTLP.build()` resolve;\n"
        "`repro.core.mfp_tree` and `repro.core.DTLP.mfp_forest` do not.\n"
    )
    checked, problems = check_docs.check_names([doc])
    assert checked == 4
    assert problems == [
        "doc.md:2: repro.core.mfp_tree does not resolve",
        "doc.md:2: repro.core.DTLP.mfp_forest does not resolve",
    ]


def test_the_repository_docs_name_only_existing_code():
    checked, problems = check_docs.check_names()
    assert checked > 0 and problems == []
