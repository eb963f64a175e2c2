"""The docs gate: its name check and its public-surface check."""

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


def test_a_doc_naming_a_deleted_member_fails(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`DTLP.build()`, `DTLP.skeleton_graph`, `CSRSnapshot.rows`,\n"
        "`SkeletonSearchView.reverse_search` and `IndexLayout.edge_arcs` resolve;\n"
        "`DTLP.skeleton_snapshot()` and `CSRSnapshot.indptr` do not;\n"
        "`BENCHMARK.json` names no class of the package.\n"
    )
    checked, problems = check_docs.check_names([doc])
    assert checked == 7
    assert problems == [
        "doc.md:3: DTLP.skeleton_snapshot does not resolve",
        "doc.md:3: CSRSnapshot.indptr does not resolve",
    ]


def test_the_repository_docs_name_only_existing_code():
    checked, problems = check_docs.check_names()
    assert checked > 0 and problems == []


def _fixture_package(root: Path, sub_init: str) -> Path:
    """``root/src/pkg`` with one subpackage ``pkg.sub`` whose ``__init__``
    is ``sub_init``; the top package re-exports ``used`` and its docstring
    example imports it."""
    package = root / "src" / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text(
        '"""Top.\n\n>>> from pkg import used\n"""\n\n'
        'from .sub import used\n\n__all__ = ["used"]\n'
    )
    (package / "sub" / "__init__.py").write_text(sub_init)
    (package / "sub" / "impl.py").write_text("used = unused = hidden = None\n")
    return root / "src"


def test_an_export_no_reader_imports_fails(tmp_path):
    src = _fixture_package(
        tmp_path, 'from .impl import unused, used\n\n__all__ = ["used", "unused"]\n'
    )
    problems = check_docs.check_surface(src, "pkg", readers=["from pkg.sub import used\n"])
    assert problems == ["pkg/sub/__init__.py: __all__ name 'unused' is imported by no reader"]


def test_an_init_import_outside_all_fails(tmp_path):
    src = _fixture_package(tmp_path, 'from .impl import hidden, used\n\n__all__ = ["used"]\n')
    problems = check_docs.check_surface(src, "pkg", readers=[])
    assert problems == ["pkg/sub/__init__.py: imports 'hidden' but does not export it"]


def test_the_repository_exports_only_what_its_readers_import():
    assert check_docs.check_surface() == []
