#!/usr/bin/env python
"""Docs gate: intra-repo markdown links, code names and the README quickstart.

Three checks, all exercised by the CI ``docs`` job and runnable locally:

* ``--links``: scan every tracked ``*.md`` file for markdown links and
  verify that each *relative* target (``[text](path)`` with no URL scheme)
  resolves to an existing file or directory, so the README/ARCHITECTURE/
  paper-map cross-reference web cannot rot silently.  Anchors-only links
  (``#section``) and external URLs are skipped; a ``path#anchor`` link is
  checked for the file part.
* ``--names``: every backticked ``repro.<dotted>`` name in ``README.md``,
  ``ARCHITECTURE.md`` and ``docs/paper_map.md`` must import as a module or
  resolve as an attribute of one, so the docs cannot name deleted code.
* ``--quickstart``: extract the first fenced ``python`` code block from
  ``README.md`` and execute it, so the quickstart the README promises is
  the quickstart that runs.

With no flags, all three checks run.  Exits non-zero on any failure, printing
one line per problem.
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — good enough for this repository's plain markdown
#: (no nested brackets in link texts, no angle-bracket targets).
LINK_PATTERN = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")
SCHEME_PATTERN = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
PYTHON_BLOCK_PATTERN = re.compile(r"```python\n(.*?)```", re.DOTALL)
#: A backticked dotted name under the package, optionally called: `repro.x.y()`.
NAME_PATTERN = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")
NAME_DOCS = ("README.md", "ARCHITECTURE.md", "docs/paper_map.md")


def iter_markdown_files() -> list[Path]:
    """Every markdown file in the repository (skipping caches/VCS)."""
    skip_parts = {".git", "__pycache__", ".pytest_cache", "node_modules"}
    return [
        path
        for path in sorted(REPO_ROOT.rglob("*.md"))
        if not (skip_parts & set(path.parts))
    ]


def check_links() -> list[str]:
    """Return one message per broken intra-repo link."""
    problems: list[str] = []
    for path in iter_markdown_files():
        text = path.read_text(encoding="utf-8")
        # Fenced code blocks may contain bracketed pseudo-links; drop them.
        prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in LINK_PATTERN.finditer(prose):
            target = match.group(1)
            if SCHEME_PATTERN.match(target) or target.startswith("#"):
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}: broken link -> {target}"
                )
    return problems


def resolves(name: str) -> bool:
    """Whether ``name`` imports, or is an attribute chain off a module that does."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            # Only the name itself (or a parent of it) may be missing; a
            # module that fails on one of its own imports is a real error.
            if not f"{module}.".startswith(f"{exc.name}."):
                raise
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_names(paths: list[Path] | None = None) -> tuple[int, list[str]]:
    """Return ``(names checked, one message per name that does not resolve)``."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    checked = 0
    problems: list[str] = []
    for path in paths or [REPO_ROOT / doc for doc in NAME_DOCS]:
        for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for match in NAME_PATTERN.finditer(line):
                checked += 1
                if not resolves(match.group(1)):
                    problems.append(
                        f"{path.name}:{line_number}: {match.group(1)} does not resolve"
                    )
    return checked, problems


def run_quickstart() -> list[str]:
    """Execute the README's first python block; return failure messages."""
    readme = REPO_ROOT / "README.md"
    match = PYTHON_BLOCK_PATTERN.search(readme.read_text(encoding="utf-8"))
    if match is None:
        return ["README.md: no fenced ```python quickstart block found"]
    code = match.group(1)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        exec(compile(code, "README.md <python quickstart>", "exec"), {})
    except Exception as exc:  # surface, don't crash the gate itself
        return [f"README.md quickstart failed: {type(exc).__name__}: {exc}"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links", action="store_true", help="only check links")
    parser.add_argument(
        "--names", action="store_true", help="only check backticked repro.* names"
    )
    parser.add_argument(
        "--quickstart", action="store_true", help="only run the README quickstart"
    )
    args = parser.parse_args(argv)
    run_all = not (args.links or args.names or args.quickstart)

    problems: list[str] = []
    if args.links or run_all:
        link_problems = check_links()
        problems.extend(link_problems)
        print(
            f"link check: {len(iter_markdown_files())} markdown files, "
            f"{len(link_problems)} broken links"
        )
    if args.names or run_all:
        checked, name_problems = check_names()
        problems.extend(name_problems)
        print(f"name check: {checked} repro.* names, {len(name_problems)} unresolved")
    if args.quickstart or run_all:
        quickstart_problems = run_quickstart()
        problems.extend(quickstart_problems)
        if not quickstart_problems:
            print("README quickstart: ran clean")

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
