#!/usr/bin/env python
"""Docs gate: markdown links, code names, the quickstarts and the public surface.

Five checks, all exercised by the CI ``docs`` job and runnable locally:

* ``--links``: scan every tracked ``*.md`` file for markdown links and
  verify that each *relative* target (``[text](path)`` with no URL scheme)
  resolves to an existing file or directory, so the README/ARCHITECTURE/
  paper-map cross-reference web cannot rot silently.  Anchors-only links
  (``#section``) and external URLs are skipped; a ``path#anchor`` link is
  checked for the file part.
* ``--names``: every backticked ``repro.<dotted>`` name in ``README.md``,
  ``ARCHITECTURE.md`` and ``docs/paper_map.md`` must import as a module or
  resolve as an attribute of one, and every backticked ``Class.member``
  whose class is defined under ``src/repro`` must name a member of it or
  of a base class defined there (a method, property, class attribute,
  annotated field, ``__slots__`` entry or ``self.<name>`` assignment), so
  the docs cannot name deleted code.
* ``--quickstart``: extract the first fenced ``python`` code block from
  ``README.md`` and execute it, so the quickstart the README promises is
  the quickstart that runs.

Two more run only in the default (no-flag) run:

* the ``repro`` package docstring's examples run as doctests, so its two
  quickstarts keep working;
* the public surface: every ``__all__`` of a package under ``src/repro``
  lists only names some reader imports from that package, and every
  ``__init__.py`` imports exactly its ``__all__``.  The readers are
  ``README.md``'s python blocks, ``examples/``, ``benchmarks/``, ``perf/``,
  ``tools/``, the ``repro`` modules outside the package and the ``repro``
  package docstring; ``tests/`` is not a reader.

With no flags, all checks run.  Exits non-zero on any failure, printing
one line per problem.
"""

from __future__ import annotations

import argparse
import ast
import doctest
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
#: A backticked ``Class.member``, optionally called: `DTLP.build()`.
MEMBER_PATTERN = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)(?:\([^`]*\))?`")
NAME_DOCS = ("README.md", "ARCHITECTURE.md", "docs/paper_map.md")
#: Directories whose python files read the package's public surface.
READER_DIRS = ("examples", "benchmarks", "perf", "tools")


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


def class_members(src_root: Path = REPO_ROOT / "src" / "repro") -> dict[str, set[str]]:
    """Class name -> every member name of the classes of that name defined
    under ``src_root``, their bases' (defined there too) included."""
    members: dict[str, set[str]] = {}
    bases: dict[str, set[str]] = {}
    for path in sorted(src_root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            names = members.setdefault(node.name, set())
            bases.setdefault(node.name, set()).update(
                base.id for base in node.bases if isinstance(base, ast.Name)
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(item.name)
                targets = getattr(item, "targets", [getattr(item, "target", None)])
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                        if target.id == "__slots__":
                            names.update(ast.literal_eval(item.value))
            for item in ast.walk(node):
                if (isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Store)
                        and isinstance(item.value, ast.Name) and item.value.id == "self"):
                    names.add(item.attr)

    def closed(name: str, seen: frozenset = frozenset()) -> set[str]:
        found = set(members.get(name, ()))
        for base in bases.get(name, set()) - seen - {name}:
            found |= closed(base, seen | {name})
        return found

    return {name: closed(name) for name in members}


def check_names(paths: list[Path] | None = None) -> tuple[int, list[str]]:
    """Return ``(names checked, one message per name that does not resolve)``."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    members = class_members()
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
            for match in MEMBER_PATTERN.finditer(line):
                owner, member = match.groups()
                if owner not in members:
                    continue  # not a class of the package: `BENCHMARK.json`
                checked += 1
                if member not in members[owner]:
                    problems.append(
                        f"{path.name}:{line_number}: {owner}.{member} does not resolve"
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


def run_package_doctests() -> list[str]:
    """Run the ``repro`` package docstring's examples; return failure messages."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import repro

    result = doctest.testmod(repro, report=False)
    if result.failed:
        return [f"repro docstring: {result.failed} of {result.attempted} examples failed"]
    return []


def _imported_names(tree: ast.AST, package: str | None) -> set[tuple[str, str]]:
    """``(module, name)`` for every ``from module import name`` in ``tree``.

    ``package`` is the dotted package a relative import resolves against;
    ``None`` (a file outside ``src``) ignores relative imports.
    """
    found: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            if package is None:
                continue
            base = package.split(".")[: len(package.split(".")) - node.level + 1]
            module = ".".join(base + ([node.module] if node.module else []))
        else:
            module = node.module or ""
        found.update((module, alias.name) for alias in node.names)
    return found


def _module_package(path: Path, src_root: Path) -> tuple[str, str]:
    """``(dotted module, dotted package it lives in)`` of a file under ``src_root``."""
    parts = list(path.relative_to(src_root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
        return ".".join(parts), ".".join(parts)
    return ".".join(parts), ".".join(parts[:-1])


def reader_sources() -> list[str]:
    """The python source of every reader outside ``src``: the files under
    :data:`READER_DIRS` and ``README.md``'s python blocks."""
    files = sorted(path for name in READER_DIRS for path in (REPO_ROOT / name).rglob("*.py"))
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return [path.read_text(encoding="utf-8") for path in files] + PYTHON_BLOCK_PATTERN.findall(
        readme
    )


def check_surface(
    src_root: Path = REPO_ROOT / "src", top: str = "repro", readers: list[str] | None = None
) -> list[str]:
    """Return one message per ``__all__`` name no reader imports, and per
    ``__init__.py`` import that is not in its ``__all__``.

    ``src_root / top`` is the top package; every package below it is
    checked.  ``readers`` are the python sources outside ``src_root``
    (default: :func:`reader_sources`).  Inside it, a module reads every
    package but its own, and the top package's docstring examples read it.
    """
    init_files = sorted((src_root / top).rglob("__init__.py"))
    imports: dict[str, set[str]] = {}  # package -> names its readers import

    def record(tree: ast.AST, package: str | None = None) -> None:
        for module, name in _imported_names(tree, package):
            # A package's own modules do not read its surface.
            if module != package:
                imports.setdefault(module, set()).add(name)

    for source in reader_sources() if readers is None else readers:
        record(ast.parse(source))
    for path in sorted((src_root / top).rglob("*.py")):
        module, package = _module_package(path, src_root)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        record(tree, package)
        if module == top:
            examples = doctest.DocTestParser().get_examples(ast.get_docstring(tree) or "")
            record(ast.parse("\n".join(e.source for e in examples)))

    problems: list[str] = []
    for init in init_files:
        package = _module_package(init, src_root)[0]
        tree = ast.parse(init.read_text(encoding="utf-8"))
        exported: list[str] = []
        for node in tree.body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported = list(ast.literal_eval(node.value))
        rel = init.relative_to(src_root)
        for name in exported:
            if name not in imports.get(package, ()):
                problems.append(f"{rel}: __all__ name {name!r} is imported by no reader")
        for module, name in sorted(_imported_names(tree, package)):
            if name not in exported and module != "__future__":
                problems.append(f"{rel}: imports {name!r} but does not export it")
    return problems


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
        print(f"name check: {checked} repro.* and Class.member names, {len(name_problems)} unresolved")
    if args.quickstart or run_all:
        quickstart_problems = run_quickstart()
        problems.extend(quickstart_problems)
        if not quickstart_problems:
            print("README quickstart: ran clean")
    if run_all:
        doctest_problems = run_package_doctests()
        problems.extend(doctest_problems)
        if not doctest_problems:
            print("repro docstring examples: ran clean")
        surface_problems = check_surface()
        problems.extend(surface_problems)
        print(f"public surface: {len(surface_problems)} problems")

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
