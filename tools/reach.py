#!/usr/bin/env python
"""Reachability sweep: which ``src/repro`` functions does any driver run?

Runs every driver of the repository under a call-only ``sys.settrace`` hook
and prints two tables of ``src/`` functions:

* **reached by nothing** — no driver, tier-1 included, ever enters them;
* **reached only by tier-1** — only ``tests/`` enters them, listed with the
  test files that do.

The drivers are tier-1 (``tests/``, labelled per test file), the benchmark
smoke (``perf/``), the paper-figure benchmarks at quick scale
(``benchmarks/``), the six ``examples/``, ``tools/check_docs.py`` and the
CLI commands of the CI ``docs`` and ``benchmarks`` jobs.  A function on
either list is a candidate for deletion, not a verdict: grep for static
callers first, because a function can sit on a path a user selects that no
driver happens to take.

How it records, with the standard library only (``coverage`` is not
needed):

* each driver runs as a subprocess whose ``PYTHONPATH`` starts with a
  temporary ``sitecustomize.py``, so every Python process it starts —
  ``perf/run.py`` children, forked executor workers, CLI subprocesses —
  installs the hook at start-up;
* the hook is installed with ``sys.settrace`` and ``threading.settrace``,
  records the code object of every new frame and returns ``None``, so no
  line tracing runs;
* each process writes its set to a JSON file when it exits: the main
  process from ``atexit``, a ``multiprocessing`` worker (which leaves via
  ``os._exit``) from a wrapped ``BaseProcess._bootstrap`` or on ``SIGTERM``;
* under pytest with ``-p reach`` the label becomes ``tier1:<test file>``
  before each test, and subprocesses inherit it through the environment.

Functions are enumerated by compiling every module under ``src/repro`` and
walking the nested code objects; a function's line count is its span from
its first (decorator) line to its last line.  The sweep takes about a
quarter of an hour on a 2-core host and is not part of CI.  Timing
assertions in ``benchmarks/`` can fail under tracing; a failed driver is
reported and still counts.

Usage::

    python tools/reach.py             # every driver, both tables
    python tools/reach.py --out DIR   # also keep the per-process dumps in DIR
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import uuid
from collections import defaultdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
TIER1 = "tier1"
_CO_OPTIMIZED = 0x1  # set on function code objects, clear on module and class bodies

# --------------------------------------------------------------------------
# Recording side: runs inside every traced process.
# --------------------------------------------------------------------------

_seen: dict[str, set] = defaultdict(set)
_current: set = set()
_out_dir = ""


def _hook(frame, event, arg):
    # A global trace function only ever sees "call" events; returning None
    # turns off line tracing for the new frame.
    _current.add(frame.f_code)


def _set_label(label: str) -> None:
    global _current
    _current = _seen[label]
    os.environ["REACH_LABEL"] = label


def _source_key(filename: str) -> str | None:
    """``repro/...py`` for a file of the package (in any checkout), else None."""
    marker = os.sep + "src" + os.sep + "repro" + os.sep
    path = os.path.abspath(filename)
    at = path.rfind(marker)
    if at < 0:
        return None
    return path[at + len(os.sep + "src" + os.sep):].replace(os.sep, "/")


def _dump() -> None:
    records = {}
    for label, codes in list(_seen.items()):
        rows = []
        for code in list(codes):
            key = _source_key(code.co_filename)
            if key is not None:
                rows.append([key, code.co_firstlineno, code.co_name])
        if rows:
            records[label] = rows
    _seen.clear()
    if not records:
        return
    path = os.path.join(_out_dir, f"{os.getpid()}-{uuid.uuid4().hex}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle)


def _on_sigterm(signum, frame):
    _dump()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _wrap_bootstrap() -> None:
    from multiprocessing import process

    original = process.BaseProcess._bootstrap

    def _bootstrap(self, *args, **kwargs):
        # A forked child inherits the parent's sets; keep only its own.
        _seen.clear()
        _set_label(os.environ.get("REACH_LABEL", "unlabelled"))
        sys.settrace(_hook)
        threading.settrace(_hook)
        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM, _on_sigterm)
        try:
            return original(self, *args, **kwargs)
        finally:
            _dump()

    process.BaseProcess._bootstrap = _bootstrap


def install() -> None:
    """Start recording in this process; called from the generated sitecustomize."""
    global _out_dir
    _out_dir = os.environ["REACH_OUT"]
    _set_label(os.environ.get("REACH_LABEL", "unlabelled"))
    _wrap_bootstrap()
    atexit.register(_dump)
    sys.settrace(_hook)
    threading.settrace(_hook)


def pytest_runtest_logstart(nodeid, location):
    """pytest hook (active under ``-p reach``): label by test file."""
    _set_label(f"{TIER1}:{nodeid.split('::', 1)[0]}")


# --------------------------------------------------------------------------
# Driving side: runs the drivers and reports.
# --------------------------------------------------------------------------

_SITECUSTOMIZE = """\
import os, sys
if os.environ.get("REACH_OUT"):
    sys.path.insert(0, {tools!r})
    import reach
    reach.install()
"""


def drivers(work: Path) -> list[tuple[str, list[str], dict[str, str]]]:
    """Every driver as ``(label, argv, extra env)``, run from the repo root."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    out = str(work / "bench_out")
    no_cache = ["-p", "no:cacheprovider"]
    bench_env = {"REPRO_BENCH_SCALE": "quick", "REPRO_BENCH_REPORT": str(work / "bench_report.txt")}
    cli = [
        ["bench", "--dataset", "NY", "--scale", "0.4", "--num-queries", "8", "--workers", "4"],
        ["serve", "--dataset", "NY", "--scale", "0.4", "--epochs", "2", "--queries-per-epoch", "10"],
        ["partition", "--dataset", "NY", "--scale", "0.4", "--partitioner", "mincut",
         "--out", f"{out}/store"],
        ["replay", "--dataset", "NY", "--scale", "0.4", "--num-queries", "100", "--update-rounds", "5",
         "--partitioner", "mincut", "--store", f"{out}/store", "--validate"],
        ["loadtest", "--dataset", "NY", "--scale", "0.3", "--requests", "200", "--replicas", "3",
         "--pin-faults", "--require-breaker-trip", "--availability-floor", "0.95",
         "--json", f"{out}/loadtest_report.json"],
        ["replay", "--dataset", "NY", "--scale", "0.4", "--num-queries", "60", "--update-rounds", "5",
         "--trace", f"{out}/sample_trace.json", "--metrics"],
        ["trace", f"{out}/sample_trace.json", "--max-queries", "1"],
    ]
    return [
        (TIER1, [py, "-m", "pytest", "tests", "-q", "-p", "reach", *no_cache], {}),
        ("perf", [py, "-m", "pytest", "perf", "-q", *no_cache], {}),
        ("benchmarks", [py, "-m", "pytest", "benchmarks", "-q", *no_cache], bench_env),
        *[
            (f"examples/{path.name}", [py, str(path)], {})
            for path in sorted((REPO_ROOT / "examples").glob("*.py"))
        ],
        ("tools/check_docs.py", [py, str(REPO_ROOT / "tools" / "check_docs.py")], {}),
        *[(f"cli:{args[0]}", [*repro, *args], {}) for args in cli],
    ]


def run_drivers(out_dir: Path, work: Path) -> list[str]:
    """Run every driver under tracing; return one line per failure."""
    site = work / "site"
    site.mkdir(parents=True, exist_ok=True)
    (site / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(tools=str(REPO_ROOT / "tools")), encoding="utf-8"
    )
    (work / "bench_out").mkdir(exist_ok=True)
    pythonpath = os.pathsep.join(
        p for p in (str(site), str(SRC_ROOT), os.environ.get("PYTHONPATH", "")) if p
    )
    failures = []
    for label, argv, extra in drivers(work):
        env = {**os.environ, **extra, "PYTHONPATH": pythonpath,
               "REACH_OUT": str(out_dir), "REACH_LABEL": label}
        print(f"[reach] {label}: {' '.join(argv[1:])}", file=sys.stderr, flush=True)
        result = subprocess.run(argv, cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            tail = result.stdout.strip().splitlines()[-1:] or [""]
            failures.append(f"{label}: exit {result.returncode}: {tail[0]}")
    return failures


def enumerate_functions() -> dict[tuple[str, int, str], tuple[str, int]]:
    """``(module path, first line, name) -> (qualified name, line span)`` for every src function.

    The first line makes the key unique; the qualified name (``Class.method``,
    ``outer.<locals>.inner``) is rebuilt from the nesting, for the report only.
    """
    functions = {}
    for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
        module = path.relative_to(SRC_ROOT).as_posix()
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            function = bool(code.co_flags & _CO_OPTIMIZED)
            qualname = prefix + code.co_name
            inner = "" if code.co_name == "<module>" else qualname + (".<locals>." if function else ".")
            stack.extend((const, inner) for const in code.co_consts if hasattr(const, "co_code"))
            if function and not code.co_name.startswith("<"):
                last = max((line for _, _, line in code.co_lines() if line), default=code.co_firstlineno)
                functions[(module, code.co_firstlineno, code.co_name)] = (
                    qualname, last - code.co_firstlineno + 1
                )
    return functions


def load_reached(out_dir: Path) -> dict[tuple[str, int, str], set[str]]:
    """``function key -> labels that entered it``, merged over every dump."""
    reached: dict[tuple[str, int, str], set[str]] = defaultdict(set)
    for path in out_dir.glob("*.json"):
        for label, rows in json.loads(path.read_text(encoding="utf-8")).items():
            for module, line, name in rows:
                reached[(module, line, name)].add(label)
    return reached


def report(out_dir: Path) -> None:
    functions = enumerate_functions()
    reached = load_reached(out_dir)
    nothing, tier1_only = [], []
    for key, (qualname, span) in sorted(functions.items()):
        module, line, _ = key
        labels = reached.get(key, set())
        row = (f"{module}:{line:<5} {qualname:<60} {span:>4}", span)
        if not labels:
            nothing.append((*row, ""))
        elif all(label.startswith(TIER1) for label in labels):
            files = sorted(label.partition(":")[2] or TIER1 for label in labels)
            tier1_only.append((*row, ", ".join(name.removeprefix("tests/") for name in files)))

    def table(title: str, rows: list) -> None:
        print(f"\n## {title}: {len(rows)} functions, {sum(span for _, span, _ in rows)} lines\n")
        for text, _, note in rows:
            print(f"{text}  {note}".rstrip())

    table("Reached by nothing", nothing)
    table("Reached only by tier-1", tier1_only)
    total = sum(span for _, span in functions.values())
    print(f"\n{len(functions)} functions in src/ ({total} lines); "
          f"reached by nothing: {len(nothing)} ({sum(s for _, s, _ in nothing)} lines); "
          f"reached only by tier-1: {len(tier1_only)} ({sum(s for _, s, _ in tier1_only)} lines)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="directory that keeps the per-process dumps")
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="reach-"))
    out_dir = args.out or work / "dumps"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        failures = run_drivers(out_dir, work)
        report(out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in failures:
        print(f"[reach] driver failed: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
