"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Not part of tier-1 (``pyproject.toml`` ``testpaths`` stays ``tests``).
Each workload runs for two seconds in both modes, the way the driver
calls it, and has to end with a result line that carries exactly the
metrics ``BENCHMARK.json`` declares for that mode.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]
SEED = 3


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_trace_nesting(path: Path) -> None:
    """Children lie inside their parent one after another, so within every
    ``serve_batch`` the self times are non-negative and sum to its duration."""
    spans = json.loads(path.read_text())
    children = {span["id"]: [] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def self_times(span) -> float:
        inner = sorted(children[span["id"]], key=lambda child: child["start"])
        cursor = span["start"]
        for child in inner:
            assert cursor <= child["start"] <= child["end"] <= span["end"], child
            cursor = child["end"]
        own = (span["end"] - span["start"]) - sum(c["end"] - c["start"] for c in inner)
        assert own >= 0.0
        return own + sum(self_times(child) for child in inner)

    batches = [span for span in spans if span["name"] == "ServiceReplica.serve_batch"]
    assert batches
    for batch in batches:
        assert self_times(batch) == pytest.approx(batch["end"] - batch["start"], abs=1e-9)
        assert batch["request"].split(":")[1].isdigit()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_the_declaration(workload: str, trace: int) -> None:
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {
        metric["name"]: metric["unit"]
        for metric in DECLARED["per_layer" if trace else "end_to_end"]
    }
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    if trace:
        check_trace_nesting(PERF / "out" / f"trace-{workload}-{SEED}.json")


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = run_benchmark(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def _result_set(path: Path, qps: float) -> Path:
    record = {
        "config": {"workload": WORKLOADS[0], "trace": 0},
        "metrics": {
            metric["name"]: {"value": qps if metric["name"] == "qps" else 1.0}
            for metric in DECLARED["end_to_end"]
        },
    }
    lines = []
    for workload in WORKLOADS:
        record["config"]["workload"] = workload
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_compare_applies_the_declared_bounds(tmp_path: Path) -> None:
    bound = next(m["bound"] for m in DECLARED["end_to_end"] if m["name"] == "qps")
    base = _result_set(tmp_path / "a.json", 100.0)
    slower = _result_set(tmp_path / "b.json", 100.0 * (1.0 - bound - 0.05))

    def compare(a: Path, b: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(PERF / "compare.py"), str(a), str(b)],
            capture_output=True, text=True, timeout=60,
        )

    assert compare(base, base).returncode == 0
    worse = compare(base, slower)
    assert worse.returncode == 1 and "regressed" in worse.stdout
    assert compare(slower, base).returncode == 0
