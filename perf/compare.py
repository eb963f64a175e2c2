"""Compare two result sets under the bounds ``BENCHMARK.json`` fixes.

    python3 perf/compare.py A.json B.json

Each file holds the records ``run.py --json FILE`` appended, one JSON
object per line; only ``--trace 0`` records count.  For every pairing of
end-to-end metric and workload the table gives both medians, the ratio
B/A with A as its base, each set's spread (interquartile range over
median) and ``ok`` or ``regressed``: B is regressed when its median is
worse than A's by more than the metric's bound.  A spread wider than the
bound is marked ``wide`` — such a row is unresolved, not unchanged.
Exits non-zero on any regression.  Run it both ways round to test that
two sets of the same code agree.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

Values = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Values:
    """``{(workload, metric): [value per run]}`` from one result set."""
    values: Values = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["config"]["trace"] != 0:
            continue
        for name, metric in record["metrics"].items():
            values[(record["config"]["workload"], name)].append(metric["value"])
    return values


def spread(values: List[float]) -> float:
    """Interquartile range over median, as the driver computes it."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def compare(base: Values, other: Values, declared: dict) -> Tuple[List[str], int]:
    """The table's rows and the number of regressed ones."""
    rows = [
        f"{'workload':16s} {'metric':15s} {'A':>10s} {'B':>10s} {'B/A':>7s} "
        f"{'bound':>6s} {'iqrA':>6s} {'iqrB':>6s} verdict"
    ]
    regressed = 0
    for workload in (entry["name"] for entry in declared["workloads"]):
        for metric in declared["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in other:
                rows.append(f"{workload:16s} {metric['name']:15s} missing from a set")
                regressed += 1
                continue
            a, b = statistics.median(base[key]), statistics.median(other[key])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            spreads = spread(base[key]), spread(other[key])
            verdict = "regressed" if worse > metric["bound"] else "ok"
            regressed += verdict == "regressed"
            if metric["name"] != "setup_s" and max(spreads) > metric["bound"]:
                verdict += " wide"
            rows.append(
                f"{workload:16s} {metric['name']:15s} {a:10.3f} {b:10.3f} {b / a:7.3f} "
                f"{metric['bound']:6.2f} {spreads[0]:6.3f} {spreads[1]:6.3f} {verdict}"
            )
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, regressed = compare(load(argv[0]), load(argv[1]), declared)
    print("\n".join(rows))
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
