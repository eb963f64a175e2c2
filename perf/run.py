"""Run one workload of the benchmark and print its metrics.

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1 [--json FILE]

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is the one-line JSON result.  The
stack is built in this process and driven over loopback HTTP from this
thread; nothing is written outside ``perf/out/``.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import sys
import threading
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"
#: The driver allows a run 180 s; end without a result line well before.
WATCHDOG_SECONDS = 150
SETUP_REPEATS = 3
#: Maintenance rounds posted after the window by workloads that have none
#: inside it, so the traced run can report maintenance cost everywhere.
TRAILING_ROUNDS = 3


def _commit() -> str:
    """The checked-out commit, read from ``.git`` files when they exist."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _config(args, workload) -> dict:
    from perf import stack

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None

    return {
        "workload": workload.name,
        "network": workload.network,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": _commit(),
        "stack": stack.pinned(),
    }


def _end_to_end(args, workload):
    """``--trace 0``: three set-ups, warm-up, the timed window, the oracle."""
    from perf import measure, oracle, stack, workloads

    setup_seconds, graph, _dtlp, serving = stack.repeated_setup(
        workload.network, SETUP_REPEATS
    )
    try:
        session = measure.Session(
            workload,
            serving.client,
            workloads.QueryStream(workload, graph, args.seed),
            workloads.traffic_model(graph, args.seed),
        )
        session.warm_up()
        rounds = session.window(args.seconds)
        metrics = measure.end_to_end(rounds, setup_seconds)
    finally:
        serving.close()
    verdict = oracle.verify(session.events, stack.copy_graph(graph), args.seed)
    notes = {"rounds": len(rounds), "yen_compared": verdict.yen_compared}
    return metrics, verdict, notes


def _per_layer(args, workload):
    """``--trace 1``: set-up path, ladder, then a run traced in its second half."""
    from perf import ladder, measure, oracle, stack, trace, workloads

    tracer = trace.Tracer()
    tracer.install()
    try:
        metrics, graph, dtlp, serving = ladder.setup_path(workload.network, OUT)
        try:
            session = measure.Session(
                workload,
                serving.client,
                workloads.QueryStream(workload, graph, args.seed),
                workloads.traffic_model(graph, args.seed),
                tracer,
            )
            session.warm_up()

            # The ladder warms up on queries of the warm-up rounds and climbs
            # the distinct queries the timed stream starts with, all taken
            # from a second, identical stream so the run's own is untouched.
            preview = workloads.QueryStream(workload, graph, args.seed)
            head = preview.take(workloads.WARMUP_ROUNDS * workloads.ROUND_QUERIES)
            warm = list({query.key: query for query in head}.values())
            warm = warm[:ladder.WARM_QUERIES]
            climbed = preview.take_distinct(
                ladder.LADDER_QUERIES, {query.key for query in warm}
            )
            rungs, ladder_checked, disagreements = ladder.run(graph, dtlp, warm, climbed)
            metrics.update(rungs)

            window_start = len(session.events)
            untraced = session.window(args.seconds / 2)
            tracer.enabled = True
            traced = session.window(args.seconds / 2)
            if workload.posts_per_round == 0:
                for _ in range(TRAILING_ROUNDS):
                    session.post(session.traffic.generate_updates())
            tracer.enabled = False
        finally:
            serving.close()
    finally:
        tracer.uninstall()

    requests = tracer.requests("client.request")
    maintenance = tracer.requests("client.maintenance")
    metrics.update(trace.request_breakdown(requests))
    metrics.update(trace.maintenance_breakdown(maintenance))
    metrics["service.invalidated_per_round"] = sum(
        span.items or 0
        for post in maintenance
        for span in post.descendants("ResultCache.invalidate")
    ) / len(maintenance)
    answers = [
        event for event in session.events[window_start:]
        if isinstance(event, measure.QueryEvent)
    ]
    metrics["service.cache_hit_ratio"] = sum(
        bool(event.result.payload.get("from_cache")) for event in answers
    ) / len(answers)
    pooled = sorted(latency for r in untraced for latency in r.latencies)
    metrics["frontdoor.latency_p99_ms"] = pooled[len(pooled) * 99 // 100] * 1e3
    metrics["trace.overhead_pct"] = (
        measure.latency_p50_ms(traced) / measure.latency_p50_ms(untraced) - 1.0
    ) * 100.0

    verdict = oracle.verify(session.events, stack.copy_graph(graph), args.seed)
    metrics["core.inexact_share"] = verdict.inexact / max(1, verdict.yen_compared)
    verdict.attempted += ladder_checked
    for disagreement in disagreements:
        verdict.fail(-1, "ladder: " + disagreement)

    trace_file = OUT / f"trace-{workload.name}-{args.seed}.json"
    notes = {
        "rounds_untraced": len(untraced),
        "rounds_traced": len(traced),
        "yen_compared": verdict.yen_compared,
        "spans": tracer.dump(trace_file),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return metrics, verdict, notes


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--json", metavar="FILE", help="append this run's record to FILE (under perf/out/)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    # The script's own directory leads sys.path; replace it, or perf/trace.py
    # would shadow the standard library's ``trace``.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    OUT.mkdir(exist_ok=True)

    from perf import workloads

    workload = workloads.WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics, verdict, notes = (_per_layer if args.trace else _end_to_end)(args, workload)

    leftover = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if leftover:
        print(f"perf/run.py: threads left behind: {leftover}", file=sys.stderr)
        return 3

    units = {metric["name"]: metric["unit"] for metric in declared[kind]}
    if set(units) != set(metrics):
        print(
            f"perf/run.py: measured {sorted(set(metrics) ^ set(units))} "
            "differently from BENCHMARK.json",
            file=sys.stderr,
        )
        return 4
    config = _config(args, workload)
    print("config " + json.dumps(config, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name in units:
        print(f"{name:36s} {metrics[name]:14.6f} {units[name]}")
    for reason in verdict.reasons:
        print("failed " + reason)
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    if args.json:
        with open(args.json, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"config": config, "notes": notes, **result}) + "\n")
    faulthandler.cancel_dump_traceback_later()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
