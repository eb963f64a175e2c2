"""Front-door serving operating point (beyond the paper).

Paper map (``docs/paper_map.md``): the paper's Section 6 measures query
throughput of the engine itself; a deployed KSP-DG answers over HTTP
behind admission control, so the operational question is *what qps can
the front door sustain at a latency SLO, and what availability does it
hold when replicas fail*.  Two rows are reported:

* **clean knee** — a closed-loop concurrency sweep finds the saturation
  knee: the highest-throughput operating point whose p99 still meets the
  SLO with every request answered fresh.
* **pinned faults** — the acceptance-criteria chaos plan (mid-run replica
  kill + two-window stall) runs through the same HTTP path; the row
  reports the answered-qps/p99 under faults and the availability, which
  a hard assertion keeps at >= 0.95 with zero wrong answers.
"""

from __future__ import annotations

import pytest

from repro.bench import print_experiment
from repro.chaos import (
    FaultEvent,
    FaultPlan,
    FrontDoorTarget,
    generate_chaos_workload,
    run_chaos,
)
from repro.frontdoor import build_replicas, find_knee, start_front_door
from repro.graph import road_network
from repro.workloads.queries import QueryGenerator

SLO_MS = 250.0
BUDGET_MS = 1000.0
AVAILABILITY_FLOOR = 0.95
#: Clean windows after the plan in which breakers must close again.
COOLDOWN = 3

#: The acceptance-criteria fault plan: one replica dies mid-run for two
#: windows while another stalls across two windows.
PINNED_PLAN = FaultPlan(
    seed=11,
    events=(
        FaultEvent(batch_index=1, kind="kill", duration_batches=2),
        FaultEvent(batch_index=2, kind="stall", duration_batches=2),
    ),
)


@pytest.mark.paper_figure("frontdoor-loadtest")
def test_knee_and_availability_under_faults(scale) -> None:
    size = 6 if scale.name == "quick" else 10
    requests = 120 if scale.name == "quick" else 400
    concurrencies = (1, 2, 4, 8) if scale.name == "quick" else (1, 2, 4, 8, 16, 32)
    graph = road_network(size, size, seed=3)

    # -- clean knee: closed-loop sweep against a healthy fleet -----------
    queries = [
        query.key for query in QueryGenerator(graph, seed=0).generate(requests, k=2)
    ]
    replicas = build_replicas(graph, num_replicas=2, engine="yen")
    with start_front_door(replicas) as handle:
        knee, sweep = find_knee(
            handle.url,
            queries,
            slo_ms=SLO_MS,
            budget_ms=BUDGET_MS,
            concurrencies=concurrencies,
        )
    assert knee is not None, "no operating point met the SLO"
    assert knee.p99_ms <= SLO_MS
    assert knee.availability == 1.0

    # -- pinned faults: same HTTP path, acceptance-criteria plan ---------
    workload = generate_chaos_workload(
        graph,
        num_batches=5 + COOLDOWN,
        batch_size=8 if scale.name == "quick" else 16,
        update_every=2,
    )
    target = FrontDoorTarget(
        graph, build_replicas(graph, num_replicas=3, engine="yen"), concurrency=4
    )
    chaos = run_chaos(target, workload, PINNED_PLAN, cooldown_windows=COOLDOWN)
    assert chaos.correct, chaos.wrong_answers[:3]
    assert chaos.availability >= AVAILABILITY_FLOOR
    assert chaos.breaker_trips >= 1
    assert chaos.breakers_recovered, chaos.final_breaker_states

    table_rows = [
        [
            f"clean c={point.concurrency}",
            round(point.qps, 1),
            round(point.p99_ms, 2),
            round(point.availability, 4),
            "knee" if point is knee else "",
        ]
        for point in sweep
    ]
    table_rows.append(
        [
            "pinned faults",
            round(chaos.qps, 1),
            round(chaos.p99_ms, 2),
            round(chaos.availability, 4),
            f"{chaos.kills} kill, {chaos.breaker_trips} trips",
        ]
    )
    print_experiment(
        "Front-door operating point "
        f"(road_network({size}x{size}), 2 replicas clean / 3 faulted, "
        f"SLO p99 <= {SLO_MS:.0f} ms)",
        ["mode", "qps", "p99 (ms)", "availability", "note"],
        table_rows,
        notes="knee = highest-qps closed-loop point meeting the SLO with "
        "availability 1.0; faulted row runs the pinned kill+stall plan with "
        "zero wrong answers asserted",
    )
