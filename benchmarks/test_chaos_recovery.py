"""Recovery SLOs under injected faults (beyond the paper).

Paper map (``docs/paper_map.md``): extends Section 6's steady-state
evaluation with the failure/elasticity axis the paper's Storm deployment
would face in production: what happens to throughput when a worker dies
mid-batch, stalls, or a fresh worker joins and state migrates onto it —
and how fast the pool returns to its pre-fault service level.

Two classes of claims:

* **correctness** (hard assertion, any hardware): every answer of every
  chaos run holds up against the Yen oracle on a twin graph that receives
  the same rounds — zero wrong answers, zero dropped queries — and the
  fault/recovery event log is deterministic for the pinned plan.
* **recovery SLO** (reported, wall-clock): per fault kind, the qps dip
  relative to the pre-fault baseline and the time below the recovery
  threshold.
"""

from __future__ import annotations

import pytest

from repro.bench import print_experiment
from repro.chaos import (
    FaultEvent,
    FaultPlan,
    TopologyTarget,
    generate_chaos_workload,
    run_chaos,
)
from repro.core import DTLP, DTLPConfig
from repro.distributed import StormTopology
from repro.graph import road_network

NUM_WORKERS = 4
FAULT_BATCH = 3

#: One pinned single-event plan per fault kind, so each recovery row
#: isolates that kind's dip (the kill lands mid-batch: worker dies with
#: half the batch still in flight).
FAULTS = {
    "kill": FaultEvent(batch_index=FAULT_BATCH, kind="kill", offset=4),
    "stall": FaultEvent(batch_index=FAULT_BATCH, kind="stall", duration_batches=2),
    "join": FaultEvent(batch_index=FAULT_BATCH, kind="join"),
}


@pytest.mark.paper_figure("chaos-recovery")
def test_recovery_slo_per_fault_kind(scale) -> None:
    size = 9 if scale.name == "quick" else 14
    num_batches = 9 if scale.name == "quick" else 14
    batch_size = 8 if scale.name == "quick" else 16

    def builder() -> DTLP:
        graph = road_network(size, size, seed=5)
        return DTLP(graph, DTLPConfig(z=12, xi=2)).build()

    workload = generate_chaos_workload(
        builder().graph,
        num_batches=num_batches,
        batch_size=batch_size,
        seed=3,
        update_every=2,
    )

    def run(plan):
        topology = StormTopology(builder(), num_workers=NUM_WORKERS, executor="serial")
        return run_chaos(TopologyTarget(topology), workload, plan)

    table_rows = []
    for kind, event in FAULTS.items():
        plan = FaultPlan(seed=17, events=(event,))
        report = run(plan)

        assert report.ok, (
            f"{kind}: {report.wrong_answers[:3]} wrong answers, "
            f"{report.dropped_queries} dropped queries vs the oracle"
        )
        # The pinned plan replays identically: same event log both times.
        repeat = run(plan)
        assert [e.as_tuple() for e in repeat.events] == [
            e.as_tuple() for e in report.events
        ]
        stats = report.elasticity
        if kind == "kill":
            assert stats.workers_lost == 1
            assert stats.subgraphs_recovered >= 1
        if kind == "join":
            assert stats.workers_joined == 1
            assert stats.subgraphs_recovered >= 1, "join must migrate state"

        sample = report.recoveries[0]
        table_rows.append(
            [
                kind,
                "yes" if sample.recovered else "NO",
                sample.recovery_batches,
                round(sample.recovery_seconds * 1e3, 2),
                round(sample.qps_dip / sample.qps_baseline, 3),
                stats.retried_queries,
                stats.join_transfer_units,
            ]
        )

    print_experiment(
        "Recovery SLOs per fault kind "
        f"({num_batches} batches x {batch_size} queries, fault at batch "
        f"{FAULT_BATCH}, {NUM_WORKERS} workers)",
        [
            "fault",
            "recovered",
            "batches to recover",
            "recovery (ms)",
            "qps dip (x baseline)",
            "retried queries",
            "join transfer (units)",
        ],
        table_rows,
        notes="every answer checked against Yen on a twin graph (zero wrong "
        "answers asserted); recovery = first batch back above 70% of the "
        "median pre-fault qps",
    )
