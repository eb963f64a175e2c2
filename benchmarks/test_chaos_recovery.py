"""Recovery SLOs under injected faults (beyond the paper).

Paper map (``docs/paper_map.md``): extends Section 6's steady-state
evaluation with the failure/elasticity axis the paper's Storm deployment
would face in production: what happens to throughput when a worker dies
mid-batch, stalls, or a fresh worker joins and state migrates onto it —
and how fast the pool returns to its pre-fault service level.

Two classes of claims:

* **correctness** (hard assertion, any hardware): every chaos run returns
  bit-identical paths and distances to a fault-free oracle replay of the
  same workload — zero wrong answers, zero dropped queries — and the
  fault/recovery event log is deterministic for the pinned plan.
* **recovery SLO** (reported, wall-clock): per fault kind, the qps dip
  relative to the pre-fault baseline and the time below the recovery
  threshold.
"""

from __future__ import annotations

import pytest

from repro.bench import print_experiment
from repro.chaos import ChaosHarness, FaultEvent, FaultPlan, generate_chaos_workload
from repro.core import DTLP, DTLPConfig
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
    harness = ChaosHarness(builder, num_workers=NUM_WORKERS, executor="serial")

    table_rows = []
    for kind, event in FAULTS.items():
        plan = FaultPlan(seed=17, events=(event,))
        report = harness.execute(workload, plan)

        assert report.ok, (
            f"{kind}: {report.wrong_answers} wrong answers, "
            f"{report.dropped_queries} dropped queries vs the oracle"
        )
        # The pinned plan replays identically: same event log both times.
        repeat = harness.run(workload, plan)
        assert [e.as_tuple() for e in repeat.events] == [
            e.as_tuple() for e in report.chaos.events
        ]
        if kind == "kill":
            assert report.workers_lost == 1
            assert report.subgraphs_recovered >= 1
        if kind == "join":
            assert report.workers_joined == 1
            assert report.subgraphs_recovered >= 1, "join must migrate state"

        sample = report.recoveries[0]
        table_rows.append(
            [
                kind,
                "yes" if sample.recovered else "NO",
                sample.recovery_batches,
                round(sample.recovery_seconds * 1e3, 2),
                round(sample.qps_dip / sample.qps_baseline, 3),
                report.retried_queries,
                report.join_transfer_units,
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
        notes="every run bit-identical to a fault-free oracle (zero wrong "
        "answers asserted); recovery = first batch back above 70% of the "
        "median pre-fault qps",
    )
