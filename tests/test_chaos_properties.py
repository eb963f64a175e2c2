"""Determinism properties of the chaos harness on its topology target.

Randomized graphs x randomized seeded fault plans x every execution
backend: every answer of a chaos run must hold up against the Yen oracle,
a faulted run's answers must be bit-identical to a fault-free run's, and
everything the determinism contract covers — answer signatures, the
fault event log and the per-batch counters (communication units, message
counts) — must be identical for a fixed seed across repeats and across
backends.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.chaos import (
    ChaosError,
    FaultEvent,
    FaultPlan,
    TopologyTarget,
    generate_chaos_workload,
    run_chaos,
)
from repro.core import DTLP, DTLPConfig
from repro.distributed import StormTopology
from repro.exec import EXECUTORS
from repro.graph import road_network


def _builder(size: int, seed: int):
    def build() -> DTLP:
        graph = road_network(size, size, seed=seed)
        return DTLP(graph, DTLPConfig(z=12, xi=2)).build()

    return build


def _run(builder, workload, plan, num_workers=4, executor="serial", **kwargs):
    """One chaos run on a freshly built topology."""
    topology = StormTopology(
        builder(), num_workers=num_workers, executor=executor, **kwargs
    )
    return run_chaos(TopologyTarget(topology), workload, plan)


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
        # Pinned draws: string-seeded, so stable across processes and
        # interpreter runs; equal seeds give equal draws on any instance.
        draws = [
            FaultPlan(seed=4).victim_rng(batch, ordinal).randrange(100)
            for batch, ordinal in ((2, 0), (2, 1), (3, 0))
        ]
        assert draws == [98, 39, 46]
        assert FaultPlan(seed=4).victim_rng(2, 1).randrange(100) == draws[1]
        assert FaultPlan(seed=5).victim_rng(2, 0).randrange(100) != draws[0]

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
        """Randomized case: every answer passes the oracle, and the run
        replays exactly."""
        builder, workload, plan = _random_case(case_seed)
        report = _run(builder, workload, plan, kernel=kernel)
        assert report.wrong_answers == []
        assert report.dropped_queries == 0
        assert len(report.signatures) == workload.total_queries
        repeat = _run(builder, workload, plan, kernel=kernel)
        assert repeat.deterministic_signature() == report.deterministic_signature()

    @pytest.mark.parametrize("case_seed", [111, 212])
    def test_backends_bit_identical(self, case_seed: int) -> None:
        """The full deterministic signature matches on every backend."""
        builder, workload, plan = _random_case(case_seed)
        signatures = {
            executor: _run(builder, workload, plan, executor=executor)
            .deterministic_signature()
            for executor in EXECUTORS
        }
        reference = signatures["serial"]
        for executor, signature in signatures.items():
            assert signature == reference, f"{executor} diverged from serial"

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_faulted_answers_equal_fault_free(self, executor: str) -> None:
        """Faults change who answers, never what: the faulted run's
        answers are bit-identical to a fault-free run's."""
        builder, workload, plan = _random_case(505)
        assert plan.events
        faulted = _run(builder, workload, plan, executor=executor)
        clean = _run(builder, workload, None, executor=executor)
        assert faulted.ok and clean.ok
        assert not clean.events
        assert faulted.signatures == clean.signatures

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
        report = _run(builder, workload, plan, executor="process")
        assert report.ok
        assert report.elasticity.workers_lost == 1
        kill = next(e for e in report.events if e.kind == "kill")
        assert kill.applied and kill.offset == 3

    def test_identical_mid_batch_kills_get_their_own_ordinals(self) -> None:
        """Two equal events in one batch are two events: each is logged
        with its own ordinal and draws its victim from its own RNG."""
        builder = _builder(7, seed=31)
        workload = generate_chaos_workload(
            builder().graph, num_batches=3, batch_size=6, seed=3
        )
        kill = FaultEvent(batch_index=1, kind="kill", offset=3)
        plan = FaultPlan(seed=5, events=(kill, kill))
        report = _run(builder, workload, plan)
        assert report.ok
        assert [e.ordinal for e in report.events] == [0, 1]
        alive = [0, 1, 2, 3]
        for event in report.events:
            draw = plan.victim_rng(1, event.ordinal).randrange(len(alive))
            assert event.applied and event.worker_id == alive.pop(draw)

    def test_pinned_victim_is_hit(self) -> None:
        """A named live worker is the victim; no draw replaces it."""
        builder = _builder(6, seed=9)
        workload = generate_chaos_workload(
            builder().graph, num_batches=3, batch_size=4, seed=1
        )
        plan = FaultPlan(
            seed=2,
            events=(
                FaultEvent(batch_index=1, kind="stall", worker_id=3),
                FaultEvent(batch_index=2, kind="kill", worker_id=2),
            ),
        )
        report = _run(builder, workload, plan)
        assert report.ok
        assert [(e.kind, e.worker_id, e.applied) for e in report.events] == [
            ("stall", 3, True),
            ("kill", 2, True),
        ]

    def test_counters_deterministic_for_fixed_seed(self) -> None:
        """subgraph_tasks / message counters replay exactly under faults."""
        builder, workload, plan = _random_case(404)
        first = _run(builder, workload, plan)
        second = _run(builder, workload, plan)
        assert [
            (s.communication_units, s.messages) for s in first.samples
        ] == [(s.communication_units, s.messages) for s in second.samples]
        # Everything except the wall-clock recovery timer is replayable.
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
        report = _run(builder, workload, plan, num_workers=3)
        assert report.ok
        assert report.elasticity.workers_lost == 2  # 3 workers, 2 killable
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
        report = _run(builder, workload, plan)
        assert report.ok
        assert report.elasticity.workers_lost == 1
        assert report.elasticity.workers_joined == 1
        join = next(e for e in report.events if e.kind == "join")
        assert join.applied and join.subgraphs_moved >= 1
        assert report.elasticity.join_transfer_units > 0
