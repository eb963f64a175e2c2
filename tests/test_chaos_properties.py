"""Seeded fault plans: the one source of nondeterminism in a chaos run.

A generated plan is a pure function of its seed, leaves batch 0 clean,
and draws every deferred victim from a string-seeded RNG, so a plan
replays identically across processes and interpreter runs.  The
harness that injects the plans is exercised end to end in
``tests/test_frontdoor_chaos.py``.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosError, FaultEvent, FaultPlan


class TestFaultPlan:
    def test_generate_is_deterministic(self) -> None:
        a = FaultPlan.generate(9, num_batches=20, rate=0.5)
        b = FaultPlan.generate(9, num_batches=20, rate=0.5)
        assert a == b
        assert FaultPlan.generate(10, num_batches=20, rate=0.5) != a

    def test_events_sorted_and_batch_zero_clean(self) -> None:
        plan = FaultPlan.generate(3, num_batches=30, rate=0.9)
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
            FaultEvent(batch_index=0, kind="join")
        with pytest.raises(ChaosError):
            FaultEvent(batch_index=-1, kind="kill")
        with pytest.raises(ChaosError):
            FaultEvent(batch_index=0, kind="slow", factor=0.5)
        with pytest.raises(ChaosError):
            FaultPlan.generate(1, num_batches=5, kinds=("meteor",))
        with pytest.raises(ChaosError):
            FaultPlan.generate(1, num_batches=5, rate=1.5)
