"""Unit tests for the front door's building blocks.

Deadline arithmetic, deterministic retry backoff, the circuit breaker's
state-machine edges (probe storms, flapping windows, failure-kind
thresholds), rendezvous routing stability and the stale cache's LRU
contract — everything here runs without sockets or threads.
"""

from __future__ import annotations

import pytest

from repro.frontdoor import RetryPolicy
from repro.frontdoor.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.frontdoor.deadline import Deadline
from repro.frontdoor.router import Router, rendezvous_order
from repro.frontdoor.stale import StaleCache
from repro.graph.paths import Path


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_budget_counts_down(self):
        deadline = Deadline.from_budget_ms(1000.0, now=100.0)
        assert deadline.remaining(now=100.0) == pytest.approx(1.0)
        assert deadline.remaining(now=100.4) == pytest.approx(0.6)
        assert not deadline.expired(now=100.9)
        assert deadline.expired(now=101.1)

    def test_remaining_goes_negative_once_spent(self):
        # Negative remaining is the documented overrun signal, not an error.
        deadline = Deadline.from_budget_ms(50.0, now=0.0)
        assert deadline.remaining(now=10.0) == pytest.approx(-9.95)
        assert deadline.expired(now=10.0)

    @pytest.mark.parametrize("budget", [0.0, -5.0])
    def test_non_positive_budget_rejected(self, budget):
        with pytest.raises(ValueError):
            Deadline.from_budget_ms(budget)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_is_deterministic_for_seed_and_key(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        key = (3, 9, 2)
        assert [a.backoff_seconds(i, key=key) for i in range(4)] == [
            b.backoff_seconds(i, key=key) for i in range(4)
        ]

    def test_different_seeds_jitter_differently(self):
        key = (3, 9, 2)
        series = {
            tuple(RetryPolicy(seed=seed).backoff_seconds(i, key=key) for i in range(4))
            for seed in range(5)
        }
        assert len(series) > 1

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_backoff=0.01, max_backoff=0.05, jitter=0.0, seed=0
        )
        values = [policy.backoff_seconds(i) for i in range(6)]
        assert values[0] == pytest.approx(0.01)
        assert values[1] == pytest.approx(0.02)
        assert values[2] == pytest.approx(0.04)
        assert values[3] == pytest.approx(0.05)  # capped
        assert values[5] == pytest.approx(0.05)

    def test_server_retry_after_floors_the_backoff(self):
        policy = RetryPolicy(base_backoff=0.01, jitter=0.0, seed=0)
        assert policy.next_delay(0, retry_after=0.2) == pytest.approx(0.2)

    def test_never_retries_past_the_deadline(self):
        policy = RetryPolicy(base_backoff=0.05, jitter=0.0, seed=0)
        deadline = Deadline.from_budget_ms(30.0, now=0.0)
        # Remaining budget (30ms) is smaller than the 50ms backoff.
        assert policy.next_delay(0, deadline=deadline, now=0.0) is None

    def test_attempts_exhaust(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.next_delay(0) is not None
        assert policy.next_delay(1) is None
        assert policy.next_delay(5) is None


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def make_breaker(**kwargs):
    """A breaker on a hand-cranked clock, for deterministic window tests."""
    clock = {"now": 0.0}
    defaults = dict(
        failure_threshold=3,
        refused_threshold=2,
        open_seconds=1.0,
        max_open_seconds=8.0,
        half_open_probes=1,
        clock=lambda: clock["now"],
    )
    defaults.update(kwargs)
    return CircuitBreaker(**defaults), clock


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker, _clock = make_breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_refusals_trip_faster_than_failures(self):
        breaker, _clock = make_breaker(failure_threshold=3, refused_threshold=2)
        breaker.record_failure("refused")
        assert breaker.state == CLOSED
        breaker.record_failure("refused")
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_timeouts_need_the_higher_threshold(self):
        breaker, _clock = make_breaker(failure_threshold=3)
        breaker.record_failure("timeout")
        breaker.record_failure("timeout")
        assert breaker.state == CLOSED
        breaker.record_failure("timeout")
        assert breaker.state == OPEN

    def test_success_resets_consecutive_counts(self):
        breaker, _clock = make_breaker(failure_threshold=3)
        breaker.record_failure("timeout")
        breaker.record_failure("timeout")
        breaker.record_success()
        breaker.record_failure("timeout")
        breaker.record_failure("timeout")
        assert breaker.state == CLOSED

    def test_kinds_do_not_cross_pollinate(self):
        breaker, _clock = make_breaker(failure_threshold=3, refused_threshold=2)
        # One refusal plus two timeouts: neither per-kind threshold reached.
        breaker.record_failure("refused")
        breaker.record_failure("timeout")
        breaker.record_failure("timeout")
        assert breaker.state == CLOSED

    def test_unknown_kind_rejected(self):
        breaker, _clock = make_breaker()
        with pytest.raises(ValueError):
            breaker.record_failure("cosmic-rays")

    def test_open_rejects_until_window_elapses(self):
        breaker, clock = make_breaker(open_seconds=1.0)
        breaker.record_failure("refused")
        breaker.record_failure("refused")
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock["now"] = 0.5
        assert not breaker.allow()
        clock["now"] = 1.0
        assert breaker.state == HALF_OPEN

    def test_half_open_probe_storm_is_bounded(self):
        breaker, clock = make_breaker(half_open_probes=2)
        breaker.record_failure("refused")
        breaker.record_failure("refused")
        clock["now"] = 1.0
        assert breaker.state == HALF_OPEN
        # A burst of callers: only the configured probe quota passes.
        grants = [breaker.allow() for _ in range(10)]
        assert grants.count(True) == 2

    def test_successful_probe_closes(self):
        breaker, clock = make_breaker()
        breaker.record_failure("refused")
        breaker.record_failure("refused")
        clock["now"] = 1.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_failed_probe_retrips_immediately(self):
        breaker, clock = make_breaker()
        breaker.record_failure("refused")
        breaker.record_failure("refused")
        clock["now"] = 1.0
        assert breaker.allow()
        breaker.record_failure("timeout")  # one probe failure is enough
        assert breaker.state == OPEN
        assert breaker.trips == 2

    def test_flapping_replica_doubles_the_open_window(self):
        breaker, clock = make_breaker(open_seconds=1.0, max_open_seconds=8.0)

        def trip_via_probe_failure(at: float):
            clock["now"] = at
            assert breaker.allow()
            breaker.record_failure("refused")

        breaker.record_failure("refused")
        breaker.record_failure("refused")  # trip 1: imposes a 1s window
        assert breaker.retry_after() == pytest.approx(1.0)
        trip_via_probe_failure(at=1.0)  # trip 2: imposes a 2s window
        assert breaker.retry_after() == pytest.approx(2.0)
        clock["now"] = 2.0  # only 1s elapsed: still open
        assert breaker.state == OPEN
        trip_via_probe_failure(at=3.0)  # trip 3: imposes a 4s window
        assert breaker.retry_after() == pytest.approx(4.0)
        trip_via_probe_failure(at=7.0)  # trip 4: capped at 8s
        assert breaker.retry_after() == pytest.approx(8.0)
        trip_via_probe_failure(at=15.0)
        # The window is capped, no matter how long the flapping goes on.
        assert breaker.retry_after() == pytest.approx(8.0)

    def test_recovery_resets_the_trip_streak(self):
        breaker, clock = make_breaker(open_seconds=1.0)
        breaker.record_failure("refused")
        breaker.record_failure("refused")
        clock["now"] = 1.0
        assert breaker.allow()
        breaker.record_success()
        # A later trip starts over at the base window.
        breaker.record_failure("refused")
        breaker.record_failure("refused")
        assert breaker.retry_after() == pytest.approx(1.0)

    def test_retry_after_reports_remaining_window(self):
        breaker, clock = make_breaker(open_seconds=1.0)
        breaker.record_failure("refused")
        breaker.record_failure("refused")
        clock["now"] = 0.25
        assert breaker.retry_after() == pytest.approx(0.75)
        clock["now"] = 2.0
        assert breaker.retry_after() == 0.0


# ----------------------------------------------------------------------
# Router (rendezvous hashing)
# ----------------------------------------------------------------------
class TestRouter:
    def test_order_is_deterministic(self):
        router = Router([0, 1, 2])
        key = (5, 60, 2)
        assert router.order(key) == router.order(key)
        assert Router([2, 1, 0]).order(key) == router.order(key)

    def test_order_is_a_permutation(self):
        router = Router([0, 1, 2, 3])
        order = router.order((1, 2, 3))
        assert sorted(order) == [0, 1, 2, 3]

    def test_keys_spread_across_replicas(self):
        router = Router([0, 1, 2])
        primaries = {
            router.order((s, t, 2))[0]
            for s in range(12)
            for t in range(12, 24)
        }
        assert primaries == {0, 1, 2}

    def test_removing_a_replica_only_moves_its_own_keys(self):
        full = Router([0, 1, 2])
        reduced = Router([0, 1])
        keys = [(s, s + 17, 2) for s in range(60)]
        for key in keys:
            before = full.order(key)[0]
            after = reduced.order(key)[0]
            if before != 2:
                # Minimal disruption: keys not owned by the removed
                # replica keep their primary.
                assert after == before

    def test_empty_replica_set_rejected(self):
        with pytest.raises(ValueError):
            Router([])

    def test_rendezvous_order_is_score_sorted(self):
        order = rendezvous_order((4, 40, 2), [0, 1, 2, 3])
        assert sorted(order) == [0, 1, 2, 3]
        assert order == rendezvous_order((4, 40, 2), [3, 2, 1, 0])


# ----------------------------------------------------------------------
# StaleCache
# ----------------------------------------------------------------------
class TestStaleCache:
    def test_round_trip_with_version(self):
        cache = StaleCache(capacity=4)
        paths = (Path(2.0, (1, 5, 2)),)
        cache.put((1, 2, 3), paths, graph_version=7)
        assert cache.get((1, 2, 3)) == (paths, 7)
        assert cache.hits == 1

    def test_miss_is_counted(self):
        cache = StaleCache(capacity=4)
        assert cache.get((9, 9, 9)) is None
        assert cache.misses == 1

    def test_lru_evicts_the_coldest_key(self):
        cache = StaleCache(capacity=2)
        cache.put((1, 1, 1), (), 0)
        cache.put((2, 2, 2), (), 0)
        cache.get((1, 1, 1))  # touch: (2,2,2) is now coldest
        cache.put((3, 3, 3), (), 0)
        assert cache.get((2, 2, 2)) is None
        assert cache.get((1, 1, 1)) is not None
        assert len(cache) == 2

    def test_put_overwrites_in_place(self):
        cache = StaleCache(capacity=2)
        old, new = (Path(3.0, (1, 2, 1)),), (Path(2.0, (1, 3, 1)),)
        cache.put((1, 1, 1), old, 3)
        cache.put((1, 1, 1), new, 4)
        assert cache.get((1, 1, 1)) == (new, 4)
        assert len(cache) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            StaleCache(capacity=0)
