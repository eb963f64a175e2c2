"""Chaos through the front door: the harness's HTTP target.

Seeded replica fault plans (kill / stall / slow) pushed through real HTTP
while clients with retries and deadlines drive traffic.  The resilient
serving contract must hold on every run:

* zero wrong answers — every 200 holds up against the Yen oracle on a
  twin graph that received the identical maintenance rounds (degraded
  answers must byte-match an answer that was itself validated when fresh);
* availability stays above a floor while replicas die, because rendezvous
  failover and degraded mode route around the holes;
* breakers trip during the faulted windows and are no longer open after
  the clean cooldown windows.

The pinned reference plan (mid-run replica kill + two-window stall) runs
on both the serial and the process executor; the seed sweep stays on the
serial backend to keep the suite fast.  The oracle itself is tested here
too: a table of wrong answers, each of which it must reject.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.algorithms import yen_k_shortest_paths
from repro.chaos import (
    Answer,
    FaultEvent,
    FaultPlan,
    FrontDoorTarget,
    Oracle,
    generate_chaos_workload,
    run_chaos,
)
from repro.dynamics import TrafficModel
from repro.frontdoor import build_replicas
from repro.graph import road_network

#: The acceptance-criteria reference plan: one replica dies mid-run for two
#: windows while another stalls across two windows.
PINNED_PLAN = FaultPlan(
    seed=11,
    events=(
        FaultEvent(batch_index=1, kind="kill", duration_batches=2),
        FaultEvent(batch_index=2, kind="stall", duration_batches=2),
    ),
)

AVAILABILITY_FLOOR = 0.95
COOLDOWN = 3


def run_frontdoor(
    plan,
    graph=None,
    windows=5,
    window_requests=6,
    seed=0,
    num_replicas=3,
    engine="yen",
    executor=None,
    degraded_mode=True,
):
    """One chaos run against a fresh front door over ``graph``."""
    if graph is None:
        graph = road_network(6, 6, seed=3)
    workload = generate_chaos_workload(
        graph,
        num_batches=windows + COOLDOWN,
        batch_size=window_requests,
        seed=seed,
        update_every=2,
    )
    replicas = build_replicas(
        graph, num_replicas=num_replicas, engine=engine, executor=executor
    )
    target = FrontDoorTarget(
        graph, replicas, concurrency=3, degraded_mode=degraded_mode
    )
    return run_chaos(target, workload, plan, cooldown_windows=COOLDOWN)


class TestPinnedPlan:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_contract_holds_end_to_end(self, executor):
        result = run_frontdoor(PINNED_PLAN, executor=executor)
        assert result.correct, result.wrong_answers[:3]
        assert result.availability >= AVAILABILITY_FLOOR
        assert result.kills >= 1
        assert result.breaker_trips >= 1
        # Recovery: after the cooldown windows no breaker is still open
        # and the cooldown traffic itself was fully answered.
        assert result.breakers_recovered, result.final_breaker_states
        assert result.cooldown_unavailable == 0
        # Maintenance kept replicas and oracle version-aligned (any drift
        # would have been recorded as a wrong answer above).
        assert result.maintenance_rounds >= 1

    def test_strict_mode_still_never_lies(self):
        # Without degraded mode availability may dip, but answers must
        # still be correct and breakers must still recover.
        result = run_frontdoor(PINNED_PLAN, executor="serial", degraded_mode=False)
        assert result.correct, result.wrong_answers[:3]
        assert result.breakers_recovered
        assert result.cooldown_unavailable == 0

    def test_pinned_victims_are_hit(self):
        plan = FaultPlan(
            seed=11,
            events=(
                FaultEvent(batch_index=1, kind="kill", worker_id=2),
                FaultEvent(batch_index=1, kind="stall", worker_id=1),
                FaultEvent(batch_index=2, kind="slow", worker_id=0),
            ),
        )
        result = run_frontdoor(plan, windows=3)
        assert result.correct, result.wrong_answers[:3]
        assert [(e.kind, e.worker_id, e.applied) for e in result.events] == [
            ("kill", 2, True),
            ("stall", 1, True),
            ("slow", 0, True),
        ]


class TestChaosSafety:
    def test_kill_skipped_at_last_worker(self):
        """The harness never kills the last live replica — it logs a skip."""
        plan = FaultPlan(
            seed=2,
            events=tuple(
                # Long enough that no victim revives before the cooldown.
                FaultEvent(batch_index=index, kind="kill", duration_batches=10)
                for index in range(1, 5)
            ),
        )
        result = run_frontdoor(plan)
        assert result.correct, result.wrong_answers[:3]
        assert result.kills == 2  # 3 replicas, 2 killable
        skipped = [e for e in result.events if not e.applied]
        assert len(skipped) == 2
        assert all(e.workers_alive == 1 for e in skipped)

    def test_identical_kills_get_their_own_ordinals(self):
        """Two equal events in one batch are two events: each is logged
        with its own ordinal and draws its victim from its own RNG."""
        kill = FaultEvent(batch_index=1, kind="kill")
        plan = FaultPlan(seed=5, events=(kill, kill))
        result = run_frontdoor(plan, windows=3)
        assert result.correct, result.wrong_answers[:3]
        assert [e.ordinal for e in result.events] == [0, 1]
        alive = [0, 1, 2]
        for event in result.events:
            draw = plan.victim_rng(1, event.ordinal).randrange(len(alive))
            assert event.applied and event.worker_id == alive.pop(draw)


class TestSeededPlans:
    @pytest.mark.parametrize("plan_seed", [1, 7, 23])
    def test_generated_plans_uphold_the_contract(self, plan_seed):
        plan = FaultPlan.generate(
            plan_seed,
            num_batches=5,
            kinds=("kill", "stall", "slow"),
            rate=0.6,
        )
        result = run_frontdoor(
            plan, graph=road_network(6, 6, seed=plan_seed), seed=plan_seed
        )
        assert result.correct, result.wrong_answers[:3]
        assert result.availability >= AVAILABILITY_FLOOR
        assert result.breakers_recovered, result.final_breaker_states

    def test_runs_are_deterministic_in_shape(self):
        # Same seeds -> same request totals, kills and maintenance rounds
        # (latency-dependent counters like retries may differ).
        first = run_frontdoor(PINNED_PLAN, executor="serial")
        second = run_frontdoor(PINNED_PLAN, executor="serial")
        assert first.total == second.total
        assert first.kills == second.kills
        assert first.maintenance_rounds == second.maintenance_rounds
        assert first.correct and second.correct


class TestDegradedProvenance:
    def test_kspdg_engine_replicas_also_hold(self):
        # The DTLP-backed engine takes the same front-door contract.
        result = run_frontdoor(
            PINNED_PLAN,
            graph=road_network(5, 5, seed=9),
            engine="kspdg",
            num_replicas=2,
            windows=4,
            window_requests=4,
        )
        assert result.correct, result.wrong_answers[:3]
        assert result.availability >= AVAILABILITY_FLOOR


def _yen_answer(graph, key, **fields) -> Answer:
    source, target, k = key
    paths = yen_k_shortest_paths(graph, source, target, k)
    return Answer(
        key,
        paths=tuple((tuple(p.vertices), p.distance) for p in paths),
        version=graph.version,
        **fields,
    )


def _wrong_answers():
    """``(case, answer, expected reason)`` rows against an oracle that
    validated a fresh answer one round ago."""
    graph = road_network(5, 5, seed=4)
    oracle = Oracle(graph)
    key = (0, 24, 3)
    oracle.apply_round(TrafficModel(graph, seed=1).generate_updates())
    validated = _yen_answer(oracle.graph, key)
    assert oracle.check(validated) is None
    stale_version = validated.version
    oracle.apply_round(TrafficModel(graph, seed=2).generate_updates())

    right = _yen_answer(oracle.graph, key)
    assert oracle.check(right) is None
    first, second, third = right.paths
    assert first[1] < second[1] < third[1]
    source, target, _ = key
    # A fourth-best path in place of the third: a real path, honestly
    # priced, but not one of the k shortest.
    fourth = _yen_answer(oracle.graph, (source, target, 4)).paths[3]
    # Go one hop forward and back before following the best path.
    hop = first[0][1]
    walk = (source, hop) + first[0]
    looped = (walk, oracle.graph.path_distance(walk))
    return oracle, [
        ("wrong distance", Answer(key, paths=(first, second, fourth),
                                  version=right.version),
         "fresh answer distances differ from oracle"),
        ("paths out of order", Answer(key, paths=(second, first, third),
                                      version=right.version),
         "paths out of order"),
        ("non-simple path", Answer(key, paths=(looped, second, third),
                                   version=right.version),
         "path is not simple"),
        ("weight != distance", Answer(key, paths=((first[0], first[1] + 0.5),
                                                  second, third),
                                      version=right.version),
         "path weight differs from its stated distance"),
        ("fresh at stale version", Answer(key, paths=validated.paths,
                                          version=stale_version),
         "fresh answer at stale graph version"),
        ("degraded, unvalidated provenance", Answer(key, paths=right.paths,
                                                    version=0, degraded=True),
         "degraded answer with unvalidated provenance"),
        ("degraded, differs from original", Answer(key,
                                                   paths=validated.paths[:2],
                                                   version=stale_version,
                                                   degraded=True),
         "degraded answer differs from its validated original"),
    ]


class TestOracleRejects:
    def test_every_wrong_answer_is_recorded(self):
        oracle, cases = _wrong_answers()
        for case, answer, reason in cases:
            record = oracle.check(answer)
            assert record is not None, case
            assert record["reason"] == reason, case
            assert record["key"] == list(answer.key)

    def test_degraded_replay_of_a_validated_answer_passes(self):
        oracle, cases = _wrong_answers()
        validated = next(a for c, a, _ in cases if c == "fresh at stale version")
        assert oracle.check(replace(validated, degraded=True)) is None
