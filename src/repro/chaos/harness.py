"""One chaos harness: a seeded fault plan, a workload, a target, one oracle.

:func:`run_chaos` replays a pre-generated workload (query batches
interleaved with pre-generated traffic rounds) into a *target* — an HTTP
front door over service replicas
(:class:`~repro.chaos.targets.FrontDoorTarget`) — injecting the faults of
a :class:`~repro.chaos.plan.FaultPlan` at their pinned batch indices, and
scores every answer against one :class:`Oracle`: Yen on a twin graph that
receives the same rounds.

A target serves one run, which closes it.  It exposes ``graph`` (the
served graph before the run, from which the oracle's twin is copied),
``alive()``, ``kill(victim, event)``, ``stall(victim, event)``,
``slow(victim, event)``, ``apply_round(updates) -> version``,
``run(queries) -> answers``, plus the hooks ``begin_batch(index, heal)``,
``finish(report)`` and ``close()``.  Replica ids are the victims.

Batches are windows of traffic.  Faults and weight-update rounds land on
the quiet boundary before a batch, so every fresh answer is computed at
one well-defined graph version and the oracle comparison is exact.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..algorithms.yen import yen_k_shortest_paths
from ..dynamics.traffic import TrafficModel
from ..frontdoor.breaker import OPEN
from ..graph.errors import EdgeNotFoundError
from ..graph.graph import DynamicGraph, WeightUpdate
from ..graph.paths import is_simple
from ..obs.metrics import percentile
from ..workloads.queries import KSPQuery, QueryGenerator
from .plan import ChaosError, FaultEvent, FaultPlan

__all__ = [
    "Answer",
    "ChaosEvent",
    "ChaosReport",
    "ChaosWorkload",
    "Oracle",
    "generate_chaos_workload",
    "run_chaos",
]

QueryKey = Tuple[int, int, int]

#: One answer's paths as ``(vertices, distance)`` pairs, best first.
Paths = Tuple[Tuple[Tuple[int, ...], float], ...]

#: Relative tolerance when comparing distances against the oracle.
_DISTANCE_RTOL = 1e-6


@dataclass(frozen=True)
class ChaosWorkload:
    """A replayable workload: query batches plus pre-generated traffic.

    ``updates`` maps a batch index to the weight-update round applied
    *before* that batch.  Updates are pre-generated against the initial
    weights (see :meth:`~repro.dynamics.traffic.TrafficModel.pregenerate`),
    so replaying the workload on a fresh copy of the graph reproduces the
    exact snapshot sequence.
    """

    batches: Tuple[Tuple[KSPQuery, ...], ...]
    updates: Dict[int, Tuple[WeightUpdate, ...]] = field(default_factory=dict)


def generate_chaos_workload(
    graph,
    num_batches: int,
    batch_size: int,
    k: int = 2,
    seed: int = 0,
    update_every: int = 0,
    alpha: float = 0.25,
    tau: float = 0.3,
    min_hops: int = 2,
) -> ChaosWorkload:
    """Build a seeded workload over ``graph``.

    When ``update_every`` is positive, a pre-generated traffic round is
    applied before every ``update_every``-th batch (batch 0 excluded, so
    the first batch always runs on the build-time snapshot).
    """
    if num_batches < 1 or batch_size < 1:
        raise ChaosError("num_batches and batch_size must be >= 1")
    queries = QueryGenerator(graph, seed=seed, min_hops=min_hops).generate(
        num_batches * batch_size, k=k
    )
    batches = tuple(
        tuple(queries[index * batch_size : (index + 1) * batch_size])
        for index in range(num_batches)
    )
    updates: Dict[int, Tuple[WeightUpdate, ...]] = {}
    if update_every > 0:
        indices = [i for i in range(1, num_batches) if i % update_every == 0]
        model = TrafficModel(graph, alpha=alpha, tau=tau, seed=seed + 1)
        for index, round_updates in zip(indices, model.pregenerate(len(indices))):
            updates[index] = tuple(round_updates)
    return ChaosWorkload(batches=batches, updates=updates)


@dataclass(frozen=True)
class ChaosEvent:
    """One injected fault as it actually landed (the deterministic log)."""

    batch_index: int
    kind: str
    worker_id: int
    #: Whether the event took effect (a kill is skipped when one replica
    #: is left).
    applied: bool
    workers_alive: int = 0
    #: Position of the event among its batch's events: with the batch
    #: index, the seed of its deferred-victim draw.
    ordinal: int = 0


@dataclass(frozen=True)
class Answer:
    """One query's outcome as a target returns it to the loop."""

    key: QueryKey
    #: 200 when answered; any other status counts as unavailable.
    status: int = 200
    paths: Paths = ()
    #: The graph version the answer claims: the one it was computed at
    #: (fresh) or the one it is replayed from (degraded).
    version: int = -1
    degraded: bool = False
    latency_seconds: float = 0.0


def _close(got: float, expected: float) -> bool:
    return abs(got - expected) <= _DISTANCE_RTOL * max(1.0, abs(expected))


def _wrong(key: QueryKey, reason: str, **details: object) -> dict:
    return {"key": list(key), "reason": reason, **details}


class Oracle:
    """Yen on a fault-free twin graph: the one judge of every answer.

    The twin starts as a pickled copy of the target's graph (the copy
    mechanism the replicas use) and receives the identical rounds, so its
    version equals the target's at every batch boundary.  Yen's distances
    are memoised by ``(key, version)``; ``validated`` remembers every fresh
    answer that passed, by ``(key, version)`` — the only legitimate
    provenance for a degraded answer.
    """

    def __init__(self, graph: DynamicGraph) -> None:
        self.graph = pickle.loads(pickle.dumps(graph))
        self._expected: Dict[Tuple[QueryKey, int], Tuple[float, ...]] = {}
        self.validated: Dict[Tuple[QueryKey, int], Set[Paths]] = {}

    def apply_round(self, updates: Sequence[WeightUpdate]) -> int:
        self.graph.apply_updates(list(updates))
        return self.graph.version

    def expected_distances(self, key: QueryKey) -> Tuple[float, ...]:
        """Yen distances for ``key`` at the twin's current version."""
        memo_key = (key, self.graph.version)
        if memo_key not in self._expected:
            source, target, k = key
            paths = yen_k_shortest_paths(self.graph, source, target, k)
            self._expected[memo_key] = tuple(path.distance for path in paths)
        return self._expected[memo_key]

    def check(self, answer: Answer) -> Optional[dict]:
        """Score one answered query; return a wrong-answer record or ``None``."""
        key = answer.key
        if answer.degraded:
            originals = self.validated.get((key, answer.version))
            if originals is None:
                return _wrong(
                    key,
                    "degraded answer with unvalidated provenance",
                    stale_graph_version=answer.version,
                )
            if answer.paths not in originals:
                return _wrong(
                    key,
                    "degraded answer differs from its validated original",
                    got=[list(path) for path in answer.paths],
                )
            return None
        if answer.version != self.graph.version:
            return _wrong(
                key,
                "fresh answer at stale graph version",
                got_version=answer.version,
                oracle_version=self.graph.version,
            )
        reason = self._invalid_paths(key, answer.paths)
        if reason is not None:
            return _wrong(key, reason)
        distances = [distance for _, distance in answer.paths]
        expected = self.expected_distances(key)
        if len(distances) != len(expected) or not all(
            _close(got, want) for got, want in zip(distances, expected)
        ):
            return _wrong(
                key,
                "fresh answer distances differ from oracle",
                got=distances,
                expected=list(expected),
            )
        self.validated.setdefault((key, answer.version), set()).add(answer.paths)
        return None

    def _invalid_paths(self, key: QueryKey, paths: Paths) -> Optional[str]:
        """Why ``paths`` are not k simple s→t paths priced on the twin."""
        source, target, _ = key
        if len({vertices for vertices, _ in paths}) != len(paths):
            return "duplicate path"
        previous = -math.inf
        for vertices, distance in paths:
            if not vertices or vertices[0] != source or vertices[-1] != target:
                return "path does not join source and target"
            if not is_simple(vertices):
                return "path is not simple"
            try:
                weight = self.graph.path_distance(vertices)
            except EdgeNotFoundError:
                return "path uses an edge the twin lacks"
            if not _close(distance, weight):
                return "path weight differs from its stated distance"
            if distance < previous:
                return "paths out of order"
            previous = distance
        return None


@dataclass
class ChaosReport:
    """One scored chaos run."""

    #: Batches the plan may fault, then clean cooldown batches.
    windows: int
    cooldown_windows: int = 0
    total: int = 0
    fresh: int = 0
    degraded: int = 0
    cooldown_unavailable: int = 0
    maintenance_rounds: int = 0
    wrong_answers: List[dict] = field(default_factory=list)
    status_counts: Dict[int, int] = field(default_factory=dict)
    events: List[ChaosEvent] = field(default_factory=list)
    #: End-to-end latencies (ms) of every answered query.
    latencies_ms: List[float] = field(default_factory=list)
    #: Wall clock spent in the target's ``run`` (boundaries excluded).
    traffic_seconds: float = 0.0
    # -- counted by the target ---------------------------------------------
    #: Replica re-submissions of previously shed work.
    retries: int = 0
    #: Breaker trips and the breakers' final states.
    breaker_trips: int = 0
    final_breaker_states: Dict[int, str] = field(default_factory=dict)

    @property
    def unavailable(self) -> int:
        return self.total - self.fresh - self.degraded

    @property
    def availability(self) -> float:
        """Fraction of queries answered, fresh or degraded."""
        return (self.fresh + self.degraded) / self.total if self.total else 0.0

    @property
    def qps(self) -> float:
        """Answered queries per second of traffic time, faults included."""
        answered = self.fresh + self.degraded
        return answered / self.traffic_seconds if self.traffic_seconds else 0.0

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies_ms, 99.0) if self.latencies_ms else 0.0

    @property
    def kills(self) -> int:
        return sum(1 for e in self.events if e.kind == "kill" and e.applied)

    @property
    def correct(self) -> bool:
        """True when every answer held up against the oracle."""
        return not self.wrong_answers

    @property
    def breakers_recovered(self) -> bool:
        """True when no breaker is still open after the cooldown."""
        return all(state != OPEN for state in self.final_breaker_states.values())


def run_chaos(
    target,
    workload: ChaosWorkload,
    plan: Optional[FaultPlan] = None,
    cooldown_windows: int = 0,
) -> ChaosReport:
    """Replay ``workload`` into ``target`` under ``plan`` and score it.

    The last ``cooldown_windows`` batches are fault-free and start with
    ``target.begin_batch(heal=True)``.  The run closes ``target``.
    """
    try:
        oracle = Oracle(target.graph)
        events = plan.events if plan is not None else ()
        windows = len(workload.batches) - cooldown_windows
        report = ChaosReport(windows=windows, cooldown_windows=cooldown_windows)
        for index, batch in enumerate(workload.batches):
            cooldown = index >= windows
            target.begin_batch(index, heal=index == windows)
            round_updates = workload.updates.get(index)
            if round_updates:
                served = target.apply_round(round_updates)
                expected = oracle.apply_round(round_updates)
                report.maintenance_rounds += 1
                if served != expected:
                    report.wrong_answers.append({
                        "reason": "maintenance version drift",
                        "served_version": served,
                        "oracle_version": expected,
                        "window": index,
                    })
            due = () if cooldown else [e for e in events if e.batch_index == index]
            for ordinal, event in enumerate(due):
                report.events.append(_inject(target, plan, event, ordinal))
            _serve(target, oracle, batch, report, index, cooldown)
        target.finish(report)
    finally:
        target.close()
    return report


def _serve(
    target,
    oracle: Oracle,
    queries: Sequence[KSPQuery],
    report: ChaosReport,
    index: int,
    cooldown: bool,
) -> None:
    """Run one batch and score its answers."""
    started = time.perf_counter()
    answers = target.run(queries)
    report.traffic_seconds += time.perf_counter() - started
    report.total += len(queries)
    answered = 0
    for answer in answers:
        report.status_counts[answer.status] = report.status_counts.get(answer.status, 0) + 1
        if answer.status != 200:
            continue
        answered += 1
        if answer.degraded:
            report.degraded += 1
        else:
            report.fresh += 1
        report.latencies_ms.append(answer.latency_seconds * 1e3)
        wrong = oracle.check(answer)
        if wrong is not None:
            wrong["window"] = index
            report.wrong_answers.append(wrong)
    if cooldown:
        report.cooldown_unavailable += len(queries) - answered


def _inject(target, plan: FaultPlan, event: FaultEvent, ordinal: int) -> ChaosEvent:
    """Apply one fault event to the target and log how it landed.

    The victim rule: ``event.worker_id`` when that replica is alive, else
    a draw over the sorted live set from the event's own
    ``plan.victim_rng(batch, ordinal)``.  The last live replica is never
    killed — the kill is logged as skipped.
    """
    alive = target.alive()
    victim = event.worker_id
    if victim not in alive:
        victim = alive[plan.victim_rng(event.batch_index, ordinal).randrange(len(alive))]
    applied = event.kind != "kill" or len(alive) > 1
    if applied:
        getattr(target, event.kind)(victim, event)
    return ChaosEvent(
        batch_index=event.batch_index,
        kind=event.kind,
        worker_id=victim,
        applied=applied,
        workers_alive=len(target.alive()),
        ordinal=ordinal,
    )
