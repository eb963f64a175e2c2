"""One chaos harness: a seeded fault plan, a workload, a target, one oracle.

:func:`run_chaos` replays a pre-generated workload (query batches
interleaved with pre-generated traffic rounds) into a *target* — a live
:class:`~repro.distributed.topology.StormTopology`
(:class:`~repro.chaos.targets.TopologyTarget`) or an HTTP front door over
service replicas (:class:`~repro.chaos.targets.FrontDoorTarget`) —
injecting the faults of a :class:`~repro.chaos.plan.FaultPlan` at their
pinned batch indices, and scores every answer against one
:class:`Oracle`: Yen on a twin graph that receives the same rounds.

A target serves one run, which closes it.  It exposes ``graph`` (the
served graph before the run, from which the oracle's twin is copied),
``MID_BATCH_KILLS`` (whether a kill with an ``offset`` lands inside its
batch) and ``alive()``, ``kill(victim, event, upcoming) -> moved``,
``join() -> (worker, moved) | None``, ``stall(victim, event)``,
``slow(victim, event)``, ``apply_round(updates) -> version``,
``run(queries) -> answers``, plus the hooks ``begin_batch(index, heal)``,
``end_batch(index, queries, wall) -> BatchSample``, ``finish(report)``
and ``close()``.  Workers (topology) and replicas (front door) share one
id space: the victims.

Batches are windows of traffic.  Faults and weight-update rounds land on
the quiet boundary before a batch (or, for a topology kill with an
``offset``, between two segments of it), so every fresh answer is
computed at one well-defined graph version and the oracle comparison is
exact.

Determinism contract
--------------------
On a topology target, two runs of one workload and plan — on any
execution backend — produce byte-identical answer signatures, fault
event logs and per-batch counters
(:meth:`ChaosReport.deterministic_signature`), and the answers of a
faulted run equal those of a fault-free run bit for bit.  Only wall-clock
fields (batch seconds, qps, recovery seconds) vary; they feed the
recovery SLOs, never the correctness checks.
"""

from __future__ import annotations

import math
import pickle
import statistics
import time
from dataclasses import astuple, dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..algorithms.yen import yen_k_shortest_paths
from ..distributed.topology import ElasticityStats
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
    "AnswerSignature",
    "BatchSample",
    "ChaosEvent",
    "ChaosReport",
    "ChaosWorkload",
    "Oracle",
    "RecoverySample",
    "generate_chaos_workload",
    "run_chaos",
]

QueryKey = Tuple[int, int, int]

#: One answer's paths as ``(vertices, distance)`` pairs, best first.
Paths = Tuple[Tuple[Tuple[int, ...], float], ...]

#: One query's answer, reduced to a comparable value: a tuple of
#: ``(path vertices, distance rounded to 9 decimals)`` per returned path.
AnswerSignature = Tuple[Tuple[Tuple[int, ...], float], ...]

#: Relative tolerance when comparing distances against the oracle.
_DISTANCE_RTOL = 1e-6

#: A batch back above this fraction of the pre-fault qps has recovered.
RECOVERY_FRACTION = 0.7


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

    @property
    def total_queries(self) -> int:
        return sum(len(batch) for batch in self.batches)


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
    #: Whether the event took effect (a kill is skipped when one worker
    #: is left; a front-door join is skipped when no replica is down).
    applied: bool
    subgraphs_moved: int = 0
    offset: Optional[int] = None
    workers_alive: int = 0
    #: Position of the event among its batch's events: with the batch
    #: index, the seed of its deferred-victim draw.
    ordinal: int = 0

    def as_tuple(self) -> Tuple:
        return astuple(self)


@dataclass(frozen=True)
class BatchSample:
    """Per-batch telemetry: deterministic counters + wall-clock timing."""

    batch_index: int
    queries: int
    #: Deterministic (identical across backends and repeats); zero on
    #: targets that keep no such counters.
    communication_units: int
    messages: int
    #: Wall clock — includes the round and any fault surgery injected
    #: during the batch plus simulated stall/slowdown penalties; feeds qps
    #: and SLOs only.
    wall_seconds: float

    @property
    def qps(self) -> float:
        return self.queries / max(self.wall_seconds, 1e-9)


@dataclass(frozen=True)
class RecoverySample:
    """Recovery SLO for one applied fault event.

    The baseline is the median qps of the clean batches before the first
    fault; the system has *recovered* at the first post-fault batch whose
    qps is back above :data:`RECOVERY_FRACTION` of that baseline.
    """

    kind: str
    batch_index: int
    worker_id: int
    recovered: bool
    recovery_batches: int
    recovery_seconds: float
    qps_baseline: float
    qps_dip: float
    qps_recovered: float


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

    def signature(self) -> AnswerSignature:
        return tuple((vertices, round(distance, 9)) for vertices, distance in self.paths)


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
    """One scored chaos run, whichever target it drove."""

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
    samples: List[BatchSample] = field(default_factory=list)
    signatures: List[AnswerSignature] = field(default_factory=list)
    recoveries: List[RecoverySample] = field(default_factory=list)
    #: End-to-end latencies (ms) of every answered query.
    latencies_ms: List[float] = field(default_factory=list)
    #: Wall clock spent in the target's ``run`` (boundaries excluded).
    traffic_seconds: float = 0.0
    # -- counted by the target ---------------------------------------------
    #: Work re-submitted because of a fault: queries re-routed off a dying
    #: worker (topology) or replica re-submissions (front door).
    retries: int = 0
    #: Topology only: the elasticity counters.
    elasticity: Optional[ElasticityStats] = None
    #: Front door only: breaker trips and the breakers' final states.
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
    def dropped_queries(self) -> int:
        lost = self.elasticity.dropped_queries if self.elasticity else 0
        return self.unavailable + lost

    @property
    def correct(self) -> bool:
        """True when every answer held up against the oracle."""
        return not self.wrong_answers

    @property
    def ok(self) -> bool:
        """Zero wrong answers and zero dropped queries."""
        return self.correct and self.dropped_queries == 0

    @property
    def breakers_recovered(self) -> bool:
        """True when no breaker is still open after the cooldown."""
        return all(state != OPEN for state in self.final_breaker_states.values())

    def deterministic_signature(self) -> Tuple:
        """The portion of a topology run that must be identical across
        repeats and backends: answers, event log, per-batch counters."""
        return (
            tuple(self.signatures),
            tuple(event.as_tuple() for event in self.events),
            tuple(
                (s.batch_index, s.queries, s.communication_units, s.messages)
                for s in self.samples
            ),
        )


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
            started = time.perf_counter()
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
            # Events by the batch position they fire at (0 = boundary).
            cuts: Dict[int, List[Tuple[int, FaultEvent]]] = {}
            due = () if cooldown else [e for e in events if e.batch_index == index]
            for ordinal, event in enumerate(due):
                at = 0
                if target.MID_BATCH_KILLS and event.kind == "kill" and event.offset:
                    at = min(event.offset, len(batch))
                cuts.setdefault(at, []).append((ordinal, event))
            start = 0
            for at in sorted(set(cuts) | {len(batch)}):
                if at > start:
                    _serve(target, oracle, batch[start:at], report, index, cooldown)
                    start = at
                for ordinal, event in cuts.get(at, ()):
                    report.events.append(
                        _inject(target, plan, event, ordinal, len(batch) - at)
                    )
            wall = time.perf_counter() - started
            report.samples.append(target.end_batch(index, len(batch), wall))
        target.finish(report)
    finally:
        target.close()
    report.recoveries = _score_recoveries(report)
    return report


def _serve(
    target,
    oracle: Oracle,
    queries: Sequence[KSPQuery],
    report: ChaosReport,
    index: int,
    cooldown: bool,
) -> None:
    """Run one segment of a batch and score its answers."""
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
        report.signatures.append(answer.signature())
        wrong = oracle.check(answer)
        if wrong is not None:
            wrong["window"] = index
            report.wrong_answers.append(wrong)
    if cooldown:
        report.cooldown_unavailable += len(queries) - answered


def _inject(
    target,
    plan: FaultPlan,
    event: FaultEvent,
    ordinal: int,
    upcoming: int,
) -> ChaosEvent:
    """Apply one fault event to the target and log how it landed.

    The victim rule: ``event.worker_id`` when that worker is alive, else
    a draw over the sorted live set from the event's own
    ``plan.victim_rng(batch, ordinal)``.  The last live worker is never
    killed — the kill is logged as skipped.
    """
    alive = target.alive()
    applied, moved = True, 0
    if event.kind == "join":
        joined = target.join()
        applied = joined is not None
        victim, moved = joined if applied else (-1, 0)
    else:
        victim = event.worker_id
        if victim not in alive:
            victim = alive[plan.victim_rng(event.batch_index, ordinal).randrange(len(alive))]
        if event.kind != "kill":
            getattr(target, event.kind)(victim, event)
        elif len(alive) > 1:
            moved = target.kill(victim, event, upcoming)
        else:
            applied = False
    return ChaosEvent(
        batch_index=event.batch_index,
        kind=event.kind,
        worker_id=victim,
        applied=applied,
        subgraphs_moved=moved,
        offset=event.offset,
        workers_alive=len(target.alive()),
        ordinal=ordinal,
    )


def _score_recoveries(report: ChaosReport) -> List[RecoverySample]:
    """Score time-to-recover for every applied fault event.

    Baseline qps is the median over the clean batches before the first
    fault (falling back to the overall median when a plan starts faulting
    immediately)."""
    applied = [event for event in report.events if event.applied]
    samples = report.samples
    if not applied or not samples:
        return []
    qps = [sample.qps for sample in samples]
    first_fault = min(event.batch_index for event in applied)
    clean = qps[:first_fault]
    baseline = statistics.median(clean if clean else qps)
    threshold = RECOVERY_FRACTION * baseline
    recoveries = []
    for event in applied:
        index = event.batch_index
        recovered_at = next(
            (probe for probe in range(index + 1, len(qps)) if qps[probe] >= threshold),
            None,
        )
        window_end = recovered_at if recovered_at is not None else len(qps)
        recoveries.append(
            RecoverySample(
                kind=event.kind,
                batch_index=index,
                worker_id=event.worker_id,
                recovered=recovered_at is not None,
                recovery_batches=(
                    recovered_at - index if recovered_at is not None else -1
                ),
                recovery_seconds=sum(s.wall_seconds for s in samples[index:window_end]),
                qps_baseline=baseline,
                qps_dip=min(qps[index:window_end] or [qps[index]]),
                qps_recovered=(
                    qps[recovered_at] if recovered_at is not None else qps[-1]
                ),
            )
        )
    return recoveries
