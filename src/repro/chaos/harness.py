"""Deterministic fault-injection harness.

The harness replays one pre-generated workload (query micro-batches
interleaved with pre-generated traffic rounds) through a fresh
:class:`~repro.distributed.topology.StormTopology`, injecting the faults
of a :class:`~repro.chaos.plan.FaultPlan` at their pinned batch indices,
and compares every answer against a fault-free **oracle** run of the
identical workload.

Determinism contract
--------------------
For a fixed workload and plan, two runs — on any execution backend —
produce byte-identical:

* answer signatures (vertex tuples + rounded distances, per query),
* fault/recovery event logs (:class:`ChaosEvent` tuples), and
* per-batch deterministic counters (communication units, message counts).

Only wall-clock fields (batch seconds, qps, recovery seconds) vary
between runs; they feed the recovery SLOs, never the correctness checks.
Faults are pinned to batch indices, so "kill worker 2 after query 7 of
batch 3" replays exactly — there is no wall-clock race to win.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.dtlp import DTLP
from ..distributed.rebalance import ElasticityStats
from ..distributed.topology import StormTopology
from ..dynamics.traffic import TrafficModel
from ..graph.graph import WeightUpdate
from ..workloads.queries import KSPQuery, QueryGenerator
from .plan import ChaosError, FaultEvent, FaultPlan

__all__ = [
    "AnswerSignature",
    "BatchSample",
    "ChaosEvent",
    "ChaosHarness",
    "ChaosReport",
    "ChaosRunResult",
    "ChaosWorkload",
    "RecoverySample",
    "generate_chaos_workload",
]

#: One query's answer, reduced to a comparable value: a tuple of
#: ``(path vertices, distance rounded to 9 decimals)`` per returned path.
AnswerSignature = Tuple[Tuple[Tuple[int, ...], float], ...]


@dataclass(frozen=True)
class ChaosWorkload:
    """A replayable workload: query batches plus pre-generated traffic.

    ``updates`` maps a batch index to the weight-update round applied
    *before* that batch.  Updates are pre-generated against the initial
    weights (see :meth:`~repro.dynamics.traffic.TrafficModel.pregenerate`),
    so replaying the workload on a freshly built graph reproduces the
    exact snapshot sequence — the property the oracle comparison needs.
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
    #: is left; a join is skipped at the pool ceiling).
    applied: bool
    subgraphs_moved: int = 0
    offset: Optional[int] = None
    workers_alive: int = 0

    def as_tuple(self) -> Tuple:
        return (
            self.batch_index,
            self.kind,
            self.worker_id,
            self.applied,
            self.subgraphs_moved,
            self.offset,
            self.workers_alive,
        )


@dataclass(frozen=True)
class BatchSample:
    """Per-batch telemetry: deterministic counters + wall-clock timing."""

    batch_index: int
    queries: int
    #: Deterministic (identical across backends and repeats).
    communication_units: int
    messages: int
    #: Wall clock — includes any fault surgery injected during the batch
    #: plus simulated stall/slowdown penalties; feeds qps and SLOs only.
    wall_seconds: float

    @property
    def qps(self) -> float:
        return self.queries / max(self.wall_seconds, 1e-9)


@dataclass(frozen=True)
class RecoverySample:
    """Recovery SLO for one applied fault event.

    The baseline is the median qps of the clean batches before the first
    fault; the system has *recovered* at the first post-fault batch whose
    qps is back above ``recovery_fraction`` of that baseline.
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


@dataclass
class ChaosRunResult:
    """Everything one replay produced (chaos or oracle)."""

    signatures: List[AnswerSignature]
    events: List[ChaosEvent]
    samples: List[BatchSample]
    elasticity: ElasticityStats
    wall_seconds: float

    def deterministic_signature(self) -> Tuple:
        """The portion of the run that must be identical across repeats
        and backends: answers, event log, per-batch counters."""
        return (
            tuple(self.signatures),
            tuple(event.as_tuple() for event in self.events),
            tuple(
                (s.batch_index, s.queries, s.communication_units, s.messages)
                for s in self.samples
            ),
        )


@dataclass
class ChaosReport:
    """Outcome of a chaos run scored against its fault-free oracle."""

    total_queries: int
    wrong_answers: int
    dropped_queries: int
    retried_queries: int
    workers_joined: int
    workers_lost: int
    workers_retired: int
    join_transfer_units: int
    subgraphs_recovered: int
    events: List[ChaosEvent]
    recoveries: List[RecoverySample]
    oracle: ChaosRunResult
    chaos: ChaosRunResult

    @property
    def ok(self) -> bool:
        """Zero wrong answers and zero dropped queries."""
        return self.wrong_answers == 0 and self.dropped_queries == 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "total_queries": self.total_queries,
            "wrong_answers": self.wrong_answers,
            "dropped_queries": self.dropped_queries,
            "retried_queries": self.retried_queries,
            "workers_joined": self.workers_joined,
            "workers_lost": self.workers_lost,
            "workers_retired": self.workers_retired,
            "join_transfer_units": self.join_transfer_units,
            "subgraphs_recovered": self.subgraphs_recovered,
            "events": [list(event.as_tuple()) for event in self.events],
            "recoveries": [
                {
                    "fault": r.kind,
                    "batch_index": r.batch_index,
                    "worker_id": r.worker_id,
                    "recovered": r.recovered,
                    "recovery_batches": r.recovery_batches,
                    "recovery_ms": r.recovery_seconds * 1e3,
                    "qps_baseline": r.qps_baseline,
                    "qps_dip": r.qps_dip,
                    "qps_recovered": r.qps_recovered,
                }
                for r in self.recoveries
            ],
        }


def _signature(result) -> AnswerSignature:
    return tuple(
        (tuple(path.vertices), round(path.distance, 9)) for path in result.paths
    )


class ChaosHarness:
    """Replays a workload under a fault plan and scores it.

    Parameters
    ----------
    builder:
        Zero-argument callable returning a **freshly built**
        :class:`~repro.core.dtlp.DTLP` (graph included).  Called once per
        run, so the chaos run and its oracle each start from the same
        pristine snapshot.
    num_workers, executor, kernel, pruning, rebalance, autoscale,
    store_path:
        Forwarded to :class:`~repro.distributed.topology.StormTopology`
        for the *chaos* run.  The oracle always runs on the serial
        backend with faults and autoscaling disabled — the reference
        answers must not depend on the machinery under test.
    stall_seconds:
        Simulated wall-clock penalty per stalled worker per batch
        (bookkeeping only; pinned to batches, it never perturbs answers).
    recovery_fraction:
        Fraction of the pre-fault baseline qps at which a post-fault
        batch counts as recovered.
    """

    def __init__(
        self,
        builder: Callable[[], DTLP],
        num_workers: int = 4,
        executor: Optional[str] = None,
        kernel: str = "snapshot",
        pruning: bool = True,
        rebalance=None,
        autoscale=None,
        store_path: Optional[str] = None,
        stall_seconds: float = 0.02,
        recovery_fraction: float = 0.7,
    ) -> None:
        if not 0.0 < recovery_fraction <= 1.0:
            raise ChaosError("recovery_fraction must be in (0, 1]")
        self._builder = builder
        self._num_workers = num_workers
        self._executor = executor
        self._kernel = kernel
        self._pruning = pruning
        self._rebalance = rebalance
        self._autoscale = autoscale
        self._store_path = store_path
        self._stall_seconds = stall_seconds
        self._recovery_fraction = recovery_fraction

    # ------------------------------------------------------------------
    # Single replay
    # ------------------------------------------------------------------

    def run(
        self,
        workload: ChaosWorkload,
        plan: Optional[FaultPlan] = None,
        executor: Optional[str] = None,
        autoscale=None,
        _oracle: bool = False,
    ) -> ChaosRunResult:
        """Replay ``workload`` once, injecting ``plan`` (if any)."""
        dtlp = self._builder()
        graph = dtlp.graph
        topology = StormTopology(
            dtlp,
            num_workers=self._num_workers,
            kernel=self._kernel,
            executor=(executor or self._executor),
            pruning=self._pruning,
            rebalance=None if _oracle else self._rebalance,
            autoscale=None if _oracle else (autoscale or self._autoscale),
            store_path=None if _oracle else self._store_path,
        )
        by_batch = plan.by_batch() if plan is not None else {}
        signatures: List[AnswerSignature] = []
        events: List[ChaosEvent] = []
        samples: List[BatchSample] = []
        # Active stall/slow handicaps: worker -> [kind, remaining, factor].
        handicaps: Dict[int, List] = {}
        submitted = 0
        run_started = time.perf_counter()
        try:
            for batch_index, batch in enumerate(workload.batches):
                started = time.perf_counter()
                round_updates = workload.updates.get(batch_index)
                if round_updates:
                    graph.apply_updates(round_updates)
                    topology.submit_weight_updates(round_updates)
                batch_events = by_batch.get(batch_index, ())
                boundary = [e for e in batch_events if not self._is_mid_batch(e)]
                mid = [e for e in batch_events if self._is_mid_batch(e)]
                for ordinal, event in enumerate(batch_events):
                    if event in boundary:
                        events.append(
                            self._inject(
                                topology, plan, event, ordinal, len(batch), handicaps
                            )
                        )
                submitted += self._run_batch(
                    topology,
                    plan,
                    batch,
                    batch_events,
                    mid,
                    signatures,
                    events,
                    handicaps,
                    submitted,
                )
                wall = time.perf_counter() - started
                wall = self._apply_handicaps(wall, handicaps)
                cluster = topology.cluster
                messages = cluster.master.stats.messages_sent + sum(
                    worker.stats.messages_sent for worker in cluster.workers
                )
                samples.append(
                    BatchSample(
                        batch_index=batch_index,
                        queries=len(batch),
                        communication_units=cluster.total_communication_units(),
                        messages=messages,
                        wall_seconds=wall,
                    )
                )
            elasticity = replace(topology.elasticity)
        finally:
            topology.close()
        return ChaosRunResult(
            signatures=signatures,
            events=events,
            samples=samples,
            elasticity=elasticity,
            wall_seconds=time.perf_counter() - run_started,
        )

    @staticmethod
    def _is_mid_batch(event: FaultEvent) -> bool:
        return event.kind == "kill" and event.offset is not None and event.offset > 0

    def _run_batch(
        self,
        topology: StormTopology,
        plan: Optional[FaultPlan],
        batch: Sequence[KSPQuery],
        batch_events: Sequence[FaultEvent],
        mid: List[FaultEvent],
        signatures: List[AnswerSignature],
        events: List[ChaosEvent],
        handicaps: Dict[int, List],
        submitted: int,
    ) -> int:
        """Run one batch, splitting it at mid-batch kill offsets.

        Only the first segment resets the cluster's deterministic batch
        counters, so the batch's sample reads as one unit of work no
        matter how many faults sliced it.
        """
        cuts = sorted(
            {min(e.offset, len(batch)) for e in mid if e.offset is not None}
        )
        segments = []
        start = 0
        for cut in cuts:
            segments.append((start, cut))
            start = cut
        segments.append((start, len(batch)))
        first = True
        for seg_start, seg_end in segments:
            if seg_start > 0:
                remaining = len(batch) - seg_start
                for event in mid:
                    if min(event.offset, len(batch)) == seg_start:
                        ordinal = list(batch_events).index(event)
                        events.append(
                            self._inject(
                                topology,
                                plan,
                                event,
                                ordinal,
                                remaining,
                                handicaps,
                                submitted=submitted + seg_start,
                            )
                        )
            if seg_end > seg_start:
                report = topology.run_queries(
                    list(batch[seg_start:seg_end]), reset_metrics=first
                )
                first = False
                signatures.extend(_signature(r) for r in report.results)
        return len(batch)

    def _inject(
        self,
        topology: StormTopology,
        plan: Optional[FaultPlan],
        event: FaultEvent,
        ordinal: int,
        upcoming_queries: int,
        handicaps: Dict[int, List],
        submitted: Optional[int] = None,
    ) -> ChaosEvent:
        """Apply one fault event to the live topology."""
        assert plan is not None
        alive = topology.alive_workers()
        if event.kind == "join":
            report = topology.add_worker()
            return ChaosEvent(
                batch_index=event.batch_index,
                kind="join",
                worker_id=report.worker_id,
                applied=True,
                subgraphs_moved=report.subgraphs_migrated,
                offset=event.offset,
                workers_alive=len(topology.alive_workers()),
            )
        victim = event.worker_id
        if victim is None or victim not in alive:
            rng = plan.victim_rng(event.batch_index, ordinal)
            victim = sorted(alive)[rng.randrange(len(alive))]
        if event.kind == "kill":
            if len(alive) <= 1:
                return ChaosEvent(
                    batch_index=event.batch_index,
                    kind="kill",
                    worker_id=victim,
                    applied=False,
                    offset=event.offset,
                    workers_alive=len(alive),
                )
            retried = self._count_retried(
                topology, victim, upcoming_queries, submitted
            )
            migrated = topology.fail_worker(victim)
            topology.elasticity.retried_queries += retried
            handicaps.pop(victim, None)
            return ChaosEvent(
                batch_index=event.batch_index,
                kind="kill",
                worker_id=victim,
                applied=True,
                subgraphs_moved=migrated,
                offset=event.offset,
                workers_alive=len(topology.alive_workers()),
            )
        # stall / slow: deterministic-log + wall-clock bookkeeping only.
        handicaps[victim] = [event.kind, event.duration_batches, event.factor]
        return ChaosEvent(
            batch_index=event.batch_index,
            kind=event.kind,
            worker_id=victim,
            applied=True,
            offset=event.offset,
            workers_alive=len(alive),
        )

    def _count_retried(
        self,
        topology: StormTopology,
        victim: int,
        upcoming_queries: int,
        submitted: Optional[int],
    ) -> int:
        """Queries that were bound for the victim's QueryBolt and will be
        re-routed (re-tried) after the failover surgery: the remainder of
        the current batch whose round-robin slot — under the *pre-kill*
        bolt list — lands on the dying worker."""
        bolts = list(topology.query_bolts)
        if not bolts:
            return 0
        base = submitted if submitted is not None else topology.queries_routed
        return sum(
            1
            for offset in range(upcoming_queries)
            if bolts[(base + offset) % len(bolts)].worker_id == victim
        )

    def _apply_handicaps(self, wall: float, handicaps: Dict[int, List]) -> float:
        """Fold active stall/slow penalties into one batch's wall clock."""
        for worker_id in list(handicaps):
            kind, remaining, factor = handicaps[worker_id]
            if kind == "stall":
                wall += self._stall_seconds
            else:
                wall *= factor
            remaining -= 1
            if remaining <= 0:
                del handicaps[worker_id]
            else:
                handicaps[worker_id][1] = remaining
        return wall

    # ------------------------------------------------------------------
    # Scored execution: chaos run vs fault-free oracle
    # ------------------------------------------------------------------

    def execute(
        self, workload: ChaosWorkload, plan: FaultPlan
    ) -> ChaosReport:
        """Run the oracle, run the chaos replay, and score them."""
        oracle = self.run(workload, plan=None, executor="serial", _oracle=True)
        chaos = self.run(workload, plan=plan)
        expected = workload.total_queries
        dropped = expected - len(chaos.signatures)
        wrong = sum(
            1
            for ours, reference in zip(chaos.signatures, oracle.signatures)
            if ours != reference
        )
        recoveries = self._score_recoveries(chaos)
        stats = chaos.elasticity
        return ChaosReport(
            total_queries=expected,
            wrong_answers=wrong,
            dropped_queries=max(dropped, 0) + stats.dropped_queries,
            retried_queries=stats.retried_queries,
            workers_joined=stats.workers_joined,
            workers_lost=stats.workers_lost,
            workers_retired=stats.workers_retired,
            join_transfer_units=stats.join_transfer_units,
            subgraphs_recovered=stats.subgraphs_recovered,
            events=list(chaos.events),
            recoveries=recoveries,
            oracle=oracle,
            chaos=chaos,
        )

    def _score_recoveries(self, chaos: ChaosRunResult) -> List[RecoverySample]:
        """Score time-to-recover for every applied fault event.

        Baseline qps is the median over the clean batches before the
        first fault (falling back to the overall median when a plan
        starts faulting immediately)."""
        applied = [event for event in chaos.events if event.applied]
        if not applied or not chaos.samples:
            return []
        qps = [sample.qps for sample in chaos.samples]
        first_fault = min(event.batch_index for event in applied)
        clean = qps[:first_fault]
        baseline = statistics.median(clean if clean else qps)
        threshold = self._recovery_fraction * baseline
        recoveries = []
        for event in applied:
            index = event.batch_index
            recovered_at = None
            for probe in range(index + 1, len(qps)):
                if qps[probe] >= threshold:
                    recovered_at = probe
                    break
            window_end = recovered_at if recovered_at is not None else len(qps)
            dip = min(qps[index:window_end] or [qps[index]])
            seconds = sum(
                sample.wall_seconds for sample in chaos.samples[index:window_end]
            )
            recoveries.append(
                RecoverySample(
                    kind=event.kind,
                    batch_index=index,
                    worker_id=event.worker_id,
                    recovered=recovered_at is not None,
                    recovery_batches=(
                        recovered_at - index if recovered_at is not None else -1
                    ),
                    recovery_seconds=seconds,
                    qps_baseline=baseline,
                    qps_dip=dip,
                    qps_recovered=(
                        qps[recovered_at] if recovered_at is not None else qps[-1]
                    ),
                )
            )
        return recoveries
