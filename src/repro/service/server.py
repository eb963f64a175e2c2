"""The long-lived KSP query server.

:class:`KSPService` turns any batch :class:`~repro.workloads.runner.QueryEngine`
(Yen, FindKSP, or the distributed KSP-DG engine) into an online service in
which query traffic and road-network dynamics genuinely interleave:

* queries are admitted through a bounded, coalescing
  :class:`~repro.service.pipeline.RequestPipeline` and answered in
  micro-batches;
* answers are cached in a :class:`~repro.service.cache.ResultCache` that
  the service builds and owns; it listens to the graph's update stream,
  which every weight change passes through, and every applied round
  empties it, so a hit was computed at the current weights;
* a maintenance step applies :class:`~repro.dynamics.traffic.TrafficModel`
  snapshots to the graph between batches — the DTLP index (when attached)
  and the cache are refreshed through the same listener mechanism the
  paper's Algorithm 2 uses;
* every count is recorded, as it happens, into the metrics registry of the
  component that sees it (service, pipeline, cache); :meth:`KSPService.report`
  and :meth:`KSPService.metrics_registry` read those instruments.

Consistency model: updates are applied only *between* micro-batches, so all
queries of a batch observe one graph snapshot (the paper's ``G_curr``), and
every applied round empties the result cache, so a hit was computed at the
weights it is served at (see :mod:`repro.service.cache` for why a round
empties the whole cache).

Engines may answer on the array-backed kernel (``kernel="snapshot"``, the
default) or the dict reference path; the report records which one ran (see
``ARCHITECTURE.md``).  Either way the cache is invalidated by the graph's
update stream, so correctness is kernel-independent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.dtlp import DTLP
from ..dynamics.traffic import TrafficModel
from ..graph.graph import DynamicGraph, WeightUpdate
from ..graph.paths import Path
from ..obs.metrics import Histogram, MetricsRegistry
from ..obs.trace import Span, TraceSession
from ..workloads.queries import KSPQuery
from ..workloads.runner import QueryEngine, QueryOutcome
from .cache import ResultCache
from .errors import ServiceClosedError
from .pipeline import PendingRequest, RequestPipeline

__all__ = ["ServedQuery", "ServiceReport", "KSPService"]

#: Latency reservoir size: percentiles stay exact up to this many serves.
_LATENCY_SAMPLES = 100_000


@dataclass(frozen=True)
class ServedQuery:
    """One answered query as handed back to the caller.

    ``deadline_expired`` marks a *failed* serve: the query's deadline
    budget elapsed while it sat in the admission queue, so ``paths`` is
    empty and the waiter should be answered with a deadline error rather
    than a result.  Expired serves are excluded from latency percentiles —
    they measure abandonment, not service time.
    """

    query: KSPQuery
    paths: List[Path] = field(default_factory=list)
    from_cache: bool = False
    latency_seconds: float = 0.0
    graph_version: int = 0
    deadline_expired: bool = False


@dataclass(frozen=True)
class ServiceReport:
    """Immutable summary of a service's activity since it started.

    Latencies are measured per served query from admission to response, so
    they include queue wait, and cache hits pull the percentiles down —
    exactly the effect the result cache exists to produce.  Retries are
    client retries of previously shed submissions (reported via
    :meth:`KSPService.note_retry`): the pressure absorbed by backoff, while
    ``shed`` is the work actually lost.
    """

    engine_name: str
    kernel: str
    graph_version: int
    queries_served: int
    unique_computations: int
    cache_hits: int
    cache_misses: int
    hit_rate: float
    coalesced: int
    shed: int
    shed_deadline: int
    deadline_expired: int
    retried_submissions: int
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    latency_max_ms: float
    max_queue_depth: int
    mean_queue_depth: float
    maintenance_rounds: int
    updates_applied: int
    maintenance_seconds: float
    cache_invalidations: int
    cache_full_flushes: int

    def as_dict(self) -> Dict[str, Union[int, float, str]]:
        """Ordered mapping used by the CLI table and the benchmarks."""
        return {
            "engine": self.engine_name,
            "kernel": self.kernel,
            "graph version": self.graph_version,
            "queries served": self.queries_served,
            "unique computations": self.unique_computations,
            "cache hits": self.cache_hits,
            "cache misses": self.cache_misses,
            "cache hit rate": round(self.hit_rate, 4),
            "coalesced requests": self.coalesced,
            "shed requests": self.shed,
            "shed (deadline infeasible)": self.shed_deadline,
            "deadline expired in queue": self.deadline_expired,
            "retried submissions": self.retried_submissions,
            "latency p50 (ms)": round(self.latency_p50_ms, 3),
            "latency p90 (ms)": round(self.latency_p90_ms, 3),
            "latency p95 (ms)": round(self.latency_p95_ms, 3),
            "latency p99 (ms)": round(self.latency_p99_ms, 3),
            "latency mean (ms)": round(self.latency_mean_ms, 3),
            "latency max (ms)": round(self.latency_max_ms, 3),
            "max queue depth": self.max_queue_depth,
            "mean queue depth": round(self.mean_queue_depth, 2),
            "maintenance rounds": self.maintenance_rounds,
            "updates applied": self.updates_applied,
            "maintenance time (s)": round(self.maintenance_seconds, 4),
            "cache invalidations": self.cache_invalidations,
            "cache full flushes": self.cache_full_flushes,
        }


class KSPService:
    """Online KSP query server over a dynamic road network.

    Parameters
    ----------
    graph:
        The live dynamic graph.  The service registers a listener on it so
        *any* applied weight update (its own maintenance loop or an external
        writer) empties the result cache.
    engine:
        Any :class:`~repro.workloads.runner.QueryEngine`.  The engine must
        answer against the live graph/index objects so that maintenance is
        visible to subsequent queries.
    owns_engine:
        When ``True``, :meth:`close` also calls the engine's ``close()``
        (if it has one), releasing executor resources such as worker
        processes (see :mod:`repro.exec`).  Pass it when the service is
        the engine's only user; leave the default for shared engines.
    dtlp:
        Optional DTLP index to keep current; it is attached as a graph
        listener (idempotently) so maintenance rounds refresh it.
    traffic:
        Optional traffic model driving :meth:`maintenance_step` when no
        explicit update batch is passed.  Defaults to the paper's
        ``alpha=35%%, tau=30%%`` model.
    enable_cache / cache_capacity:
        The service builds its own :class:`ResultCache` from these; pass
        ``enable_cache=False`` to serve uncached (every query computes).
        Every applied weight round empties the cache.
    queue_capacity / max_batch_size:
        Admission-queue bound and micro-batch size (see
        :class:`RequestPipeline`).
    tracer:
        A :class:`~repro.obs.trace.TraceSession` collecting one span tree
        per admitted query — queue wait, micro-batch, cache lookup, and
        (when the engine supports tracing) the full compute tree down to
        the kernel searches.  Sequence numbers are assigned in admission
        order, so a replayed workload produces a replay-deterministic
        trace.  ``None`` (default) disables tracing.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        engine: QueryEngine,
        *,
        owns_engine: bool = False,
        dtlp: Optional[DTLP] = None,
        traffic: Optional[TrafficModel] = None,
        enable_cache: bool = True,
        cache_capacity: int = 4096,
        queue_capacity: int = 256,
        max_batch_size: int = 16,
        tracer: Optional[TraceSession] = None,
    ) -> None:
        self._graph = graph
        self._engine = engine
        self._owns_engine = owns_engine
        self._dtlp = dtlp
        # Remember whether this service performed the attach so close()
        # detaches exactly what __init__ registered and no more.  An index
        # the caller wired up — via attach() or the direct
        # graph.add_listener(dtlp.handle_updates) idiom — stays theirs.
        self._owns_dtlp_attachment = dtlp is not None and not (
            dtlp.attached or graph.has_listener(dtlp.handle_updates)
        )
        if dtlp is not None:
            dtlp.attach()
        self._traffic = traffic
        self._cache: Optional[ResultCache] = (
            ResultCache(capacity=cache_capacity) if enable_cache else None
        )
        self._pipeline = RequestPipeline(
            capacity=queue_capacity, max_batch_size=max_batch_size
        )
        # Batch-side counts (the replica thread), except retries, which
        # the submitting side notes.  The wall-clock histograms stay out of
        # the registry so its exposition is replay-deterministic.
        self.metrics = MetricsRegistry()
        self.queries_served = self.metrics.counter(
            "service_queries_served_total", help="queries answered incl. cache hits"
        )
        self.unique_computations = self.metrics.counter(
            "service_unique_computations_total", help="batch slots computed by the engine"
        )
        self.maintenance_rounds = self.metrics.counter("service_maintenance_rounds_total")
        self.updates_applied = self.metrics.counter("service_updates_applied_total")
        self.retried_submissions = self.metrics.counter(
            "service_retried_submissions_total",
            help="client retries of previously shed submissions",
        )
        self.latency_ms = Histogram("service_latency_ms", max_samples=_LATENCY_SAMPLES)
        self.maintenance_seconds = Histogram("service_maintenance_seconds")
        self._tracer = tracer
        # Deterministic per-query trace sequence, assigned in admission
        # (batch-slot) order — the span-tree key of the exported trace.
        self._trace_seq = 0
        if tracer is not None:
            enable_tracing = getattr(engine, "enable_tracing", None)
            if enable_tracing is not None:
                enable_tracing()
        self._closed = False
        if self._cache is not None:
            graph.add_listener(self._on_graph_updates)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        """The live graph being served."""
        return self._graph

    @property
    def engine(self) -> QueryEngine:
        """The query engine answering cache misses."""
        return self._engine

    @property
    def cache(self) -> Optional[ResultCache]:
        """The result cache, or ``None`` when serving uncached."""
        return self._cache

    @property
    def pipeline(self) -> RequestPipeline:
        """The admission queue."""
        return self._pipeline

    @property
    def queue_depth(self) -> int:
        """Number of distinct answers currently pending."""
        return self._pipeline.depth

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @property
    def tracer(self) -> Optional[TraceSession]:
        """The span-trace session, or ``None`` when tracing is off."""
        return self._tracer

    def _on_graph_updates(self, updates: Sequence[WeightUpdate]) -> None:
        if self._cache is not None:
            self._cache.invalidate(updates)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(self, query: KSPQuery, deadline: Optional[float] = None) -> bool:
        """Admit one query; returns ``True`` when it coalesced.

        ``deadline`` is an absolute ``time.perf_counter`` instant; when
        given, admission sheds the query up front if the estimated backlog
        wait already exceeds the budget (see
        :meth:`RequestPipeline.submit`).

        Raises :class:`ServiceOverloadedError` when the admission queue is
        full or the deadline is infeasible, and :class:`ServiceClosedError`
        after :meth:`close`.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        return self._pipeline.submit(query, deadline=deadline)

    def note_retry(self) -> None:
        """Record one client retry of a previously shed submission.

        Called by retrying drivers (the replay loop, the HTTP front door)
        so the report can separate *pressure absorbed by backoff* from
        *work lost to shedding*.
        """
        self.retried_submissions.inc()

    def process_batch(self) -> List[ServedQuery]:
        """Answer one micro-batch of pending requests (may be empty).

        Distinct keys are answered in FIFO admission order; coalesced
        duplicates of a key are fanned the same answer.  All answers in the
        batch are computed against the same graph version — maintenance
        only runs between batches.

        Cache hits are resolved inline; the remaining misses are handed to
        the engine as one compute batch, so an engine built on a concurrent
        execution backend (see :mod:`repro.exec`) fans them out physically
        while the admission queue keeps accepting new submissions — the
        pipeline is never locked around the compute.
        """
        version = self._graph.version
        batch_started = time.perf_counter()
        batch = self._pipeline.next_batch()
        # Slots whose deadline lapsed in queue are answered with an empty,
        # expired-flagged serve so waiters get a definitive failure instead
        # of silence; they never reach the engine.
        expired_served: List[ServedQuery] = []
        for expired in self._pipeline.drain_expired():
            expired_served.extend(self._fan_out_expired(expired, version))
        # Hits are fanned out immediately — their latency must reflect
        # queue time, not the compute time of the batch's misses — while a
        # None placeholder holds each miss's slot so the final assembly
        # preserves FIFO admission order.
        answered: List[Optional[List[ServedQuery]]] = []
        misses: List[Tuple[int, PendingRequest]] = []
        for position, pending in enumerate(batch):
            entry = self._cache.get(pending.key) if self._cache is not None else None
            if entry is not None:
                answered.append(
                    self._fan_out(pending, entry.paths, from_cache=True, version=version)
                )
            else:
                answered.append(None)
                misses.append((position, pending))
        outcome_by_position: dict = {}
        if misses:
            outcomes = self._answer_misses([pending for _, pending in misses])
            self.unique_computations.inc(len(misses))
            for (position, pending), outcome in zip(misses, outcomes):
                outcome_by_position[position] = outcome
                if self._cache is not None:
                    self._cache.put(pending.key, outcome.paths)
                answered[position] = self._fan_out(
                    pending, outcome.paths, from_cache=False, version=version
                )
        if self._tracer is not None and batch:
            self._record_batch_trace(batch, outcome_by_position, version)
        if batch:
            # Feed the drain-time EWMA behind deadline admission and the
            # Retry-After hints; empty polls carry no signal.
            self._pipeline.observe_batch_seconds(time.perf_counter() - batch_started)
        results = [served for slot in answered for served in (slot or [])]
        results.extend(expired_served)
        return results

    def _record_batch_trace(
        self,
        batch: Sequence[PendingRequest],
        outcome_by_position: dict,
        version: int,
    ) -> None:
        """Graft one micro-batch's span trees into the trace session.

        Each batch slot (distinct query key) gets one tree rooted at a
        ``service_query`` span carrying the admission-order sequence
        number: queue wait, the micro-batch it rode, the cache lookup and
        — on a miss — the engine's compute tree (down to the kernel spans
        when the engine traces).  The args are all replay-deterministic;
        wall-clock never enters the trace.
        """
        batch_size = len(batch)
        for position, pending in enumerate(batch):
            seq = self._trace_seq
            self._trace_seq += 1
            query = pending.queries[0]
            root = Span(
                "service_query",
                {
                    "seq": seq,
                    "source": query.source,
                    "target": query.target,
                    "k": query.k,
                },
            )
            root.child("queue", waiters=pending.fanout)
            root.child("batch", size=batch_size, graph_version=version)
            outcome = outcome_by_position.get(position)
            root.child("cache", hit=outcome is None)
            if outcome is not None:
                compute = root.child("compute", iterations=outcome.iterations)
                trace = getattr(outcome, "trace", None)
                if trace is not None:
                    compute.children.append(trace)
            self._tracer.add_query(seq, root)
        self._tracer.event(
            "service_batch",
            size=batch_size,
            misses=len(outcome_by_position),
            graph_version=version,
        )

    def _answer_misses(self, misses: Sequence[PendingRequest]) -> List[QueryOutcome]:
        """Compute the batch's distinct cache misses through the engine."""
        queries = [pending.queries[0] for pending in misses]
        answer_many = getattr(self._engine, "answer_many", None)
        if answer_many is not None:
            return list(answer_many(queries))
        return [self._engine.answer(query) for query in queries]

    def _fan_out(
        self,
        pending: PendingRequest,
        paths: List[Path],
        from_cache: bool,
        version: int,
    ) -> List[ServedQuery]:
        """Hand one answered slot back to every coalesced waiter."""
        finished = time.perf_counter()
        latency = max(0.0, finished - pending.enqueued_at)
        results = []
        for query in pending.queries:
            self.queries_served.inc()
            self.latency_ms.observe(latency * 1e3)
            results.append(
                ServedQuery(
                    query=query,
                    paths=list(paths),
                    from_cache=from_cache,
                    latency_seconds=latency,
                    graph_version=version,
                )
            )
        return results

    def _fan_out_expired(
        self, pending: PendingRequest, version: int
    ) -> List[ServedQuery]:
        """Answer an in-queue-expired slot with failure serves.

        Deliberately not counted as served: expired slots measure how
        long callers were willing to wait, not how fast the service
        answered, so they must not drag the latency percentiles.
        """
        return [
            ServedQuery(
                query=query,
                paths=[],
                from_cache=False,
                latency_seconds=0.0,
                graph_version=version,
                deadline_expired=True,
            )
            for query in pending.queries
        ]

    def drain(self) -> List[ServedQuery]:
        """Answer every pending request, batch by batch."""
        served: List[ServedQuery] = []
        while not self._pipeline.empty:
            served.extend(self.process_batch())
        return served

    # ------------------------------------------------------------------
    # maintenance path
    # ------------------------------------------------------------------
    def maintenance_step(
        self, updates: Optional[Sequence[WeightUpdate]] = None
    ) -> List[WeightUpdate]:
        """Apply one round of weight updates between batches.

        ``updates`` defaults to one fresh snapshot from the configured
        traffic model (built lazily with the paper's default parameters
        when the service was constructed without one).  Applying through
        the graph fans the batch out to every listener — the DTLP index
        (Algorithm 2 maintenance) and the cache invalidation — and the
        total wall-clock cost is recorded as maintenance time.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        if updates is None:
            if self._traffic is None:
                self._traffic = TrafficModel(self._graph)
            updates = self._traffic.generate_updates()
        updates = list(updates)
        started = time.perf_counter()
        self._graph.apply_updates(updates)
        elapsed = time.perf_counter() - started
        self.maintenance_rounds.inc()
        self.updates_applied.inc(len(updates))
        self.maintenance_seconds.observe(elapsed)
        if self._tracer is not None:
            self._tracer.event(
                "maintenance",
                updates=len(updates),
                graph_version=self._graph.version,
            )
        return updates

    # ------------------------------------------------------------------
    # reporting and lifecycle
    # ------------------------------------------------------------------
    def metrics_registry(self) -> MetricsRegistry:
        """One merged view of every observability metric the service can see.

        A fresh registry absorbing the engine topology's cluster registry
        (bolt/spout/kernel instruments, already merged deterministically
        across executor ledgers) and the service's, the pipeline's and the
        cache's own registries.
        """
        registry = MetricsRegistry()
        cluster = getattr(getattr(self._engine, "topology", None), "cluster", None)
        for part in (cluster, self, self._pipeline, self._cache):
            if part is not None:
                registry.absorb(part.metrics)
        return registry

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of :meth:`metrics_registry`."""
        return self.metrics_registry().render_prometheus()

    def report(self) -> ServiceReport:
        """Summarise everything served so far as a :class:`ServiceReport`."""
        cache, pipeline, latency = self._cache, self._pipeline, self.latency_ms
        hits, misses, invalidations, flushes = (
            (cache.hits.value, cache.misses.value, cache.invalidations.value,
             cache.full_flushes.value)
            if cache is not None
            else (0, 0, 0, 0)
        )
        submitted = pipeline.submitted.value
        return ServiceReport(
            engine_name=getattr(self._engine, "name", type(self._engine).__name__),
            kernel=getattr(self._engine, "kernel", "dict"),
            graph_version=self._graph.version,
            queries_served=self.queries_served.value,
            unique_computations=self.unique_computations.value,
            cache_hits=hits,
            cache_misses=misses,
            hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            coalesced=pipeline.coalesced.value,
            shed=pipeline.shed.value,
            shed_deadline=pipeline.deadline_rejected.value,
            deadline_expired=pipeline.deadline_expired.value,
            retried_submissions=self.retried_submissions.value,
            latency_p50_ms=latency.quantile(50.0),
            latency_p90_ms=latency.quantile(90.0),
            latency_p95_ms=latency.quantile(95.0),
            latency_p99_ms=latency.quantile(99.0),
            latency_mean_ms=latency.total / latency.count if latency.count else 0.0,
            latency_max_ms=latency.max or 0.0,
            max_queue_depth=pipeline.max_queue_depth.value,
            mean_queue_depth=(
                pipeline.queue_depth_sum.value / submitted if submitted else 0.0
            ),
            maintenance_rounds=self.maintenance_rounds.value,
            updates_applied=self.updates_applied.value,
            maintenance_seconds=self.maintenance_seconds.total,
            cache_invalidations=invalidations,
            cache_full_flushes=flushes,
        )

    def close(self) -> None:
        """Detach from the graph and refuse further traffic (idempotent).

        Removes the cache-invalidation listener and, when the service was
        the one that attached the DTLP index, detaches that too; an index
        the caller had already attached is left registered.  A service
        constructed with ``owns_engine=True`` also closes its engine,
        reaping any executor worker processes.
        """
        if self._closed:
            return
        self._graph.remove_listener(self._on_graph_updates)
        if self._dtlp is not None and self._owns_dtlp_attachment:
            self._dtlp.detach()
        if self._owns_engine:
            engine_close = getattr(self._engine, "close", None)
            if engine_close is not None:
                engine_close()
        self._closed = True

    def __enter__(self) -> "KSPService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
