"""Serving-layer telemetry: latency percentiles and steady-state counters.

The paper's evaluation reports throughput/latency style metrics for the
offline batches; the serving layer needs the online equivalents — latency
percentiles over individual served queries, cache effectiveness, queue
pressure and load shedding.  :class:`ServiceTelemetry` accumulates raw
samples during serving and :class:`ServiceReport` is the immutable summary
handed to callers (and printed by ``repro replay`` / ``repro serve``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

# The percentile/reservoir machinery started here and moved to the shared
# observability layer; re-exported so existing imports keep working.
from ..obs.metrics import ReservoirSampler, percentile

__all__ = ["percentile", "ServiceTelemetry", "ServiceReport"]


@dataclass(frozen=True)
class ServiceReport:
    """Immutable summary of a service's activity since it started.

    Latencies are measured per served query from admission to response, so
    they include queue wait, and cache hits pull the percentiles down —
    exactly the effect the result cache exists to produce.
    """

    engine_name: str
    graph_version: int
    queries_served: int
    unique_computations: int
    cache_hits: int
    cache_misses: int
    hit_rate: float
    coalesced: int
    shed: int
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
    kernel: str = "dict"
    #: Deadline-budget accounting: admissions shed up front as infeasible
    #: within their budget, queued slots whose deadline lapsed before
    #: batching, and client retries of previously shed submissions
    #: (reported via ``KSPService.note_retry`` by the replay driver and
    #: the HTTP front door).  Retries are the pressure absorbed by
    #: backoff; ``shed`` is the work actually lost.
    shed_deadline: int = 0
    deadline_expired: int = 0
    retried_submissions: int = 0
    #: Recovery SLO counters (non-zero only for elastic distributed
    #: engines): pool membership changes since the service started plus
    #: the query-level fault cost — queries re-routed after a worker
    #: loss, queries dropped outright (the chaos harness asserts this
    #: stays 0), and the cumulative wall clock spent in recovery surgery.
    workers_joined: int = 0
    workers_lost: int = 0
    workers_retired: int = 0
    retried_queries: int = 0
    dropped_queries: int = 0
    recovery_seconds: float = 0.0
    #: Prometheus-style text exposition of the engine/cluster metrics
    #: registry at report time ("" when the engine exposes none).  A
    #: multi-line block, so it is deliberately excluded from as_dict().
    metrics: str = ""

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
            "workers joined": self.workers_joined,
            "workers lost": self.workers_lost,
            "workers retired": self.workers_retired,
            "retried queries": self.retried_queries,
            "dropped queries": self.dropped_queries,
            "recovery time (s)": round(self.recovery_seconds, 4),
        }


@dataclass
class ServiceTelemetry:
    """Mutable accumulator behind :class:`ServiceReport`.

    Memory-bounded for long-lived services: queue depth is tracked with
    streaming max/mean counters, and latencies with a fixed-size reservoir
    sample (seeded, so replays stay deterministic) from which percentiles
    are computed; mean and max latency stay exact via running counters.
    """

    max_latency_samples: int = 100_000
    queries_served: int = 0
    #: Client retries of previously shed submissions (``note_retry``).
    retried_submissions: int = 0
    unique_computations: int = 0
    maintenance_rounds: int = 0
    updates_applied: int = 0
    maintenance_seconds: float = 0.0
    latency_sum_seconds: float = 0.0
    latency_max_seconds: float = 0.0
    depth_sum: int = 0
    depth_count: int = 0
    depth_max: int = 0
    _reservoir: ReservoirSampler = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self._reservoir is None:
            self._reservoir = ReservoirSampler(self.max_latency_samples, seed=0)

    @property
    def latency_samples(self) -> List[float]:
        """The latency reservoir (seconds); bit-identical to the pre-move
        inline implementation — same algorithm, same seed."""
        return self._reservoir.samples

    def record_served(self, latency_seconds: float) -> None:
        """Record one served query and its admission-to-response latency."""
        self.queries_served += 1
        self.latency_sum_seconds += latency_seconds
        self.latency_max_seconds = max(self.latency_max_seconds, latency_seconds)
        self._reservoir.add(latency_seconds)

    def record_queue_depth(self, depth: int) -> None:
        """Sample the admission-queue depth (taken at every submit)."""
        self.depth_sum += depth
        self.depth_count += 1
        self.depth_max = max(self.depth_max, depth)

    def record_maintenance(self, num_updates: int, elapsed_seconds: float) -> None:
        """Record one maintenance round (one applied update batch)."""
        self.maintenance_rounds += 1
        self.updates_applied += num_updates
        self.maintenance_seconds += elapsed_seconds

    def build_report(
        self,
        engine_name: str,
        graph_version: int,
        cache_hits: int,
        cache_misses: int,
        hit_rate: float,
        coalesced: int,
        shed: int,
        cache_invalidations: int,
        cache_full_flushes: int,
        kernel: str = "dict",
        shed_deadline: int = 0,
        deadline_expired: int = 0,
        retried_submissions: int = 0,
        workers_joined: int = 0,
        workers_lost: int = 0,
        workers_retired: int = 0,
        retried_queries: int = 0,
        dropped_queries: int = 0,
        recovery_seconds: float = 0.0,
        metrics: str = "",
    ) -> ServiceReport:
        """Freeze the current counters into a :class:`ServiceReport`."""
        # Pre-sorted so the three percentile() calls below don't each
        # re-sort the (up to max_latency_samples-long) reservoir.
        latencies_ms = sorted(latency * 1e3 for latency in self.latency_samples)
        return ServiceReport(
            engine_name=engine_name,
            graph_version=graph_version,
            queries_served=self.queries_served,
            unique_computations=self.unique_computations,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            hit_rate=hit_rate,
            coalesced=coalesced,
            shed=shed,
            latency_p50_ms=percentile(latencies_ms, 50.0),
            latency_p90_ms=percentile(latencies_ms, 90.0),
            latency_p95_ms=percentile(latencies_ms, 95.0),
            latency_p99_ms=percentile(latencies_ms, 99.0),
            latency_mean_ms=(
                self.latency_sum_seconds / self.queries_served * 1e3
                if self.queries_served
                else 0.0
            ),
            latency_max_ms=self.latency_max_seconds * 1e3,
            max_queue_depth=self.depth_max,
            mean_queue_depth=(
                self.depth_sum / self.depth_count if self.depth_count else 0.0
            ),
            maintenance_rounds=self.maintenance_rounds,
            updates_applied=self.updates_applied,
            maintenance_seconds=self.maintenance_seconds,
            cache_invalidations=cache_invalidations,
            cache_full_flushes=cache_full_flushes,
            kernel=kernel,
            shed_deadline=shed_deadline,
            deadline_expired=deadline_expired,
            retried_submissions=retried_submissions,
            workers_joined=workers_joined,
            workers_lost=workers_lost,
            workers_retired=workers_retired,
            retried_queries=retried_queries,
            dropped_queries=dropped_queries,
            recovery_seconds=recovery_seconds,
            metrics=metrics,
        )
