"""Trace generation and replay for mixed update/query workloads.

The paper's maintenance experiments interleave traffic snapshots with query
batches; this module makes that an explicit, reproducible *trace* — a flat
event sequence of queries and update rounds — and a driver that replays a
trace against a :class:`~repro.service.server.KSPService`:

* :func:`generate_trace` builds a deterministic trace from a graph: update
  rounds (pre-generated with
  :meth:`~repro.dynamics.traffic.TrafficModel.pregenerate`, which is exact
  because the model varies weights around initial values) spread evenly
  through a query stream in which a configurable fraction of queries repeat
  earlier origin/destination pairs — the skewed demand that makes result
  caching pay off in real navigation services.
* :func:`replay` feeds the trace through a service, processing micro-batches
  whenever the queue fills and applying update rounds between batches,
  optionally re-validating every served path against the current weights.

The ``repro replay`` CLI command is a thin wrapper over these two calls.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..dynamics.traffic import TrafficModel
from ..graph.graph import DynamicGraph, WeightUpdate
from ..workloads.queries import KSPQuery, QueryGenerator
from .errors import ServiceOverloadedError
from .server import KSPService, ServedQuery, ServiceReport

__all__ = ["TraceEvent", "generate_trace", "ReplayResult", "replay"]

#: Tolerance when re-validating a served path's distance against current
#: weights; floating-point sums along a path are order-dependent.
_DISTANCE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class TraceEvent:
    """One trace event: either a single query or one update round."""

    kind: str  # "query" | "update"
    query: Optional[KSPQuery] = None
    updates: Tuple[WeightUpdate, ...] = ()

    @staticmethod
    def of_query(query: KSPQuery) -> "TraceEvent":
        """Build a query event."""
        return TraceEvent(kind="query", query=query)

    @staticmethod
    def of_updates(updates: Tuple[WeightUpdate, ...]) -> "TraceEvent":
        """Build an update-round event."""
        return TraceEvent(kind="update", updates=updates)


def generate_trace(
    graph: DynamicGraph,
    num_queries: int,
    update_rounds: int,
    k: int = 2,
    seed: int = 7,
    repeat_fraction: float = 0.5,
    alpha: float = 0.05,
    tau: float = 0.3,
    min_hops: int = 2,
    traffic: Optional[TrafficModel] = None,
) -> List[TraceEvent]:
    """Build a deterministic mixed trace over ``graph``.

    Parameters
    ----------
    num_queries / update_rounds:
        Trace composition; update rounds are spread evenly through the
        query stream.
    repeat_fraction:
        Probability that a query re-asks an earlier ``(source, target)``
        pair (with the same ``k``), modelling skewed real-world demand.
    alpha / tau:
        Traffic-model parameters used when ``traffic`` is not supplied.
        The default ``alpha=5%`` is a serving-friendly churn rate; pass the
        paper's 0.35 for the adversarial setting.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be at least 1")
    if update_rounds < 0:
        raise ValueError("update_rounds must be non-negative")
    if not 0.0 <= repeat_fraction <= 1.0:
        raise ValueError(f"repeat_fraction must be in [0, 1], got {repeat_fraction}")
    rng = random.Random(seed)
    generator = QueryGenerator(graph, seed=seed, min_hops=min_hops)
    model = traffic or TrafficModel(graph, alpha=alpha, tau=tau, seed=seed)
    rounds = model.pregenerate(update_rounds)

    queries: List[KSPQuery] = []
    history: List[Tuple[int, int]] = []
    for query_id in range(num_queries):
        if history and rng.random() < repeat_fraction:
            source, target = rng.choice(history)
            query = KSPQuery(query_id=query_id, source=source, target=target, k=k)
        else:
            query = generator.generate_one(query_id, k)
            history.append((query.source, query.target))
        queries.append(query)

    # Interleave: one update round after every `spacing` queries.
    events: List[TraceEvent] = []
    spacing = max(1, num_queries // (update_rounds + 1)) if update_rounds else num_queries + 1
    next_round = 0
    for index, query in enumerate(queries):
        if next_round < len(rounds) and index > 0 and index % spacing == 0:
            events.append(TraceEvent.of_updates(tuple(rounds[next_round])))
            next_round += 1
        events.append(TraceEvent.of_query(query))
    # Any rounds not yet placed (spacing rounding) land at the tail.
    for round_index in range(next_round, len(rounds)):
        events.append(TraceEvent.of_updates(tuple(rounds[round_index])))
    return events


@dataclass
class ReplayResult:
    """Outcome of replaying a trace through a service."""

    report: ServiceReport
    served: List[ServedQuery] = field(default_factory=list)
    shed_queries: List[KSPQuery] = field(default_factory=list)
    stale_served: int = 0

    @property
    def num_served(self) -> int:
        """Number of queries answered."""
        return len(self.served)

    @property
    def num_shed(self) -> int:
        """Number of queries rejected for overload."""
        return len(self.shed_queries)


def replay(
    service: KSPService,
    trace: List[TraceEvent],
    validate: bool = False,
    max_retries: int = 3,
) -> ReplayResult:
    """Replay ``trace`` against ``service`` and collect the outcome.

    Queries are submitted in trace order; a micro-batch is processed
    whenever the queue reaches the pipeline's batch size, update rounds run
    through :meth:`KSPService.maintenance_step` (after flushing pending
    queries, so a batch never straddles a snapshot).  A shed submission is
    *retried* up to ``max_retries`` times: the driver honors the error's
    ``retry_after`` by draining enough micro-batches to cover it (the
    replay clock is batch-driven, so draining *is* waiting), then
    resubmits and records the retry via :meth:`KSPService.note_retry`.
    Only a query still shed after its retry budget lands in
    ``shed_queries`` — the report thereby separates pressure absorbed by
    backoff (``retried_submissions``) from work actually lost (``shed``).
    Pass ``max_retries=0`` for the old drop-on-first-shed behavior.

    Note that the batch-size pacing is itself a form of backpressure: the
    driver drains before the queue can overflow, so sheds only occur when
    the service is shared with other submitters or its queue was
    pre-loaded — the retry handling here is the driver being a
    well-behaved client of the bounded queue, not the common path.

    With ``validate=True`` every served path is re-priced against the
    graph's current weights immediately on serve; any mismatch beyond
    floating-point tolerance counts as *stale*, and the test suite asserts
    the count is zero.  Re-pricing checks each path's distance only: it
    cannot see an answer whose paths are priced right but are no longer
    the top k, which only a comparison with a fresh whole-graph
    computation shows.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    graph = service.graph
    served_all: List[ServedQuery] = []
    shed_queries: List[KSPQuery] = []
    stale_served = 0

    def handle(served: List[ServedQuery]) -> None:
        nonlocal stale_served
        if validate:
            for answer in served:
                for path in answer.paths:
                    current = graph.path_distance(path.vertices)
                    if abs(current - path.distance) > _DISTANCE_TOLERANCE * max(
                        1.0, abs(current)
                    ):
                        stale_served += 1
                        break
        served_all.extend(served)

    def submit_with_backoff(query: KSPQuery) -> bool:
        """Submit with capped retry-on-shed; returns ``False`` if shed."""
        for attempt in range(max_retries + 1):
            try:
                service.submit(query)
                return True
            except ServiceOverloadedError as exc:
                if attempt >= max_retries:
                    return False
                # The replay clock is batch-driven: draining n batches is
                # the driver's equivalent of sleeping n batch-times, so
                # honor retry_after by draining the batches it spans —
                # capped, like any sane client backoff.
                pipeline = service.pipeline
                batches = math.ceil(exc.retry_after / pipeline.estimated_batch_seconds)
                for _ in range(max(1, min(4, batches))):
                    if service.pipeline.empty:
                        break
                    handle(service.process_batch())
                service.note_retry()
        return False

    batch_trigger = min(service.pipeline.max_batch_size, service.pipeline.capacity)
    for event in trace:
        if event.kind == "update":
            handle(service.drain())
            service.maintenance_step(list(event.updates))
            continue
        assert event.query is not None
        if not submit_with_backoff(event.query):
            shed_queries.append(event.query)
            continue
        if service.queue_depth >= batch_trigger:
            handle(service.process_batch())
    handle(service.drain())
    return ReplayResult(
        report=service.report(),
        served=served_all,
        shed_queries=shed_queries,
        stale_served=stale_served,
    )
