"""Spans recorded from outside the program, and the per-layer numbers they give.

The benchmark that defines the metrics may not add spans inside ``src/``;
instead :class:`Tracer` wraps *public* methods of the serving path with
timing wrappers and the session opens a ``client.request`` /
``client.maintenance`` span around each call.  A span is name, start, end,
parent and the request id ``<workload>:<seq>``; spans stay in memory and
are written out when the run ends.

Parents are thread-local.  A span opened on a server thread with nothing
open on that thread hangs under the current client span — exact here,
because the one client keeps a single request in flight.

Wrappers are installed before the stack is built and switched on later:
``DTLP.attach`` registers the *bound* ``handle_updates`` as a graph
listener, so a wrapper installed after attach would never be called.
While switched off a wrapper costs one attribute test per call.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import DTLP
from repro.distributed import KSPDGEngine, QueryBolt, SubgraphBolt
from repro.frontdoor import ServiceReplica
from repro.graph import DynamicGraph
from repro.service import KSPService, ResultCache

#: Public methods wrapped, by owner; the span is named ``Owner.method``.
TARGETS: Tuple[Tuple[type, str], ...] = (
    (ServiceReplica, "submit"),
    (ServiceReplica, "serve_batch"),
    (ServiceReplica, "apply_maintenance"),
    (KSPService, "process_batch"),
    (KSPDGEngine, "answer_many"),
    (QueryBolt, "process_query"),
    (SubgraphBolt, "partial_ksps_for_reference"),
    (DynamicGraph, "apply_updates"),
    (DTLP, "handle_updates"),
    (ResultCache, "invalidate"),
)


class Span:
    """One timed interval.  ``items`` is a count taken at the boundary: the
    wrapped call's integer return value (entries ``invalidate`` evicted) or
    the length of a sized one (the batch ``serve_batch`` answered)."""

    __slots__ = ("name", "start", "end", "parent", "request", "thread", "items", "children")

    def __init__(self, name: str, parent: Optional["Span"], request: Optional[str]) -> None:
        self.name = name
        self.parent = parent
        self.request = request
        self.thread = threading.current_thread().name
        self.items: Optional[int] = None
        self.children: List["Span"] = []
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part its children cover (children of one
        parent run on one thread, one after another, so they never overlap)."""
        return self.duration - sum(child.duration for child in self.children)

    def descendants(self, name: str) -> Iterator["Span"]:
        for child in self.children:
            if child.name == name:
                yield child
            yield from child.descendants(name)


class Tracer:
    """Installs the wrappers and collects their spans."""

    def __init__(self) -> None:
        self.enabled = False
        self.roots: List[Span] = []
        self._client: Optional[Span] = None
        self._local = threading.local()
        self._installed: List[Tuple[type, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._client
        span = Span(name, parent, parent.request if parent is not None else None)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        if span.parent is not None:
            span.parent.children.append(span)  # list.append is atomic
        else:
            self.roots.append(span)

    @contextmanager
    def client_span(self, name: str, request_id: str) -> Iterator[None]:
        """The root span of one request, opened by the session."""
        if not self.enabled:
            yield
            return
        span = Span(name, None, request_id)
        self._client = span
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._client = None
            self.roots.append(span)

    # -- wrappers --------------------------------------------------------
    def _wrap(self, owner: type, attribute: str) -> None:
        original = owner.__dict__[attribute]
        name = f"{owner.__name__}.{attribute}"
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
                if isinstance(result, int) and not isinstance(result, bool):
                    span.items = result
                elif isinstance(result, (list, tuple, dict)):
                    span.items = len(result)
                return result
            finally:
                tracer._close(span)

        setattr(owner, attribute, traced)
        self._installed.append((owner, attribute, original))

    def install(self) -> None:
        """Wrap every target (switched off until ``enabled`` is set)."""
        for owner, attribute in TARGETS:
            self._wrap(owner, attribute)

    def uninstall(self) -> None:
        """Put the original methods back."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- output ----------------------------------------------------------
    def requests(self, name: str) -> List[Span]:
        """Finished client spans of one kind, in order."""
        return [span for span in self.roots if span.name == name]

    def dump(self, path) -> int:
        """Write every span as one flat JSON list; returns the span count."""
        flat: List[dict] = []

        def visit(span: Span, parent_id: Optional[int]) -> None:
            span_id = len(flat)
            flat.append(
                {
                    "id": span_id,
                    "parent": parent_id,
                    "name": span.name,
                    "request": span.request,
                    "thread": span.thread,
                    "start": span.start,
                    "end": span.end,
                    "items": span.items,
                }
            )
            for child in span.children:
                visit(child, span_id)

        for root in self.roots:
            visit(root, None)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(flat, handle)
        return len(flat)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def request_breakdown(requests: Sequence[Span]) -> Dict[str, float]:
    """Per-request means, in ms, of where ``client.request`` time went.

    Means, not medians, so the parts add up: ``frontdoor.http_ms`` +
    ``frontdoor.queue_wait_ms`` + submit + the batch equal the mean
    client latency, and the batch splits into the four self times below
    (plus the replica's own few microseconds).
    """
    submit, wait, batch, total = [], [], [], []
    service, distributed, filtering, refining, batch_sizes = [], [], [], [], []
    for request in requests:
        submits = list(request.descendants("ServiceReplica.submit"))
        batches = list(request.descendants("ServiceReplica.serve_batch"))
        total.append(request.duration)
        submit.append(sum(span.duration for span in submits))
        batch.append(sum(span.duration for span in batches))
        wait.append(
            max(0.0, batches[0].start - submits[-1].end) if submits and batches else 0.0
        )
        service.append(
            sum(s.self_time for s in request.descendants("KSPService.process_batch"))
        )
        distributed.append(
            sum(s.self_time for s in request.descendants("KSPDGEngine.answer_many"))
        )
        filtering.append(
            sum(s.self_time for s in request.descendants("QueryBolt.process_query"))
        )
        refining.append(
            sum(
                s.duration
                for s in request.descendants("SubgraphBolt.partial_ksps_for_reference")
            )
        )
        batch_sizes.extend(span.items for span in batches if span.items is not None)
    attributed = sum(submit) + sum(wait) + sum(batch)
    return {
        "frontdoor.queue_wait_ms": _ms(_mean(wait)),
        "frontdoor.http_ms": _ms(_mean(total) - _mean(submit) - _mean(wait) - _mean(batch)),
        "service.self_ms": _ms(_mean(service)),
        "distributed.self_ms": _ms(_mean(distributed)),
        "core.filter_ms": _ms(_mean(filtering)),
        "core.refine_ms": _ms(_mean(refining)),
        "service.mean_batch_size": _mean(batch_sizes),
        "trace.attributed_share": attributed / sum(total) if total else 0.0,
    }


def maintenance_breakdown(rounds: Sequence[Span]) -> Dict[str, float]:
    """Per-round medians, in ms, of one maintenance post and its parts,
    each part summed over the replicas that applied the round."""

    def median_of(values: List[float]) -> float:
        return _ms(statistics.median(values)) if values else 0.0

    return {
        "frontdoor.maintenance_round_ms": median_of([r.duration for r in rounds]),
        "core.maintain_ms": median_of(
            [sum(s.duration for s in r.descendants("DTLP.handle_updates")) for r in rounds]
        ),
        "graph.apply_updates_ms": median_of(
            [sum(s.self_time for s in r.descendants("DynamicGraph.apply_updates")) for r in rounds]
        ),
        "service.invalidate_ms": median_of(
            [sum(s.duration for s in r.descendants("ResultCache.invalidate")) for r in rounds]
        ),
    }
