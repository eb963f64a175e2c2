"""Admission queue with request coalescing, micro-batching and deadlines.

The request pipeline models the front door of an online KSP service:

* **bounded admission** — at most ``capacity`` distinct answers may be
  pending at once; submissions beyond that are shed with a typed
  :class:`~repro.service.errors.ServiceOverloadedError` so upstream load
  balancers get an explicit backpressure signal instead of unbounded queue
  growth.  The error carries a computed ``retry_after`` — the estimated
  backlog drain time — so well-behaved clients back off instead of
  hammering a saturated queue;
* **dedup / coalescing** — a query identical to one already in flight
  (same ``(source, target, k)`` key) attaches to the pending slot instead
  of occupying new capacity; the answer is computed once and fanned out to
  every waiter, which is how navigation services survive everyone asking
  for the same stadium-to-station route at once;
* **micro-batching** — the server drains the queue in FIFO batches of at
  most ``max_batch_size`` distinct keys, amortising per-batch costs and
  giving the maintenance loop well-defined points to interleave weight
  updates (queries never observe a weight change mid-batch);
* **deadline budgets** — a submission may carry an absolute deadline
  (``time.perf_counter`` seconds).  Admission *rejects* work the pipeline
  estimates it cannot finish in time (``reason="deadline"``), and batch
  formation *expires* slots whose deadline passed while queued — both are
  cheaper than computing an answer nobody is waiting for.  The estimate is
  an exponentially weighted moving average of observed batch drain times,
  fed back by the server after every processed batch.

The pipeline is thread-safe: an asyncio front door submits from its event
loop while a replica thread drains batches, so the two mutating entry
points (:meth:`submit`, :meth:`next_batch`) serialize on an internal lock.
The lock is never held during compute — only around queue surgery.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..workloads.queries import KSPQuery
from .errors import ServiceOverloadedError

__all__ = ["PendingRequest", "RequestPipeline", "DEFAULT_BATCH_SECONDS"]

QueryKey = Tuple[int, int, int]

#: Batch drain-time estimate used before the first observation.  Small but
#: non-zero: a fresh service optimistically admits everything while the
#: EWMA warms up.
DEFAULT_BATCH_SECONDS = 0.02

#: EWMA smoothing factor for observed batch drain times.
_EWMA_ALPHA = 0.25


class PendingRequest:
    """All in-flight queries waiting on one ``(source, target, k)`` answer."""

    __slots__ = ("key", "queries", "enqueued_at", "deadline")

    def __init__(
        self,
        key: QueryKey,
        query: KSPQuery,
        enqueued_at: float,
        deadline: Optional[float] = None,
    ) -> None:
        self.key = key
        self.queries = [query]
        self.enqueued_at = enqueued_at
        #: Latest deadline among the slot's waiters (``None`` = unbounded).
        #: Max-merged on coalesce: the slot stays worth computing while at
        #: least one waiter can still use the answer.
        self.deadline = deadline

    @property
    def fanout(self) -> int:
        """Number of callers waiting on this answer."""
        return len(self.queries)

    def expired(self, now: float) -> bool:
        """Whether every waiter's deadline has passed."""
        return self.deadline is not None and now >= self.deadline


class RequestPipeline:
    """Bounded FIFO of pending requests with coalescing and deadlines.

    Parameters
    ----------
    capacity:
        Maximum number of *distinct* pending answers.  Coalesced duplicates
        do not consume capacity — they wait on an existing slot.
    max_batch_size:
        Upper bound on the number of distinct keys handed out per
        :meth:`next_batch` call.
    """

    def __init__(self, capacity: int = 256, max_batch_size: int = 16) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        self._capacity = capacity
        self._max_batch_size = max_batch_size
        self._pending: "OrderedDict[QueryKey, PendingRequest]" = OrderedDict()
        self._lock = threading.Lock()
        self._batch_seconds: Optional[float] = None
        #: Slots whose deadline expired while queued, collected by
        #: :meth:`next_batch` and handed to the server via
        #: :meth:`drain_expired` so waiters still get a (failed) response.
        self._expired: List[PendingRequest] = []
        #: Admission counts, written under the lock as they happen.
        #: ``queue_depth_sum`` adds the depth after every admitted submit;
        #: divided by ``submitted`` it is the exact mean queue depth.
        self.metrics = MetricsRegistry()
        self.submitted = self.metrics.counter("service_submitted_total")
        self.coalesced = self.metrics.counter("service_coalesced_total")
        self.shed = self.metrics.counter("service_shed_total")
        self.deadline_rejected = self.metrics.counter(
            "service_shed_deadline_total",
            help="admissions rejected as infeasible within their deadline budget",
        )
        self.deadline_expired = self.metrics.counter(
            "service_deadline_expired_total",
            help="queued slots whose deadline lapsed before batching",
        )
        self.max_queue_depth = self.metrics.gauge(
            "service_max_queue_depth", help="admission-queue high-water mark"
        )
        self.queue_depth_sum = self.metrics.counter(
            "service_queue_depth_sum_total",
            help="admission-queue depth summed over admitted submissions",
        )

    @property
    def capacity(self) -> int:
        """Maximum number of distinct pending answers."""
        return self._capacity

    @property
    def max_batch_size(self) -> int:
        """Maximum distinct keys per micro-batch."""
        return self._max_batch_size

    @property
    def depth(self) -> int:
        """Current number of distinct pending answers."""
        return len(self._pending)

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def empty(self) -> bool:
        """Whether no requests are pending."""
        return not self._pending

    # ------------------------------------------------------------------
    # latency estimation / backpressure hints
    # ------------------------------------------------------------------
    def observe_batch_seconds(self, seconds: float) -> None:
        """Feed one observed batch drain time into the EWMA estimate."""
        seconds = max(0.0, float(seconds))
        if self._batch_seconds is None:
            self._batch_seconds = seconds
        else:
            self._batch_seconds += _EWMA_ALPHA * (seconds - self._batch_seconds)

    @property
    def estimated_batch_seconds(self) -> float:
        """Current EWMA of batch drain time (default before observations)."""
        if self._batch_seconds is None or self._batch_seconds <= 0.0:
            return DEFAULT_BATCH_SECONDS
        return self._batch_seconds

    def estimated_wait_seconds(self, extra_slots: int = 1) -> float:
        """Estimated time until a new submission would be answered.

        Backlog batches ahead of the new slot plus the batch the slot
        itself rides, each costing the EWMA batch time.
        """
        slots = len(self._pending) + max(0, extra_slots)
        batches = -(-slots // self._max_batch_size) if slots else 1
        return batches * self.estimated_batch_seconds

    def retry_after_hint(self) -> float:
        """Suggested client backoff: time to drain the current backlog."""
        backlog_batches = max(1, -(-len(self._pending) // self._max_batch_size))
        return backlog_batches * self.estimated_batch_seconds

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(
        self,
        query: KSPQuery,
        now: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> bool:
        """Admit ``query``; returns ``True`` when it coalesced onto a slot.

        Raises
        ------
        ServiceOverloadedError
            With ``reason="queue_full"`` when the query needs a new slot
            and the queue is at capacity, or ``reason="deadline"`` when a
            ``deadline`` is given and the estimated backlog wait already
            exceeds it.  Both carry a computed ``retry_after``; the shed
            counters are incremented before raising.
        """
        key = query.key
        timestamp = time.perf_counter() if now is None else now
        with self._lock:
            pending = self._pending.get(key)
            if pending is not None:
                pending.queries.append(query)
                # Max-merge keeps the slot alive for the most patient
                # waiter — ``None`` (unbounded) being the longest deadline
                # of all; earlier waiters simply time out on their own
                # clocks.
                if deadline is None:
                    pending.deadline = None
                elif pending.deadline is not None and deadline > pending.deadline:
                    pending.deadline = deadline
                self._admitted()
                self.coalesced.inc()
                return True
            if deadline is not None:
                wait = self.estimated_wait_seconds()
                if timestamp + wait >= deadline:
                    self.deadline_rejected.inc()
                    raise ServiceOverloadedError(
                        key,
                        self._capacity,
                        retry_after=self.retry_after_hint(),
                        reason="deadline",
                    )
            if len(self._pending) >= self._capacity:
                self.shed.inc()
                raise ServiceOverloadedError(
                    key,
                    self._capacity,
                    retry_after=self.retry_after_hint(),
                    reason="queue_full",
                )
            self._pending[key] = PendingRequest(
                key, query, timestamp, deadline=deadline
            )
            self._admitted()
            return False

    def _admitted(self) -> None:
        """Count one admitted submission and sample the queue depth."""
        depth = len(self._pending)
        self.submitted.inc()
        self.queue_depth_sum.inc(depth)
        self.max_queue_depth.set_max(depth)

    def next_batch(self, now: Optional[float] = None) -> List[PendingRequest]:
        """Pop up to ``max_batch_size`` live pending requests in FIFO order.

        Slots whose deadline passed while queued are skipped (they do not
        consume batch capacity), counted in :attr:`deadline_expired`, and
        parked for :meth:`drain_expired` so the server can fan a failure
        out to their waiters.
        """
        timestamp = time.perf_counter() if now is None else now
        batch: List[PendingRequest] = []
        with self._lock:
            while self._pending and len(batch) < self._max_batch_size:
                _, pending = self._pending.popitem(last=False)
                if pending.expired(timestamp):
                    self.deadline_expired.inc()
                    self._expired.append(pending)
                    continue
                batch.append(pending)
        return batch

    def drain_expired(self) -> List[PendingRequest]:
        """Return (and clear) slots that expired in queue since last call."""
        with self._lock:
            expired = self._expired
            self._expired = []
        return expired
