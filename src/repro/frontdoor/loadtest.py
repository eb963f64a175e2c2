"""Load generation against the front door: closed loop and knee.

The load shape is a **closed loop** — N workers, each issuing its next
query only after the previous answer returns.  Offered load adapts to
service speed, so this measures *capacity*: the throughput the system
sustains at a given concurrency.  Sweeping N upward and watching p99 finds
the *saturation knee* — the largest concurrency whose p99 still meets the
SLO, and the qps achieved there (:func:`find_knee`, what ``repro loadtest``
reports).  A closed loop self-throttles past the knee, so these numbers
say nothing about queue collapse under a fixed arrival schedule.

Workers use :class:`~repro.frontdoor.client.FrontDoorClient` (one per
thread), so retries/backoff/deadline discipline are part of the measured
loop — the availability number is what a well-behaved client experiences,
not what a raw socket would see.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..obs.metrics import percentile
from .client import ClientResult, FrontDoorClient
from .retry import RetryPolicy

__all__ = ["LoadtestResult", "find_knee", "push_queries", "run_closed_loop"]

QuerySpec = Tuple[int, int, int]  # (source, target, k)


@dataclass(frozen=True)
class LoadtestResult:
    """Aggregate outcome of one load run at one operating point."""

    mode: str
    concurrency: int
    total: int
    ok: int
    degraded: int
    unavailable: int
    qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    elapsed_seconds: float
    retries: int
    statuses: dict = field(default_factory=dict)

    @property
    def availability(self) -> float:
        """Fraction of requests answered (fresh or degraded)."""
        return (self.ok + self.degraded) / self.total if self.total else 0.0

    def as_row(self) -> dict:
        """Flat summary used by report tables and the ``--json`` reports."""
        return {
            "mode": self.mode,
            "concurrency": self.concurrency,
            "total": self.total,
            "ok": self.ok,
            "degraded": self.degraded,
            "unavailable": self.unavailable,
            "availability": round(self.availability, 4),
            "qps": round(self.qps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "retries": self.retries,
        }


def push_queries(
    url: str,
    queries: Sequence[QuerySpec],
    concurrency: int = 4,
    budget_ms: float = 1_000.0,
    retry_seed: int = 0,
) -> Tuple[List[Tuple[QuerySpec, ClientResult]], int]:
    """Issue ``queries`` from ``concurrency`` synchronous workers.

    Queries are consumed from one shared cursor, so the split across
    workers adapts to per-request latency (a worker stuck on a slow
    replica takes fewer).  Each worker owns one keep-alive client with a
    deterministic per-worker retry seed.  Returns ``(query, result)``
    pairs in completion order and the clients' total retries.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be at least 1")
    cursor_lock = threading.Lock()
    cursor = [0]
    outcomes: List[Tuple[QuerySpec, ClientResult]] = []
    outcome_lock = threading.Lock()
    retries = [0]

    def worker(worker_index: int) -> None:
        client = FrontDoorClient.for_url(
            url,
            retry_policy=RetryPolicy(seed=retry_seed * 1_000 + worker_index),
            default_budget_ms=budget_ms,
        )
        local: List[Tuple[QuerySpec, ClientResult]] = []
        try:
            while True:
                with cursor_lock:
                    index = cursor[0]
                    if index >= len(queries):
                        break
                    cursor[0] = index + 1
                source, target, k = queries[index]
                local.append(
                    (queries[index], client.query(source, target, k, budget_ms=budget_ms))
                )
        finally:
            with outcome_lock:
                outcomes.extend(local)
                retries[0] += client.retries
            client.close()

    threads = [
        threading.Thread(target=worker, args=(index,), daemon=True)
        for index in range(min(concurrency, max(1, len(queries))))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, retries[0]


def run_closed_loop(
    url: str,
    queries: Sequence[QuerySpec],
    concurrency: int = 4,
    budget_ms: float = 1_000.0,
    retry_seed: int = 0,
) -> LoadtestResult:
    """One closed-loop operating point: :func:`push_queries`, aggregated."""
    started = time.perf_counter()
    outcomes, retries = push_queries(url, queries, concurrency, budget_ms, retry_seed)
    elapsed = time.perf_counter() - started
    statuses: dict = {}
    for _, result in outcomes:
        statuses[result.status] = statuses.get(result.status, 0) + 1
    answered = [result for _, result in outcomes if result.ok]
    degraded = sum(1 for result in answered if result.degraded)
    latencies_ms = sorted(result.latency_seconds * 1e3 for result in answered)
    return LoadtestResult(
        mode="closed",
        concurrency=concurrency,
        total=len(outcomes),
        ok=len(answered) - degraded,
        degraded=degraded,
        unavailable=len(outcomes) - len(answered),
        qps=len(answered) / elapsed if elapsed > 0 else 0.0,
        p50_ms=percentile(latencies_ms, 50.0),
        p95_ms=percentile(latencies_ms, 95.0),
        p99_ms=percentile(latencies_ms, 99.0),
        elapsed_seconds=elapsed,
        retries=retries,
        statuses=statuses,
    )


def find_knee(
    url: str,
    queries: Sequence[QuerySpec],
    slo_ms: float,
    budget_ms: float = 1_000.0,
    concurrencies: Sequence[int] = (1, 2, 4, 8, 16),
    retry_seed: int = 0,
) -> Tuple[Optional[LoadtestResult], List[LoadtestResult]]:
    """Sweep closed-loop concurrency upward until p99 violates the SLO.

    Returns ``(knee, all_results)`` where ``knee`` is the highest-qps
    result whose p99 met ``slo_ms`` (``None`` if even concurrency 1
    missed it).  The sweep stops at the first violation — beyond the knee
    every higher concurrency only queues harder.
    """
    results: List[LoadtestResult] = []
    knee: Optional[LoadtestResult] = None
    for concurrency in concurrencies:
        result = run_closed_loop(
            url, queries, concurrency=concurrency, budget_ms=budget_ms,
            retry_seed=retry_seed,
        )
        results.append(result)
        if result.p99_ms <= slo_ms and result.availability == 1.0:
            if knee is None or result.qps > knee.qps:
                knee = result
        else:
            break
    return knee, results
