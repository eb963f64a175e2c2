"""Closed-loop driving of the stack and the end-to-end metrics.

One client, one keep-alive connection, requests issued from the calling
thread: with a single request in flight only one of the server's threads
is ever runnable, so the numbers measure the program and not the GIL or
the scheduler.  The timed window is cut into rounds of
``ROUND_QUERIES`` consecutive requests and every timing metric is a
median over rounds, which shrugs off the second-long slow-downs a shared
host produces (a pooled percentile does not).
"""

from __future__ import annotations

import http.client
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.frontdoor import ClientResult, FrontDoorClient
from repro.graph import WeightUpdate
from repro.workloads import KSPQuery

from . import stack
from .workloads import ROUND_QUERIES, WARMUP_ROUNDS, QueryStream, Workload


@dataclass
class QueryEvent:
    """One query as sent and as answered."""

    seq: int
    query: KSPQuery
    result: ClientResult


@dataclass
class PostEvent:
    """One maintenance post; ``payload`` is ``None`` when it failed."""

    seq: int
    updates: List[WeightUpdate]
    payload: Optional[dict]


@dataclass
class Round:
    """Timings of one round: its wall time (posts included) and the
    client-side latency of each of its queries."""

    wall: float
    latencies: List[float] = field(default_factory=list)


class Session:
    """Drives one workload against one stack and logs every event in order.

    The event log is what the oracle replays afterwards: posts and answers
    interleave exactly as they were sent, so a twin graph that applies the
    logged posts in order is at each answer's ``graph_version``.
    """

    def __init__(
        self,
        workload: Workload,
        client: FrontDoorClient,
        stream: QueryStream,
        traffic,
        tracer=None,
    ) -> None:
        self.workload = workload
        self.client = client
        self.stream = stream
        self.traffic = traffic
        self.events: List[object] = []
        self._span = tracer.client_span if tracer is not None else _no_span

    def _request_id(self) -> str:
        return f"{self.workload.name}:{len(self.events)}"

    def query(self, query: KSPQuery) -> float:
        """Send one query; returns the client-side latency in seconds."""
        with self._span("client.request", self._request_id()):
            result = self.client.query(
                query.source, query.target, k=query.k, budget_ms=stack.DEADLINE_MS
            )
        self.events.append(QueryEvent(len(self.events), query, result))
        return result.latency_seconds

    def post(self, updates: List[WeightUpdate]) -> None:
        """Post one maintenance round to every replica."""
        payload: Optional[dict] = None
        triples = [(update.u, update.v, update.new_weight) for update in updates]
        with self._span("client.maintenance", self._request_id()):
            try:
                payload = self.client.maintenance(triples)
            except (RuntimeError, OSError, http.client.HTTPException):
                payload = None
        self.events.append(PostEvent(len(self.events), updates, payload))

    def round(self) -> Round:
        """One round: inputs are generated first, then everything is timed."""
        cycles = max(1, self.workload.posts_per_round)
        queries = self.stream.take(ROUND_QUERIES)
        snapshots = [
            self.traffic.generate_updates() for _ in range(self.workload.posts_per_round)
        ]
        per_cycle = ROUND_QUERIES // cycles
        outcome = Round(wall=0.0)
        started = time.perf_counter()
        for cycle in range(cycles):
            if snapshots:
                self.post(snapshots[cycle])
            for query in queries[cycle * per_cycle:(cycle + 1) * per_cycle]:
                outcome.latencies.append(self.query(query))
        outcome.wall = time.perf_counter() - started
        return outcome

    def warm_up(self) -> None:
        """Untimed: every pool key once where the pool survives (no posts),
        then ``WARMUP_ROUNDS`` rounds of the workload's own stream."""
        if self.workload.posts_per_round == 0:
            for query in self.stream.pool:
                self.query(query)
        for _ in range(WARMUP_ROUNDS):
            self.round()

    def window(self, seconds: float) -> List[Round]:
        """Rounds for ``seconds``; the round in progress is finished."""
        rounds: List[Round] = []
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            rounds.append(self.round())
        return rounds


def _no_span(name: str, request_id: str):
    return nullcontext()


def latency_p50_ms(rounds: Sequence[Round]) -> float:
    """Median over rounds of the round's median latency."""
    return statistics.median(statistics.median(r.latencies) for r in rounds) * 1e3


def end_to_end(rounds: Sequence[Round], setup_seconds: Sequence[float]) -> Dict[str, float]:
    """The five end-to-end metrics; call right after the timed window so
    ``peak_rss_mb`` excludes the oracle."""
    p90_index = ROUND_QUERIES * 9 // 10 - 1
    return {
        "qps": statistics.median(ROUND_QUERIES / r.wall for r in rounds),
        "latency_p50_ms": latency_p50_ms(rounds),
        "latency_p90_ms": statistics.median(
            sorted(r.latencies)[p90_index] for r in rounds
        ) * 1e3,
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_seconds),
    }
