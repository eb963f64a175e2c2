"""The target of :func:`~repro.chaos.harness.run_chaos`: an HTTP front
door over service replicas."""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from ..frontdoor.client import ClientResult
from ..frontdoor.loadtest import push_queries
from ..frontdoor.replicas import ServiceReplica
from ..frontdoor.server import start_front_door
from ..graph.graph import DynamicGraph, WeightUpdate
from ..workloads.queries import KSPQuery
from .harness import Answer, ChaosReport
from .plan import FaultEvent

__all__ = ["FrontDoorTarget"]


def _answer(key: Tuple[int, int, int], result: ClientResult) -> Answer:
    version = result.payload.get(
        "stale_graph_version" if result.degraded else "graph_version", -1
    )
    return Answer(
        key,
        status=result.status,
        paths=tuple((tuple(p["vertices"]), p["distance"]) for p in result.paths),
        version=int(version),
        degraded=result.degraded,
        latency_seconds=result.latency_seconds,
    )


class FrontDoorTarget:
    """An HTTP front door over ``replicas`` (built from ``graph``).

    Traffic comes from ``concurrency`` HTTP clients with retries and
    per-request ``budget_ms`` deadlines; a killed replica revives after
    ``duration_batches`` windows, cooldown windows open with a healed
    fleet, and the report gets the breakers' trips and final states.
    Replica ids are the victims.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        replicas: Sequence[ServiceReplica],
        concurrency: int = 4,
        budget_ms: float = 800.0,
        degraded_mode: bool = True,
    ) -> None:
        self.graph = graph
        self._handle = start_front_door(replicas, degraded_mode=degraded_mode)
        self._replicas = self._handle.server.replicas
        self._concurrency = concurrency
        self._budget_ms = budget_ms
        self._window = 0
        # window index -> replica ids due to auto-revive at that boundary
        self._revives: Dict[int, List[int]] = {}

    def _on_loop(self, fn, *args):
        return self._handle.run_on_loop(fn, *args)

    def begin_batch(self, index: int, heal: bool) -> None:
        self._window = index
        for replica_id in self._revives.pop(index, []):
            self._on_loop(self._replicas[replica_id].revive)
        if heal:
            for _, replica in sorted(self._replicas.items()):
                if not replica.alive:
                    self._on_loop(replica.revive)
            # Let every open breaker's window elapse so clean traffic can
            # probe half-open breakers shut again.
            breakers = self._handle.server.breakers
            wait = self._on_loop(
                lambda: max((b.retry_after() for b in breakers.values()), default=0.0)
            )
            time.sleep(min(wait, 2.0))

    def alive(self) -> List[int]:
        return sorted(rid for rid, rep in self._replicas.items() if rep.alive)

    def kill(self, victim: int, event: FaultEvent) -> None:
        self._on_loop(self._replicas[victim].kill)
        self._revives.setdefault(self._window + event.duration_batches, []).append(victim)

    def stall(self, victim: int, event: FaultEvent) -> None:
        self._on_loop(self._replicas[victim].stall, event.duration_batches)

    def slow(self, victim: int, event: FaultEvent) -> None:
        self._on_loop(self._replicas[victim].slow, event.duration_batches, event.factor)

    def apply_round(self, updates: Sequence[WeightUpdate]) -> int:
        return self._handle.apply_maintenance(updates)

    def run(self, queries: Sequence[KSPQuery]) -> List[Answer]:
        outcomes, _ = push_queries(
            self._handle.url,
            [query.key for query in queries],
            self._concurrency,
            self._budget_ms,
            retry_seed=self._window,
        )
        return [_answer(key, result) for key, result in outcomes]

    def finish(self, report: ChaosReport) -> None:
        server = self._handle.server
        report.breaker_trips = server.breaker_trips_total()
        report.final_breaker_states = self._on_loop(
            lambda: {rid: server.breakers[rid].state for rid in sorted(server.breakers)}
        )
        report.retries = sum(
            replica.service.retried_submissions.value
            for replica in self._replicas.values()
            if not replica.service.closed
        )

    def close(self) -> None:
        self._handle.close()

    @staticmethod
    def summary(report: ChaosReport) -> Dict[str, object]:
        """The ``chaos`` JSON layout of ``repro loadtest`` (wrong answers
        truncated to the first 5)."""
        summary: Dict[str, object] = {
            name: getattr(report, name)
            for name in (
                "windows", "cooldown_windows", "total", "degraded", "unavailable",
                "cooldown_unavailable", "breaker_trips", "breakers_recovered",
                "kills", "maintenance_rounds", "retries",
            )
        }
        summary.update(
            ok=report.fresh,
            availability=round(report.availability, 4),
            wrong_answers=report.wrong_answers[:5],
            wrong_answer_count=len(report.wrong_answers),
            status_counts={str(s): n for s, n in sorted(report.status_counts.items())},
            final_breaker_states={
                str(rid): state
                for rid, state in sorted(report.final_breaker_states.items())
            },
            qps=round(report.qps, 1),
            p99_ms=round(report.p99_ms, 3),
        )
        return summary
