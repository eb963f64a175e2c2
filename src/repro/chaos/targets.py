"""The two targets of :func:`~repro.chaos.harness.run_chaos`: a live
topology and an HTTP front door over service replicas."""

from __future__ import annotations

import time
from dataclasses import asdict, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..distributed.topology import StormTopology
from ..frontdoor.client import ClientResult
from ..frontdoor.loadtest import push_queries
from ..frontdoor.replicas import ServiceReplica
from ..frontdoor.server import start_front_door
from ..graph.graph import DynamicGraph, WeightUpdate
from ..workloads.queries import KSPQuery
from .harness import Answer, BatchSample, ChaosReport
from .plan import FaultEvent

__all__ = ["FrontDoorTarget", "TopologyTarget"]

#: Simulated wall clock a stalled topology worker adds to each batch.
STALL_SECONDS = 0.02


class TopologyTarget:
    """A live :class:`StormTopology` on any execution backend.

    It keeps what only a topology has: workers die mid-batch (a ``kill``
    with an ``offset``), the queries routed to a dying QueryBolt are
    counted as retried, elasticity/autoscale/store wiring is the
    topology's own, and every batch reports its deterministic counters.
    Stalls and slowdowns are simulated wall clock — a stalled worker adds
    :data:`STALL_SECONDS` per batch, a slowed one multiplies the batch's
    wall clock — bookkeeping only, pinned to batches, never perturbing
    answers.
    """

    MID_BATCH_KILLS = True

    def __init__(self, topology: StormTopology) -> None:
        self.graph = topology.dtlp.graph
        self._topology = topology
        # Active stall/slow handicaps: worker -> [kind, remaining, factor].
        self._handicaps: Dict[int, List] = {}
        self._batch_start = True

    def begin_batch(self, index: int, heal: bool) -> None:
        self._batch_start = True

    def alive(self) -> List[int]:
        return self._topology.alive_workers()

    def kill(self, victim: int, event: FaultEvent, upcoming: int) -> int:
        topology = self._topology
        # Queries bound for the victim's QueryBolt are re-routed (retried)
        # after the surgery: the next ``upcoming`` round-robin slots under
        # the *pre-kill* bolt list that land on the dying worker.
        bolts = topology.query_bolts
        base = topology.queries_routed
        retried = sum(
            1
            for offset in range(upcoming)
            if bolts[(base + offset) % len(bolts)].worker_id == victim
        )
        moved = topology.fail_worker(victim)
        topology.elasticity.retried_queries += retried
        self._handicaps.pop(victim, None)
        return moved

    def join(self) -> Optional[Tuple[int, int]]:
        report = self._topology.add_worker()
        return report.worker_id, report.subgraphs_migrated

    def stall(self, victim: int, event: FaultEvent) -> None:
        self._handicaps[victim] = [event.kind, event.duration_batches, event.factor]

    slow = stall

    def apply_round(self, updates: Sequence[WeightUpdate]) -> int:
        self.graph.apply_updates(updates)
        self._topology.submit_weight_updates(updates)
        return self.graph.version

    def run(self, queries: Sequence[KSPQuery]) -> List[Answer]:
        # Only a batch's first segment resets the cluster's counters, so a
        # batch reads as one unit of work however many kills sliced it.
        report = self._topology.run_queries(list(queries), reset_metrics=self._batch_start)
        self._batch_start = False
        version = self.graph.version
        return [
            Answer(
                query.key,
                paths=tuple((tuple(p.vertices), p.distance) for p in result.paths),
                version=version,
            )
            for query, result in zip(queries, report.results)
        ]

    def end_batch(self, index: int, queries: int, wall: float) -> BatchSample:
        for worker_id in list(self._handicaps):
            handicap = self._handicaps[worker_id]
            kind, remaining, factor = handicap
            wall = wall + STALL_SECONDS if kind == "stall" else wall * factor
            if remaining <= 1:
                del self._handicaps[worker_id]
            else:
                handicap[1] = remaining - 1
        cluster = self._topology.cluster
        return BatchSample(
            batch_index=index,
            queries=queries,
            communication_units=cluster.total_communication_units(),
            messages=cluster.master.stats.messages_sent
            + sum(worker.stats.messages_sent for worker in cluster.workers),
            wall_seconds=wall,
        )

    def finish(self, report: ChaosReport) -> None:
        report.elasticity = replace(self._topology.elasticity)
        report.retries = report.elasticity.retried_queries

    def close(self) -> None:
        self._topology.close()

    @staticmethod
    def summary(report: ChaosReport) -> Dict[str, object]:
        """The JSON layout of ``repro chaos --json``."""
        summary: Dict[str, object] = asdict(report.elasticity)
        del summary["recovery_seconds"]
        summary.update(
            total_queries=report.total,
            wrong_answers=len(report.wrong_answers),
            dropped_queries=report.dropped_queries,
            events=[list(event.as_tuple()) for event in report.events],
            recoveries=[asdict(r) for r in report.recoveries],
        )
        for row in summary["recoveries"]:
            row["fault"] = row.pop("kind")
            row["recovery_ms"] = row.pop("recovery_seconds") * 1e3
        return summary


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

    It keeps what only the front door has: ``concurrency`` HTTP clients
    with retries and per-request ``budget_ms`` deadlines, a killed replica
    reviving after ``duration_batches`` windows, cooldown windows that
    open with a healed fleet, and the breakers' trips and final states.
    Replica ids are the victims.
    """

    MID_BATCH_KILLS = False

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

    def _dead(self) -> List[int]:
        return sorted(rid for rid, rep in self._replicas.items() if not rep.alive)

    def begin_batch(self, index: int, heal: bool) -> None:
        self._window = index
        for replica_id in self._revives.pop(index, []):
            self._on_loop(self._replicas[replica_id].revive)
        if heal:
            for replica_id in self._dead():
                self._on_loop(self._replicas[replica_id].revive)
            # Let every open breaker's window elapse so clean traffic can
            # probe half-open breakers shut again.
            breakers = self._handle.server.breakers
            wait = self._on_loop(
                lambda: max((b.retry_after() for b in breakers.values()), default=0.0)
            )
            time.sleep(min(wait, 2.0))

    def alive(self) -> List[int]:
        return sorted(rid for rid, rep in self._replicas.items() if rep.alive)

    def kill(self, victim: int, event: FaultEvent, upcoming: int) -> int:
        self._on_loop(self._replicas[victim].kill)
        self._revives.setdefault(self._window + event.duration_batches, []).append(victim)
        return 0

    def join(self) -> Optional[Tuple[int, int]]:
        """Revive the lowest-id dead replica early (``None`` when all live)."""
        dead = self._dead()
        if not dead:
            return None
        self._on_loop(self._replicas[dead[0]].revive)
        return dead[0], 0

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

    def end_batch(self, index: int, queries: int, wall: float) -> BatchSample:
        return BatchSample(index, queries, 0, 0, wall)

    def finish(self, report: ChaosReport) -> None:
        server = self._handle.server
        report.breaker_trips = server.breaker_trips_total()
        report.final_breaker_states = self._on_loop(
            lambda: {rid: server.breakers[rid].state for rid in sorted(server.breakers)}
        )
        report.retries = sum(
            replica.service.report().retried_submissions
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
