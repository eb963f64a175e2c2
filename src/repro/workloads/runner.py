"""Batch query runners for the engines compared in the evaluation.

The paper compares three ways of answering batches of concurrent KSP queries:

* **KSP-DG** on the distributed cluster (the proposal),
* **Yen's algorithm**, centralized, replicated on every server with queries
  spread randomly across servers,
* **FindKSP**, centralized, replicated the same way.

This module defines a small engine protocol (:class:`QueryEngine`) plus
concrete engines for the two centralized baselines (which maintain a
whole-graph kernel snapshot across queries when ``kernel="snapshot"`` —
see ``ARCHITECTURE.md``), and
:class:`BatchRunner`, which executes a batch against an engine and records
both the real wall-clock time and the *simulated parallel time* obtained by
spreading queries over ``num_servers`` servers.  The distributed KSP-DG
engine lives in :mod:`repro.distributed.engine` because it needs the
simulated cluster.

The paper replicates the centralized baselines on every server and spreads
queries across them randomly; the engines model that physically too: built
with ``executor="process"`` (see :mod:`repro.exec`),
:meth:`~_CentralizedEngine.answer_many` fans the batch's independent OD
pairs over the backend.  Process workers hold a resident engine replica —
graph plus kernel snapshot — and receive only weight-update deltas and
query envelopes between batches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Type, Union

from ..algorithms.find_ksp import find_ksp
from ..algorithms.yen import yen_k_shortest_paths
from ..core.ksp_dg import validate_kernel
from ..exec import Executor, ReplicaSet, resolve_executor
from ..graph.errors import PathNotFoundError
from ..graph.graph import DynamicGraph, WeightUpdate
from ..graph.paths import Path
from ..kernel.snapshot import CSRSnapshot
from .queries import KSPQuery

__all__ = [
    "QueryOutcome",
    "BatchReport",
    "QueryEngine",
    "YenEngine",
    "FindKSPEngine",
    "BatchRunner",
]


@dataclass
class QueryOutcome:
    """Result of one query run through an engine.

    ``trace`` carries the query's span tree (:class:`repro.obs.trace.Span`)
    when the engine ran the query under tracing; ``None`` otherwise.
    """

    query: KSPQuery
    paths: List[Path] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    iterations: int = 0
    trace: Optional[object] = None


@dataclass
class BatchReport:
    """Aggregate result of running a batch of queries.

    Attributes
    ----------
    engine_name:
        Human-readable engine label used in benchmark tables.
    outcomes:
        Per-query outcomes in submission order.
    total_cpu_seconds:
        Sum of per-query processing times (single-core work).
    parallel_seconds:
        Simulated makespan when the work is spread over ``num_servers``
        servers: queries are assigned to the least-loaded server greedily,
        which models the paper's "distribute all queries to the adopted
        servers randomly" with ideal balancing.
    num_servers:
        Number of servers assumed for the parallel-time model.
    wall_seconds:
        Measured wall-clock time of the whole batch.  With a concurrent
        engine executor this is the *physical* parallel time, the measured
        counterpart of the modelled ``parallel_seconds``.
    """

    engine_name: str
    outcomes: List[QueryOutcome] = field(default_factory=list)
    total_cpu_seconds: float = 0.0
    parallel_seconds: float = 0.0
    num_servers: int = 1
    wall_seconds: float = 0.0

    @property
    def mean_iterations(self) -> float:
        """Average number of iterations per query (KSP-DG only; 0 otherwise)."""
        if not self.outcomes:
            return 0.0
        return sum(outcome.iterations for outcome in self.outcomes) / len(self.outcomes)


class QueryEngine(Protocol):
    """Protocol every query engine implements."""

    name: str

    def answer(self, query: KSPQuery) -> QueryOutcome:
        """Answer one query, returning the outcome with timing."""
        ...


class _EngineReplica:
    """Resident state of one centralized engine inside an executor worker.

    Built once from a pickled ``(engine class, graph, kernel, prune)``
    bundle;
    afterwards only weight-update deltas (:meth:`sync`) and query envelopes
    (:meth:`answer_many`) cross the process boundary, and the replica's
    kernel snapshot refreshes incrementally off its own graph copy.
    """

    def __init__(
        self,
        bundle: Tuple[Type["_CentralizedEngine"], DynamicGraph, str, bool],
    ) -> None:
        engine_cls, graph, kernel, prune = bundle
        self._graph = graph
        # Pin the inner engine to serial: the replica already *is* the
        # parallelism, and resolving $REPRO_EXECUTOR here would nest
        # executors inside worker processes.
        self._engine = engine_cls(
            graph, kernel=kernel, executor="serial", prune=prune
        )

    def sync(self, updates: Sequence[WeightUpdate]) -> int:
        """Apply a coalesced weight-update delta; returns the new version."""
        updates = list(updates)
        if updates:
            self._graph.apply_updates(updates)
        return self._graph.version

    def answer_many(
        self, envelopes: Sequence[Tuple[int, KSPQuery]]
    ) -> List[Tuple[int, QueryOutcome]]:
        """Answer tagged queries, preserving the tags for reordering."""
        return [(seq, self._engine.answer(query)) for seq, query in envelopes]


def _build_engine_replica(bundle) -> _EngineReplica:
    """Picklable factory used with :meth:`repro.exec.base.Executor.spawn_group`."""
    return _EngineReplica(bundle)


class _CentralizedEngine:
    """Shared plumbing of the centralized baselines (Yen / FindKSP).

    ``kernel="snapshot"`` (the default) maintains one
    :class:`~repro.kernel.snapshot.CSRSnapshot` of the whole graph across
    queries and refreshes it incrementally before each answer — one int
    compare when nothing changed, O(changed edges) after a maintenance
    round; ``kernel="dict"`` answers on the live adjacency dictionaries
    (the reference path, see ``ARCHITECTURE.md``).

    ``executor`` selects the physical backend used by :meth:`answer_many`
    to fan a batch's independent OD pairs out (``"serial"`` — or ``None`` —
    answers inline and is the reference; all backends return identical
    paths and distances).  Engines built with the ``process`` backend
    should be :meth:`close`\\ d to reap their worker processes.
    """

    name = "abstract"

    def __init__(
        self,
        graph: DynamicGraph,
        kernel: str = "snapshot",
        executor: Union[str, Executor, None] = None,
        executor_workers: int = 2,
        prune: bool = True,
    ) -> None:
        self._graph = graph
        self.kernel = validate_kernel(kernel)
        # Upper-bound pruning of the KSP enumeration (bit-identical output;
        # see ARCHITECTURE.md, "Goal-directed search & pruning").  The
        # paper-figure baseline benchmarks pass ``prune=False`` so the
        # KSP-DG-vs-baseline comparisons keep measuring the classical,
        # unpruned competitors the paper evaluated.
        self.prune = prune
        self._snapshot: Optional[CSRSnapshot] = None
        self._executor, self._owns_executor = resolve_executor(
            executor, workers=executor_workers
        )
        self._replica_set = ReplicaSet(self._executor, _build_engine_replica, graph)

    def _view(self):
        """The compute view answering the next query (refreshed snapshot or graph)."""
        if self.kernel == "dict":
            return self._graph
        if self._snapshot is None:
            self._snapshot = CSRSnapshot(self._graph)
        else:
            self._snapshot.refresh()
        return self._snapshot

    def answer(self, query: KSPQuery) -> QueryOutcome:  # pragma: no cover - overridden
        raise NotImplementedError

    def answer_many(self, queries: Sequence[KSPQuery]) -> List[QueryOutcome]:
        """Answer a batch, fanning independent OD pairs over the executor.

        Queries within one batch are independent and observe one graph
        version (the serving layer applies maintenance only between
        batches), so they parallelise without coordination.
        """
        queries = list(queries)
        if self._executor.name == "process" and queries:
            return self._answer_on_replicas(queries)
        return [self.answer(query) for query in queries]

    def _answer_on_replicas(self, queries: Sequence[KSPQuery]) -> List[QueryOutcome]:
        group = self._replica_set.ensure(
            lambda: (type(self), self._graph, self.kernel, self.prune)
        )
        shards: Dict[int, List[Tuple[int, KSPQuery]]] = {}
        for seq, query in enumerate(queries):
            shards.setdefault(seq % group.num_slots, []).append((seq, query))
        replies = group.call_each(
            [(slot, "answer_many", (envelopes,)) for slot, envelopes in shards.items()]
        )
        tagged = [item for reply in replies for item in reply]
        tagged.sort(key=lambda item: item[0])
        return [outcome for _, outcome in tagged]

    def healthy(self) -> bool:
        """Whether the engine's execution backend can answer queries.

        Delegates to the executor's liveness check (a process backend with
        a dead worker reports ``False``); consumed by the front door's
        replica health tracking.
        """
        return self._executor.healthy()

    def close(self) -> None:
        """Release executor resources (idempotent)."""
        self._replica_set.discard()
        if self._owns_executor:
            self._executor.close()


class YenEngine(_CentralizedEngine):
    """Centralized Yen's algorithm baseline."""

    name = "Yen"

    def answer(self, query: KSPQuery) -> QueryOutcome:
        """Answer one query with Yen's algorithm on the full graph."""
        started = time.perf_counter()
        try:
            paths = yen_k_shortest_paths(
                self._view(), query.source, query.target, query.k,
                prune=self.prune,
            )
        except PathNotFoundError:
            paths = []
        elapsed = time.perf_counter() - started
        return QueryOutcome(query=query, paths=paths, elapsed_seconds=elapsed)


class FindKSPEngine(_CentralizedEngine):
    """Centralized FindKSP baseline (SPT-guided deviations)."""

    name = "FindKSP"

    def answer(self, query: KSPQuery) -> QueryOutcome:
        """Answer one query with the FindKSP strategy on the full graph."""
        started = time.perf_counter()
        try:
            paths = find_ksp(
                self._view(), query.source, query.target, query.k,
                prune=self.prune,
            )
        except PathNotFoundError:
            paths = []
        elapsed = time.perf_counter() - started
        return QueryOutcome(query=query, paths=paths, elapsed_seconds=elapsed)


class BatchRunner:
    """Run query batches against an engine and model multi-server execution.

    Parameters
    ----------
    engine:
        Any object satisfying :class:`QueryEngine`.
    num_servers:
        Number of servers the workload is (conceptually) spread over when
        computing the simulated parallel time.
    """

    def __init__(self, engine: QueryEngine, num_servers: int = 1) -> None:
        if num_servers < 1:
            raise ValueError("num_servers must be at least 1")
        self._engine = engine
        self._num_servers = num_servers

    def run(self, queries: Sequence[KSPQuery]) -> BatchReport:
        """Execute every query and compute the aggregate report.

        Engines exposing ``answer_many`` (all in-repo engines) receive the
        whole batch at once so their execution backend can fan the
        independent OD pairs out physically; other engines are driven one
        query at a time.
        """
        report = BatchReport(engine_name=self._engine.name, num_servers=self._num_servers)
        started = time.perf_counter()
        answer_many = getattr(self._engine, "answer_many", None)
        if answer_many is not None:
            report.outcomes = list(answer_many(list(queries)))
        else:
            report.outcomes = [self._engine.answer(query) for query in queries]
        report.wall_seconds = time.perf_counter() - started
        report.total_cpu_seconds = sum(
            outcome.elapsed_seconds for outcome in report.outcomes
        )
        report.parallel_seconds = self._parallel_makespan(
            [outcome.elapsed_seconds for outcome in report.outcomes]
        )
        return report

    def _parallel_makespan(self, durations: Sequence[float]) -> float:
        """Greedy longest-processing-time assignment of queries to servers."""
        loads = [0.0] * self._num_servers
        for duration in sorted(durations, reverse=True):
            loads[loads.index(min(loads))] += duration
        return max(loads) if loads else 0.0
