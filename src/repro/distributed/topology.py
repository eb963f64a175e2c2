"""Topology assembly: wiring spouts and bolts onto a simulated cluster.

:class:`StormTopology` builds the deployment of Figure 14: one EntranceSpout
on the master, one SubgraphBolt per worker (owning a load-balanced share of
the subgraphs and their first-level DTLP indexes), and one QueryBolt per
worker (each holding a replica of the skeleton graph).  The topology exposes
one external operation — running a batch of KSP queries — plus the cost
metrics the benchmarks read.  Weight updates do not pass through it: the
graph applies a round and the index hears it once through
:meth:`~repro.core.dtlp.DTLP.handle_updates` — as a graph listener when
attached, through :meth:`~repro.core.dtlp.DTLP.catch_up` at the start of
the next batch otherwise, and through
:meth:`~repro.distributed.runtime.TopologyReplica.sync` in a worker process.

The bolts and the spout live in one
:class:`~repro.distributed.runtime.LogicalTopology`, the same object every
process replica holds; this class adds what only the master does — the
physical executor, the replica group and the trace session.

It separates two layers (``ARCHITECTURE.md``, "Placement vs. Executor"):

* the **logical placement** (:class:`~repro.distributed.placement.Placement`)
  — subgraph→worker assignment, fixed at deployment, deterministic query
  routing and cost attribution, which define the paper's figures and are
  identical on every backend;
* the **physical executor** (:mod:`repro.exec`) — which OS resource runs
  each query.  ``executor="serial"`` is the reference; ``"process"`` fans a
  batch over persistent worker processes holding resident
  :class:`~repro.distributed.runtime.TopologyReplica` state, shipping only
  weight-update deltas and query envelopes between rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.dtlp import DTLP
from ..core.ksp_dg import SearchMode
from ..exec import Executor, ReplicaSet, resolve_executor
from ..graph.errors import ClusterError
from ..graph.graph import WeightUpdate
from ..obs.trace import Span, TraceSession
from ..workloads.queries import KSPQuery
from .bolts import QueryBolt, QueryBoltResult, SubgraphBolt
from .cluster import SimulatedCluster
from .placement import Placement
from .runtime import (
    LogicalTopology,
    QueryEnvelope,
    TopologyBundle,
    build_topology_replica,
)

__all__ = ["TopologyReport", "StormTopology"]


@dataclass
class TopologyReport:
    """Aggregate result of running a query batch on the topology.

    Attributes
    ----------
    results:
        Per-query results in submission order.
    makespan_seconds:
        Simulated parallel completion time (max busy time over nodes).
    total_compute_seconds:
        Total single-core computation across the cluster.
    communication_units:
        Total vertices transferred between distinct nodes.
    load_balance:
        The CPU/memory spread report of the cluster.
    """

    results: List[QueryBoltResult] = field(default_factory=list)
    makespan_seconds: float = 0.0
    total_compute_seconds: float = 0.0
    communication_units: int = 0
    load_balance: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_iterations(self) -> float:
        """Average number of KSP-DG iterations per query."""
        if not self.results:
            return 0.0
        return sum(result.iterations for result in self.results) / len(self.results)


class StormTopology:
    """The simulated Storm deployment of KSP-DG.

    Parameters
    ----------
    dtlp:
        A built DTLP index over the dynamic graph.
    num_workers:
        Number of worker servers (the paper's ``Ns``).
    executor:
        Physical execution backend for query batches: a backend name
        (``"serial"``, ``"process"``), a pre-built
        :class:`~repro.exec.base.Executor` to share, or ``None`` for the
        environment default (``$REPRO_EXECUTOR``, falling back to
        ``serial``).  The logical placement
        and cost attribution are identical on every backend; only the OS
        resources running the work differ.  Topologies built with the
        ``process`` backend should be :meth:`close`\\ d (or used as a
        context manager) to reap the worker processes.
    executor_workers:
        Degree of physical parallelism when ``executor`` is a name;
        defaults to ``num_workers`` so the physical pool mirrors the
        logical cluster.
    tracer:
        A :class:`~repro.obs.trace.TraceSession` to collect per-query span
        trees into (admission → route → bolt work items → kernel searches),
        or ``None`` (default) for no tracing.  Traced batches work on every
        backend: span trees build inside the executing thread/process and
        ride back on the query results.
    kernel_profiling:
        Per-query kernel search counters (settled/relaxed/pruned/heap)
        folded into ``cluster.metrics``.  ``None`` (default) follows the
        tracer — profiling turns on with tracing so traced spans carry
        kernel work; ``True``/``False`` force it independently.

    Examples
    --------
    >>> from repro.graph import road_network
    >>> from repro.core import DTLP, DTLPConfig
    >>> from repro.distributed import StormTopology
    >>> from repro.workloads import QueryGenerator
    >>> graph = road_network(8, 8, seed=5)
    >>> dtlp = DTLP(graph, DTLPConfig(z=12, xi=3)).build()
    >>> topology = StormTopology(dtlp, num_workers=4)
    >>> queries = QueryGenerator(graph, seed=1).generate(5, k=2)
    >>> report = topology.run_queries(queries)
    >>> len(report.results)
    5
    """

    def __init__(
        self,
        dtlp: DTLP,
        num_workers: int = 4,
        kernel: str = "snapshot",
        executor: Union[str, Executor, None] = None,
        executor_workers: Optional[int] = None,
        pruning: bool = True,
        tracer: Optional[TraceSession] = None,
        kernel_profiling: Optional[bool] = None,
        store_path: Optional[str] = None,
    ) -> None:
        if not dtlp.built:
            raise ClusterError("the DTLP index must be built before deploying a topology")
        self._dtlp = dtlp
        # Partition-store directory the index was saved to (or loaded
        # from).  When set, process replicas are spawned from the store's
        # partition files plus a catch-up weight delta instead of a pickled
        # graph + index (see TopologyBundle).
        self._store_path = str(store_path) if store_path is not None else None
        self._mode = SearchMode.validated(kernel, pruning)
        self._cluster = SimulatedCluster(num_workers)
        self._executor, self._owns_executor = resolve_executor(
            executor, workers=executor_workers or num_workers
        )
        # Global query submission counter driving deterministic round-robin
        # QueryBolt routing (identical on every backend and in replicas).
        self._route_counter = 0
        self._tracer = tracer
        # Whether queries run under span tracing.  True when the topology
        # owns a TraceSession; the serving layer instead calls
        # enable_query_traces() to get per-result span trees it collects
        # into its own session.
        self._trace_queries = tracer is not None
        self._kernel_profiling = kernel_profiling
        # Process-backend replicas, spawned lazily on first batch and kept
        # current via weight-update deltas between batches.
        self._replica_set = ReplicaSet(
            self._executor, build_topology_replica, dtlp.graph
        )

        # Balanced logical placement of subgraphs onto workers by vertex
        # count, fixed for the topology's lifetime; the bolt specs are kept
        # because a process replica group is spawned from them.
        placement = Placement.balanced(dtlp.partition, num_workers)
        self._subgraph_specs = [
            (f"subgraph-bolt-{worker_id}", worker_id, placement.subgraphs_on(worker_id))
            for worker_id in range(num_workers)
        ]
        # One QueryBolt per worker: the paper deploys "one or more", and a
        # single QueryBolt object can process any number of queries.
        self._query_specs = [
            (f"query-bolt-{worker_id}-0", worker_id) for worker_id in range(num_workers)
        ]
        self._logical = LogicalTopology(
            dtlp, self._mode, self._cluster, self._subgraph_specs, self._query_specs
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def cluster(self) -> SimulatedCluster:
        """The simulated cluster hosting the topology."""
        return self._cluster

    @property
    def kernel(self) -> str:
        """Compute kernel used by the bolts (``"snapshot"`` or ``"dict"``)."""
        return self._mode.kernel

    @property
    def executor(self) -> Executor:
        """The physical execution backend running query batches."""
        return self._executor

    def enable_query_traces(self) -> None:
        """Run queries under tracing without owning a session.

        Each :class:`~repro.distributed.bolts.QueryBoltResult` then carries
        its span tree on ``result.trace``; the caller (the serving layer)
        grafts the trees into its own :class:`~repro.obs.trace.TraceSession`.
        """
        self._trace_queries = True

    def _observability_flags(self) -> Tuple[bool, bool]:
        """(trace, profile) switches for the next batch."""
        trace = self._trace_queries
        profile = self._kernel_profiling if self._kernel_profiling is not None else trace
        return trace, profile

    @property
    def subgraph_bolts(self) -> Sequence[SubgraphBolt]:
        """The SubgraphBolt components."""
        return tuple(self._logical.subgraph_bolts)

    @property
    def query_bolts(self) -> Sequence[QueryBolt]:
        """The QueryBolt components."""
        return tuple(self._logical.query_bolts)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _store_catchup(self) -> Optional[Tuple[WeightUpdate, ...]]:
        """Weight delta since the attached partition store was saved.

        ``None`` without a store — or with one that no longer matches the
        live graph (e.g. overwritten on disk), so callers fall back to
        shipping state instead of failing.
        """
        if self._store_path is None:
            return None
        from ..store.partition_store import PartitionStore, StoreError

        try:
            store = PartitionStore(self._store_path)
            return tuple(store.stale_updates(self._dtlp.graph))
        except StoreError:
            return None

    def run_queries(self, queries: Sequence[KSPQuery]) -> TopologyReport:
        """Process a batch of queries and return the aggregate report.

        The batch runs on the topology's execution backend; paths,
        distances and the deterministic cost counters (messages, transfer
        units, task counts) are identical on every backend.  The cluster's
        time counters are reset first, so the report reflects only this
        batch.

        An index the graph moved past without it (one that is not
        attached) is caught up first, serially, before any task fans out
        (:meth:`~repro.core.dtlp.DTLP.catch_up`).
        """
        self._cluster.reset_time()
        queries = list(queries)
        if queries:
            self._dtlp.catch_up()
        base = self._route_counter
        trace, profile = self._observability_flags()
        envelopes: List[QueryEnvelope] = [
            (offset, base + offset, query) for offset, query in enumerate(queries)
        ]
        if self._executor.name == "process" and queries:
            tagged = self._run_on_replicas(envelopes, trace, profile)
        else:
            tagged = self._logical.run(envelopes, trace, profile)
        results = [result for _, result in tagged]
        self._route_counter += len(queries)
        if self._tracer is not None and queries:
            # The batch event records logical work only — no backend name,
            # no wall-clock — so exported traces stay byte-identical across
            # execution backends (the acceptance guarantee of repro.obs).
            self._tracer.add_event(
                Span("topology_batch", {"size": len(queries), "base_route": base})
            )
            for offset, result in enumerate(results):
                self._tracer.add_query(base + offset, getattr(result, "trace", None))
        report = TopologyReport(results=results)
        report.makespan_seconds = self._cluster.makespan_seconds()
        report.total_compute_seconds = self._cluster.total_compute_seconds()
        report.communication_units = self._cluster.total_communication_units()
        report.load_balance = self._cluster.load_balance_report()
        return report

    # ------------------------------------------------------------------
    # the process execution backend
    # ------------------------------------------------------------------
    def _make_bundle(self) -> TopologyBundle:
        """Capture the live topology state for replica construction.

        With a usable partition store attached, the bundle ships the store
        *path* and a catch-up weight delta instead of the pickled graph +
        index — each worker cold-starts from the partition files.
        """
        catchup = self._store_catchup()
        return TopologyBundle(
            dtlp=self._dtlp if catchup is None else None,
            mode=self._mode,
            num_workers=self._cluster.num_workers,
            subgraph_bolts=self._subgraph_specs,
            query_bolts=self._query_specs,
            store_path=None if catchup is None else self._store_path,
            catchup=catchup or (),
        )

    def _run_on_replicas(
        self, envelopes: Sequence[QueryEnvelope], trace: bool, profile: bool
    ) -> List[Tuple[int, QueryBoltResult]]:
        """Shard a batch across the resident worker-process replicas.

        The :class:`~repro.exec.replicas.ReplicaSet` spawns the group on
        first use and ships the coalesced weight-update delta before every
        batch, so any number of maintenance rounds between two batches
        costs one broadcast.
        """
        group = self._replica_set.ensure(self._make_bundle)
        shards: Dict[int, List[QueryEnvelope]] = {}
        for envelope in envelopes:
            shards.setdefault(envelope[0] % group.num_slots, []).append(envelope)
        replies = group.call_each(
            [
                (slot, "run_on_ledger", (chunk, trace, profile))
                for slot, chunk in shards.items()
            ]
        )
        tagged: List[Tuple[int, QueryBoltResult]] = []
        for chunk, ledger in replies:
            # One ledger per reply: absorption is purely additive, so the
            # replica pre-merges its chunk's charges instead of shipping a
            # ledger per query.
            self._cluster.absorb(ledger)
            tagged.extend(chunk)
        tagged.sort(key=lambda item: item[0])
        return tagged

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release executor resources (idempotent).

        Closes the replica group and, when the topology created its own
        executor from a backend name, the executor itself.  A shared
        executor passed in by the caller is left running.
        """
        self._replica_set.discard()
        if self._owns_executor:
            self._executor.close()

    def __enter__(self) -> "StormTopology":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
