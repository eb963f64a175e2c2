"""Topology assembly: wiring spouts and bolts onto a simulated cluster.

:class:`StormTopology` builds the deployment of Figure 14: one EntranceSpout
on the master, one SubgraphBolt per worker (owning a load-balanced share of
the subgraphs and their first-level DTLP indexes), and one QueryBolt per
worker (each holding a replica of the skeleton graph).  The topology exposes
the two external operations of the system — submitting weight updates and
submitting KSP queries — plus the cost metrics the benchmarks read.

The bolts, the spout and the surgery that re-hosts subgraphs live in one
:class:`~repro.distributed.runtime.LogicalTopology`, the same object every
process replica holds; this class adds what only the master does — planning
(who moves where), the physical executor, the replica broadcasts, the
elasticity statistics, and the trace session.

It separates two layers (``ARCHITECTURE.md``, "Placement vs. Executor"):

* the **logical placement** (:class:`~repro.distributed.placement.Placement`)
  — subgraph→worker assignment, deterministic query routing and cost
  attribution, which define the paper's figures and are identical on every
  backend;
* the **physical executor** (:mod:`repro.exec`) — which OS resource runs
  each query.  ``executor="serial"`` is the reference; ``"process"`` fans a
  batch over persistent worker processes holding resident
  :class:`~repro.distributed.runtime.TopologyReplica` state, shipping only
  weight-update deltas and query envelopes between rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.dtlp import DTLP
from ..core.ksp_dg import SearchMode
from ..exec import Executor, ReplicaSet, resolve_executor
from ..graph.errors import ClusterError
from ..graph.graph import WeightUpdate
from ..obs.trace import Span, TraceSession
from ..workloads.queries import KSPQuery
from .bolts import QueryBolt, QueryBoltResult, SubgraphBolt
from .cluster import SimulatedCluster
from .placement import LoadReport, Move, Placement, plan_join, vertex_loads
from .runtime import (
    LogicalTopology,
    QueryEnvelope,
    TopologyBundle,
    build_topology_replica,
)

__all__ = ["TopologyReport", "ElasticityStats", "JoinReport", "StormTopology"]


@dataclass
class ElasticityStats:
    """Recovery/elasticity SLO counters of one topology.

    Everything here is deterministic across execution backends except
    ``recovery_seconds`` (measured wall clock of the join/fail/retire
    surgeries — an SLO, not a replayable counter), which is why the
    deterministic fields also ride the cluster metrics registry while the
    seconds stay report-only.
    """

    workers_joined: int = 0
    workers_lost: int = 0
    workers_retired: int = 0
    #: Vertex units shipped to joiners (peer transfer) plus catch-up
    #: deltas (store-backed joins), cumulative across joins.
    join_transfer_units: int = 0
    #: Subgraphs re-hosted by failovers, retirements and joins.
    subgraphs_recovered: int = 0
    #: Queries re-routed because their target QueryBolt died before they
    #: were served (the harness's at-least-once retry path).
    retried_queries: int = 0
    #: Queries lost outright; stays zero under the retry policy and is
    #: reported so that "zero" is an asserted fact rather than an absence.
    dropped_queries: int = 0
    #: Wall clock spent inside recovery surgery (join + failover + retire).
    recovery_seconds: float = 0.0

    def fold_into(self, metrics) -> None:
        """Charge the deterministic counters into a metrics registry."""
        metrics.counter(
            "elasticity_workers_joined_total", help="workers added by scale-up"
        ).inc(self.workers_joined)
        metrics.counter(
            "elasticity_workers_lost_total", help="workers lost to failures"
        ).inc(self.workers_lost)
        metrics.counter(
            "elasticity_workers_retired_total", help="workers drained by scale-down"
        ).inc(self.workers_retired)
        metrics.counter(
            "elasticity_join_transfer_units_total",
            help="state units shipped to joining workers",
        ).inc(self.join_transfer_units)
        metrics.counter(
            "elasticity_subgraphs_recovered_total",
            help="subgraphs re-hosted by failover/retire/join surgery",
        ).inc(self.subgraphs_recovered)
        metrics.counter(
            "elasticity_retried_queries_total",
            help="queries re-routed off dead workers",
        ).inc(self.retried_queries)
        metrics.counter(
            "elasticity_dropped_queries_total", help="queries lost to faults"
        ).inc(self.dropped_queries)


@dataclass(frozen=True)
class JoinReport:
    """Outcome of one worker join (:meth:`StormTopology.add_worker`).

    Everything except ``seconds`` (measured surgery wall clock) is
    deterministic for a given topology history.
    """

    worker_id: int
    moves: Tuple[Move, ...]
    subgraphs_migrated: int
    #: Vertex units shipped to the joiner: peer state transfer, or the
    #: catch-up delta length when the join cold-started from the store.
    transfer_units: int
    catchup_updates: int
    from_store: bool
    imbalance_before: float
    imbalance_after: float
    seconds: float


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
    query_bolts_per_worker:
        How many QueryBolts to place on each worker; the paper deploys "one
        or more", and one is sufficient for the simulation because a single
        QueryBolt object can process any number of queries.
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
        query_bolts_per_worker: int = 1,
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
        if query_bolts_per_worker < 1:
            raise ClusterError("query_bolts_per_worker must be at least 1")
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

        # Balanced logical placement of subgraphs onto workers by vertex count.
        placement = Placement.balanced(dtlp.partition, num_workers)

        # The recovery SLO counters every join / failure / retirement folds
        # into.
        self.elasticity = ElasticityStats()

        self._logical = LogicalTopology(
            dtlp,
            self._mode,
            self._cluster,
            [
                (f"subgraph-bolt-{worker_id}", worker_id, placement.subgraphs_on(worker_id))
                for worker_id in range(num_workers)
            ],
            [
                (f"query-bolt-{worker_id}-{replica}", worker_id)
                for worker_id in range(num_workers)
                for replica in range(query_bolts_per_worker)
            ],
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def cluster(self) -> SimulatedCluster:
        """The simulated cluster hosting the topology."""
        return self._cluster

    @property
    def dtlp(self) -> DTLP:
        """The DTLP index served by the topology."""
        return self._dtlp

    @property
    def kernel(self) -> str:
        """Compute kernel used by the bolts (``"snapshot"`` or ``"dict"``)."""
        return self._mode.kernel

    @property
    def pruning(self) -> bool:
        """Whether bound pruning and cross-query reuse are active."""
        return self._mode.pruning

    @property
    def placement(self) -> Placement:
        """The logical subgraph→worker placement, read from the live bolts."""
        return self._live_placement()

    @property
    def executor(self) -> Executor:
        """The physical execution backend running query batches."""
        return self._executor

    @property
    def tracer(self) -> Optional[TraceSession]:
        """The owned span-trace session, or ``None``."""
        return self._tracer

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
    def submit_weight_updates(self, updates: Sequence[WeightUpdate]) -> None:
        """Route one batch of weight updates through the topology."""
        self._logical.spout.submit_weight_updates(updates)

    def fail_worker(self, worker_id: int) -> int:
        """Simulate the failure of one worker and reassign its subgraphs.

        Storm restarts failed executors on the remaining workers; because
        every worker already holds a replica of the skeleton graph and the
        subgraph adjacency lists live in the shared graph store, recovery
        amounts to re-hosting the failed worker's SubgraphBolts (and their
        first-level indexes) elsewhere.  The failed worker's QueryBolts stop
        receiving new queries.

        Recovery re-hosts through the same move surgery as a join or a
        retirement, with no state transfer: the dead worker cannot ship
        state, so survivors rebuild the indexes from the shared graph store
        and only memory is charged on the gainers.  On the process backend
        the resident replicas perform the identical surgery in place via one
        broadcast instead of being discarded and respawned.

        Returns the number of subgraphs that were migrated.  Raises
        :class:`~repro.graph.errors.ClusterError` when the id is unknown or
        when it is the only worker left.
        """
        started = time.perf_counter()
        if worker_id < 0 or worker_id >= self._cluster.num_workers:
            raise ClusterError(f"no worker with id {worker_id}")
        # Greedy re-hosting, least-loaded survivor first (subgraph-count
        # load, the seed policy).
        counts = {
            bolt.worker_id: float(len(bolt.subgraph_ids))
            for bolt in self._logical.subgraph_bolts
            if bolt.worker_id != worker_id
        }
        if not counts:
            raise ClusterError("cannot fail the only remaining worker")
        moves = self._drain_plan(worker_id, counts, lambda subgraph_id: 1.0)
        migrated = self._apply_surgery("fail_worker", worker_id, moves)
        self.elasticity.workers_lost += 1
        self.elasticity.subgraphs_recovered += migrated
        self.elasticity.recovery_seconds += time.perf_counter() - started
        return migrated

    # ------------------------------------------------------------------
    # elasticity: scale-up and scale-down
    # ------------------------------------------------------------------
    def add_worker(self) -> JoinReport:
        """Grow the pool by one worker and migrate load onto it, live.

        The inverse of :meth:`fail_worker`: a fresh worker (next dense id)
        gets an empty SubgraphBolt plus a QueryBolt, and the join planner
        (:func:`~repro.distributed.placement.plan_join`) steals subgraphs
        from the hottest workers onto it, weighted by vertex counts (the
        deployment-time estimate), deterministically.  Without a partition
        store the stolen subgraphs' state ships from their previous hosts
        (peer transfer in vertex units); with one (:mod:`repro.store`) the
        joiner cold-starts from the partition files and only the catch-up
        weight delta since the store was saved crosses the wire — O(load).

        Resident process replicas run the same
        :meth:`~repro.distributed.runtime.LogicalTopology.add_worker` with
        the same plan via one broadcast, so routing and the deterministic
        counters stay bit-identical across the join on every backend.
        """
        started = time.perf_counter()
        worker_id = self._cluster.num_workers  # ids are dense
        # Store-backed cold start: the joiner loads partition files from
        # disk and replays only the weight delta accumulated since the
        # store was saved; otherwise peers ship their state.
        catchup = self._store_catchup()
        from_store = catchup is not None
        catchup_updates = len(catchup) if from_store else 0

        grown = self._live_placement(worker_id + 1)
        load = LoadReport.from_loads(
            vertex_loads(self._dtlp.partition),
            grown,
            workers=self.alive_workers() + [worker_id],
        )
        plan = plan_join(load, grown, worker_id)
        moves: Tuple[Move, ...] = plan.moves if plan is not None else ()
        migrated = self._apply_surgery(
            "add_worker", worker_id, list(moves), from_store, catchup_updates
        )
        transfer_units = (
            catchup_updates
            if from_store
            else sum(
                self._dtlp.partition.subgraph(subgraph_id).num_vertices
                for subgraph_id, _, _ in moves
            )
        )
        seconds = time.perf_counter() - started
        self.elasticity.workers_joined += 1
        self.elasticity.subgraphs_recovered += migrated
        self.elasticity.join_transfer_units += transfer_units
        self.elasticity.recovery_seconds += seconds
        return JoinReport(
            worker_id=worker_id,
            moves=moves,
            subgraphs_migrated=migrated,
            transfer_units=transfer_units,
            catchup_updates=catchup_updates,
            from_store=from_store,
            imbalance_before=plan.imbalance_before if plan is not None else 1.0,
            imbalance_after=plan.imbalance_after if plan is not None else 1.0,
            seconds=seconds,
        )

    def retire_worker(self, worker_id: Optional[int] = None) -> int:
        """Drain one worker gracefully and shrink the serving pool.

        The scale-down half of elasticity: unlike :meth:`fail_worker` the
        retiree is alive, so its subgraphs *ship their state* to the
        survivors (peer transfer, ``transfer_state=True``) instead of
        being rebuilt.  ``worker_id`` defaults to the coldest alive worker
        by vertex count (highest id on ties, so recent joiners retire
        first).  Returns the number of subgraphs migrated off the retiree.
        """
        started = time.perf_counter()
        alive = self.alive_workers()
        if len(alive) <= 1:
            raise ClusterError("cannot retire the only remaining worker")
        weights = vertex_loads(self._dtlp.partition)
        load = LoadReport.from_loads(weights, self._live_placement(), workers=alive)
        if worker_id is None:
            worker_id = min(
                alive, key=lambda w: (load.worker_load.get(w, 0.0), -w)
            )
        elif worker_id not in alive:
            raise ClusterError(f"no alive worker with id {worker_id}")
        moves = self._drain_plan(
            worker_id,
            {w: load.worker_load.get(w, 0.0) for w in alive if w != worker_id},
            lambda subgraph_id: weights.get(subgraph_id, 0.0),
        )
        migrated = self._apply_surgery("retire_worker", worker_id, moves)
        self.elasticity.workers_retired += 1
        self.elasticity.subgraphs_recovered += migrated
        self.elasticity.recovery_seconds += time.perf_counter() - started
        return migrated

    def _drain_plan(
        self,
        worker_id: int,
        loads: Dict[int, float],
        weight: Callable[[int], float],
    ) -> List[Move]:
        """Greedy plan emptying ``worker_id`` onto the workers in ``loads``.

        Each of its subgraphs, in id order, goes to the currently
        least-loaded target (lowest id on ties) and adds ``weight`` to it.
        An explicit move list, so the master copy and the process replicas
        execute the same plan.
        """
        moves: List[Move] = []
        for bolt in self._logical.subgraph_bolts:
            if bolt.worker_id != worker_id:
                continue
            for subgraph_id in sorted(bolt.subgraph_ids):
                target = min(loads, key=lambda w: (loads[w], w))
                moves.append((subgraph_id, worker_id, target))
                loads[target] += weight(subgraph_id)
        return moves

    def _apply_surgery(self, operation: str, *plan: object) -> int:
        """Run one placement change on the master copy and on every replica.

        ``operation`` names a :class:`~repro.distributed.runtime.LogicalTopology`
        method and ``plan`` its arguments; resident process replicas get the
        identical call in one broadcast instead of a respawn.  Returns the
        number of subgraphs migrated.
        """
        migrated = getattr(self._logical, operation)(*plan)
        self._replica_set.broadcast(operation, *plan)
        return migrated

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

    def _live_placement(self, num_workers: Optional[int] = None) -> Placement:
        """The live bolt assignment, sized to the cluster unless told otherwise."""
        return Placement(
            num_workers or self._cluster.num_workers,
            {
                subgraph_id: bolt.worker_id
                for bolt in self._logical.subgraph_bolts
                for subgraph_id in bolt.subgraph_ids
            },
        )

    def alive_workers(self) -> List[int]:
        """Worker ids currently hosting SubgraphBolts (failures excluded)."""
        return sorted({bolt.worker_id for bolt in self._logical.subgraph_bolts})

    @property
    def queries_routed(self) -> int:
        """Total queries submitted so far — the deterministic round-robin
        routing cursor (identical on every backend and in replicas)."""
        return self._route_counter

    def run_queries(self, queries: Sequence[KSPQuery], reset_metrics: bool = True) -> TopologyReport:
        """Process a batch of queries and return the aggregate report.

        The batch runs on the topology's execution backend; paths,
        distances and the deterministic cost counters (messages, transfer
        units, task counts) are identical on every backend.

        Parameters
        ----------
        queries:
            The batch of KSP queries.
        reset_metrics:
            When ``True`` (default) the cluster's time counters are reset
            before the batch so the report reflects only this batch.

        An index the graph moved past without it (one that is not
        attached) is caught up first, serially, before any task fans out
        (:meth:`~repro.core.dtlp.DTLP.catch_up`).
        """
        if reset_metrics:
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
        subgraph_bolts, query_bolts = self._logical.specs()
        return TopologyBundle(
            dtlp=self._dtlp if catchup is None else None,
            mode=self._mode,
            num_workers=self._cluster.num_workers,
            subgraph_bolts=subgraph_bolts,
            query_bolts=query_bolts,
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
