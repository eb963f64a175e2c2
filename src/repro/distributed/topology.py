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
rebalance/autoscale loops and their statistics, and the trace session.

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
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.dtlp import DTLP
from ..core.ksp_dg import SearchMode
from ..exec import Executor, ReplicaSet, resolve_executor
from ..graph.errors import ClusterError
from ..graph.graph import WeightUpdate
from ..obs.trace import Span, TraceSession
from ..workloads.queries import KSPQuery
from .autoscale import AutoscaleConfig, Autoscaler, resolve_autoscale
from .bolts import QueryBolt, QueryBoltResult, SubgraphBolt
from .cluster import SimulatedCluster
from .placement import Placement
from .rebalance import (
    ElasticityStats,
    LoadReport,
    MigrationPlan,
    Move,
    RebalanceConfig,
    Rebalancer,
    collect_subgraph_loads,
    plan_join,
    resolve_rebalance,
)
from .runtime import (
    LogicalTopology,
    QueryEnvelope,
    TopologyBundle,
    build_topology_replica,
)

__all__ = ["TopologyReport", "JoinReport", "StormTopology"]


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
    rebalance:
        Load-adaptive placement (see :mod:`repro.distributed.rebalance`):
        ``None``/``False`` keeps the deployment-time placement fixed (the
        paper's behaviour, and the default); ``True`` enables the skew
        trigger with defaults; a number sets the imbalance threshold; a
        :class:`~repro.distributed.rebalance.RebalanceConfig` sets
        everything.  When enabled the topology folds each completed
        batch's per-subgraph load telemetry into a rolling profile and —
        at the configured cadence — migrates subgraphs live to rebalance
        the observed (not estimated) load.  Paths and distances are
        placement-independent, so results stay bit-identical across a
        migration; the deterministic ``"tasks"`` metric keeps the
        migrations themselves identical on every execution backend.
    autoscale:
        Saturation-driven pool elasticity (see
        :mod:`repro.distributed.autoscale`): ``None`` (default) keeps the
        worker pool fixed; a number sets the high watermark (rolling tasks
        per worker per batch) above which :meth:`add_worker` runs and
        below a quarter of which the coldest worker is retired;
        ``"HIGH:LOW"`` or an
        :class:`~repro.distributed.autoscale.AutoscaleConfig` set
        everything.  Deterministic under the default ``"tasks"`` metric,
        like rebalancing.
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
        rebalance: Union[None, bool, float, str, RebalanceConfig] = None,
        autoscale: Union[None, bool, int, float, str, AutoscaleConfig] = None,
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
        self._placement = Placement.balanced(dtlp.partition, num_workers)

        # Load-adaptive placement: rolling per-subgraph load aggregation and
        # the skew trigger (None when static placement was requested).
        config = resolve_rebalance(rebalance)
        self._rebalancer: Optional[Rebalancer] = (
            Rebalancer(config) if config is not None else None
        )

        # Pool elasticity: the saturation-driven scale trigger (None keeps
        # the pool size fixed) and the recovery SLO counters every join /
        # failure / retirement folds into.
        autoscale_config = resolve_autoscale(autoscale)
        self._autoscaler: Optional[Autoscaler] = (
            Autoscaler(autoscale_config) if autoscale_config is not None else None
        )
        self.elasticity = ElasticityStats()

        self._logical = LogicalTopology(
            dtlp,
            self._mode,
            self._cluster,
            [
                (f"subgraph-bolt-{worker_id}", worker_id, self._placement.subgraphs_on(worker_id))
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
        """The logical subgraph→worker placement."""
        return self._placement

    @property
    def executor(self) -> Executor:
        """The physical execution backend running query batches."""
        return self._executor

    @property
    def rebalancer(self) -> Optional[Rebalancer]:
        """The load-adaptive placement loop, or ``None`` (static placement)."""
        return self._rebalancer

    @property
    def autoscaler(self) -> Optional[Autoscaler]:
        """The saturation-driven scale loop, or ``None`` (fixed pool)."""
        return self._autoscaler

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
        """Route one batch of weight updates through the topology.

        With rebalancing enabled, the per-subgraph maintenance charges are
        folded into the rolling load profile immediately: they land on the
        cluster *between* batches, where the next batch's metric reset
        would erase them before the post-batch ``observe`` ran — and
        update-driven hotspots (weight churn concentrated on a few
        subgraphs) are exactly the skew the paper's scenario produces.
        """
        if self._rebalancer is None:
            self._logical.spout.submit_weight_updates(updates)
            return
        metric = self._rebalancer.config.metric
        before = collect_subgraph_loads(self._cluster, metric)
        self._logical.spout.submit_weight_updates(updates)
        after = collect_subgraph_loads(self._cluster, metric)
        delta = {
            subgraph_id: amount - before.get(subgraph_id, 0.0)
            for subgraph_id, amount in after.items()
            if amount - before.get(subgraph_id, 0.0) > 0.0
        }
        self._rebalancer.observe_loads(delta)

    def fail_worker(self, worker_id: int) -> int:
        """Simulate the failure of one worker and reassign its subgraphs.

        Storm restarts failed executors on the remaining workers; because
        every worker already holds a replica of the skeleton graph and the
        subgraph adjacency lists live in the shared graph store, recovery
        amounts to re-hosting the failed worker's SubgraphBolts (and their
        first-level indexes) elsewhere.  The failed worker's QueryBolts stop
        receiving new queries.

        Recovery reuses the live migration path
        (:func:`~repro.distributed.rebalance.apply_moves` with
        ``transfer_state=False`` — the dead worker cannot ship state, so
        survivors rebuild the indexes from the shared graph store and only
        memory is charged on the gainers).  On the process backend the
        resident replicas perform the identical surgery in place via one
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
        (:func:`~repro.distributed.rebalance.plan_join`) steals subgraphs
        from the hottest workers onto it — weighted by the rebalancer's
        rolling observed loads when available, by vertex counts otherwise,
        always deterministically.  Without a partition store the stolen
        subgraphs' state ships from their previous hosts (peer transfer in
        vertex units); with one (:mod:`repro.store`) the joiner cold-starts
        from the partition files and only the catch-up weight delta since
        the store was saved crosses the wire — O(load), the PR-8 path.

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
            self._join_weights(),
            grown,
            self._load_metric(),
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
        under the rolling observed loads (highest id on ties, so recent
        joiners retire first).  Returns the number of subgraphs migrated
        off the retiree.
        """
        started = time.perf_counter()
        alive = self.alive_workers()
        if len(alive) <= 1:
            raise ClusterError("cannot retire the only remaining worker")
        weights = self._join_weights()
        load = LoadReport.from_loads(
            weights, self._live_placement(), self._load_metric(), workers=alive
        )
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
        identical call in one broadcast instead of a respawn.  The logical
        placement is then re-read from the live bolts.  Returns the number
        of subgraphs migrated.
        """
        migrated = getattr(self._logical, operation)(*plan)
        self._placement = self._live_placement()
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

    def _load_metric(self) -> str:
        """Load metric steering join/retire plans (rebalancer's, or tasks)."""
        if self._rebalancer is not None:
            return self._rebalancer.config.metric
        if self._autoscaler is not None:
            return self._autoscaler.config.metric
        return "tasks"

    def _join_weights(self) -> Dict[int, float]:
        """Per-subgraph weights for join/retire planning.

        The rebalancer's rolling observed loads with the vertex-count
        baseline tiebreak when observations exist; plain vertex counts
        otherwise (cold start — the deployment-time estimate).
        """
        baseline = {
            subgraph.subgraph_id: float(subgraph.num_vertices)
            for subgraph in self._dtlp.partition.subgraphs
        }
        observed = self._rebalancer.loads if self._rebalancer is not None else {}
        total = sum(observed.values())
        if total <= 0.0:
            return baseline
        baseline_total = sum(baseline.values()) or 1.0
        tiebreak_scale = total * 1e-3 / baseline_total
        return {
            sid: observed.get(sid, 0.0) + size * tiebreak_scale
            for sid, size in baseline.items()
        }

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

    # ------------------------------------------------------------------
    # load-adaptive placement
    # ------------------------------------------------------------------
    def alive_workers(self) -> List[int]:
        """Worker ids currently hosting SubgraphBolts (failures excluded)."""
        return sorted({bolt.worker_id for bolt in self._logical.subgraph_bolts})

    @property
    def queries_routed(self) -> int:
        """Total queries submitted so far — the deterministic round-robin
        routing cursor (identical on every backend and in replicas)."""
        return self._route_counter

    def load_report(self, metric: str = "tasks") -> LoadReport:
        """Per-subgraph/per-worker load observed since the last metric reset.

        Batch-scoped by default (``run_queries`` resets the cluster's time
        counters before each batch); the *rolling* profile across batches
        lives on :attr:`rebalancer` when rebalancing is enabled.
        """
        report = LoadReport.collect(
            self._cluster, self._placement, metric, workers=self.alive_workers()
        )
        return replace(
            report,
            workers_joined=self.elasticity.workers_joined,
            workers_lost=self.elasticity.workers_lost,
        )

    def maybe_rebalance(self, force: bool = False) -> Optional[MigrationPlan]:
        """Test the skew trigger and execute a live migration if it fires.

        Requires the topology to have been built with ``rebalance=...``.
        Called automatically after each ``check_every``-th batch; callers
        may also invoke it directly (e.g. the serving layer's maintenance
        loop, or ``force=True`` to rebalance regardless of the threshold).
        Returns the executed plan, or ``None`` when no migration happened.
        """
        if self._rebalancer is None:
            raise ClusterError(
                "topology was built with a static placement; pass "
                "rebalance=... to StormTopology to enable load-adaptive "
                "placement"
            )
        plan = self._rebalancer.maybe_plan(
            self._placement,
            workers=self.alive_workers(),
            force=force,
            # Vertex counts — the deployment-time estimate — spread cold
            # (unobserved) subgraphs by size instead of piling them onto
            # greedy's first tie-break worker.
            baseline={
                subgraph.subgraph_id: float(subgraph.num_vertices)
                for subgraph in self._dtlp.partition.subgraphs
            },
        )
        if plan is None:
            return None
        self._execute_migration(plan)
        # The transfer is charged to the live cluster, but the per-batch
        # metric reset erases it before the next report — the rebalancer
        # keeps the cumulative cost so reports can still surface it.
        self._rebalancer.record_executed(
            plan,
            transfer_units=sum(
                self._dtlp.partition.subgraph(subgraph_id).num_vertices
                for subgraph_id, _, _ in plan.moves
            ),
        )
        return plan

    def _execute_migration(self, plan: MigrationPlan) -> None:
        """Live-migrate subgraphs to the plan's placement, on every backend.

        Runs strictly *between* batches (the only time this is called), so
        there are no in-flight envelopes to drain — the synchronous batch
        protocol is the drain.  The master re-hosts the subgraph ids,
        re-attributes index memory and charges the state transfer as
        communication; resident process replicas perform the identical
        surgery via one ``migrate`` broadcast (the move list is the only
        payload — each replica already holds every subgraph's state).  The
        global ``route_index`` counter is untouched, so query routing —
        and with it the result stream — continues bit-identically across
        the swap.
        """
        self._apply_surgery("migrate", list(plan.moves))
        self._placement = plan.placement

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
        # Load-adaptive placement: fold this batch's per-subgraph telemetry
        # into the rolling profile, then fire the skew trigger if due.  The
        # migration (if any) runs strictly between batches — after this
        # report is frozen, before the next batch — so the swap never races
        # in-flight work and the report reflects the placement that served
        # it.  Only metric-reset batches observe (a reset_metrics=False
        # batch would double-count the preceding one).
        if self._rebalancer is not None and queries and reset_metrics:
            self._rebalancer.observe(self._cluster, self._placement)
            if self._rebalancer.check_due():
                self.maybe_rebalance()
        # Pool elasticity rides the same batch boundary: fold the batch's
        # saturation in, and run the join/retire surgery strictly between
        # batches — deterministic under the "tasks" metric, like the
        # rebalance trigger above.
        if self._autoscaler is not None and queries and reset_metrics:
            loads = collect_subgraph_loads(
                self._cluster, self._autoscaler.config.metric
            )
            alive = self.alive_workers()
            decision = self._autoscaler.observe(sum(loads.values()), len(alive))
            if decision == "up":
                self.add_worker()
                self._autoscaler.record_scaled("up")
            elif decision == "down" and len(alive) > 1:
                self.retire_worker()
                self._autoscaler.record_scaled("down")
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
