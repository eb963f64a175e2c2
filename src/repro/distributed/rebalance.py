"""Load-adaptive placement: telemetry aggregation and live subgraph migration.

The paper fixes the subgraph→worker placement at deployment time (Section
5.2's greedy balance over *estimated* load, i.e. vertex counts).  Real road
traffic is skewed and drifts — rush-hour hotspots concentrate both queries
and weight updates on a few partitions — so a static assignment goes stale.
This module closes the loop from the cost telemetry the cluster already
collects back into :class:`~repro.distributed.placement.Placement`:

* :class:`LoadReport` aggregates the per-subgraph charges recorded by the
  :class:`~repro.distributed.cluster.SimulatedCluster` (every SubgraphBolt
  operation is attributed to the subgraph it served) into per-worker loads
  under the current placement, and scores the skew as the max/mean
  worker-load ratio.
* :class:`Rebalancer` keeps a *rolling* per-subgraph load (exponential
  decay across micro-batches) and decides when the skew crosses the
  configured :class:`RebalanceConfig` threshold.
* :func:`plan_rebalance` computes the corrective placement: the same
  :func:`~repro.distributed.placement.greedy_balance` the deployment used,
  but cost-weighted by the *observed* subgraph loads instead of the vertex
  counts, emitting the minimal move list (only subgraphs whose owner
  changed migrate).
* :func:`apply_moves` is the migration surgery itself, shared between the
  master topology and the process-backend
  :class:`~repro.distributed.runtime.TopologyReplica` so both sides of the
  pipe perform bit-for-bit the same re-hosting (see ``ARCHITECTURE.md``,
  "Load telemetry & rebalancing").

Determinism: the default load metric is ``"tasks"`` — the count of
subgraph-attributed operations — which is identical on every execution
backend, so a rebalancing topology keeps the repo's cross-backend
bit-identity contract (same placements, same migrations, same counters on
serial and process).  The ``"seconds"`` metric uses measured wall
clock instead; it tracks true hardware cost but makes placement decisions
host-dependent, so it is opt-in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from ..graph.errors import ClusterError
from .placement import Placement, greedy_balance

__all__ = [
    "LOAD_METRICS",
    "RebalanceConfig",
    "resolve_rebalance",
    "default_rebalance_spec",
    "LoadReport",
    "MigrationPlan",
    "ElasticityStats",
    "collect_subgraph_loads",
    "plan_rebalance",
    "plan_join",
    "apply_moves",
    "apply_join",
    "Rebalancer",
]

#: One migration: ``(subgraph_id, source_worker, target_worker)``.
Move = Tuple[int, int, int]

#: Accepted values for :attr:`RebalanceConfig.metric`.
LOAD_METRICS = ("tasks", "seconds")


@dataclass(frozen=True)
class RebalanceConfig:
    """Tuning knobs of the load-adaptive placement loop.

    Attributes
    ----------
    threshold:
        Imbalance trigger: rebalance when the rolling max/mean worker-load
        ratio exceeds this.  ``1.0`` is perfect balance; the default
        ``1.25`` tolerates 25% overload on the hottest worker.
    metric:
        ``"tasks"`` (deterministic operation counts, default — keeps
        placement identical across execution backends) or ``"seconds"``
        (measured wall clock, host-dependent).
    decay:
        Multiplier applied to the rolling per-subgraph loads before each
        new batch is folded in; ``1.0`` accumulates forever, smaller
        values forget old traffic faster (a rolling window).
    check_every:
        Auto-check cadence in micro-batches; the topology tests the
        trigger after every ``check_every``-th observed batch.  ``0``
        disables automatic checks (callers invoke
        :meth:`~repro.distributed.topology.StormTopology.maybe_rebalance`
        themselves).
    min_batches:
        Observations required before the first check, so one unlucky
        micro-batch cannot thrash the placement.
    """

    threshold: float = 1.25
    metric: str = "tasks"
    decay: float = 1.0
    check_every: int = 1
    min_batches: int = 1

    def __post_init__(self) -> None:
        if self.threshold < 1.0:
            raise ClusterError(
                f"rebalance threshold must be >= 1.0, got {self.threshold}"
            )
        if self.metric not in LOAD_METRICS:
            raise ClusterError(
                f"unknown load metric {self.metric!r}; expected one of {LOAD_METRICS}"
            )
        if not 0.0 < self.decay <= 1.0:
            raise ClusterError(f"decay must be in (0, 1], got {self.decay}")
        if self.check_every < 0:
            raise ClusterError("check_every must be >= 0")
        if self.min_batches < 1:
            raise ClusterError("min_batches must be >= 1")


def default_rebalance_spec() -> Optional[str]:
    """Rebalance default from ``$REPRO_REBALANCE``, as a raw spec string.

    Returns ``None`` when the variable is unset or empty; otherwise the
    raw value, to be normalised by :func:`resolve_rebalance` (one parser,
    shared with every API surface): ``"0"``/``"off"``/``"false"`` disable,
    ``"on"``/``"true"`` enable with the default threshold, a number >= 1
    enables with that threshold verbatim.  Mirrors how
    ``$REPRO_EXECUTOR`` provides the backend default.
    """
    return os.environ.get("REPRO_REBALANCE", "").strip() or None


def resolve_rebalance(
    spec: Union[None, bool, float, str, RebalanceConfig],
) -> Optional[RebalanceConfig]:
    """Normalise a user-facing rebalance spec into a config (or ``None``).

    ``None``/``False``/``0`` disable; ``True`` and the words
    ``"on"``/``"true"``/``"yes"``/``"default"`` enable with the default
    threshold; any number >= 1 — numeric or string, ``1.0`` included —
    becomes the threshold verbatim (``1.0`` is the legal hair-trigger
    setting, never remapped); a :class:`RebalanceConfig` passes through.
    The same parser serves the API, the CLI and ``$REPRO_REBALANCE``, so
    every surface agrees on what a given spec means.
    """
    if spec is None or spec is False:
        return None
    if spec is True:
        return RebalanceConfig()
    if isinstance(spec, RebalanceConfig):
        return spec
    if isinstance(spec, str):
        lowered = spec.strip().lower()
        if lowered in ("", "off", "false", "no"):
            return None
        if lowered in ("on", "true", "yes", "default"):
            return RebalanceConfig()
        try:
            number = float(lowered)
        except ValueError:
            raise ClusterError(
                f"cannot parse rebalance spec {spec!r}; expected on/off or a "
                "threshold >= 1.0"
            ) from None
        return resolve_rebalance(number)
    if isinstance(spec, (int, float)):
        if spec == 0:
            return None
        return RebalanceConfig(threshold=float(spec))
    raise ClusterError(f"cannot resolve rebalance spec from {spec!r}")


def collect_subgraph_loads(cluster, metric: str = "tasks") -> Dict[int, float]:
    """Sum the per-subgraph charges across every worker of one cluster.

    ``cluster`` is anything exposing the
    :class:`~repro.distributed.cluster.SimulatedCluster` worker/stats
    surface.  A subgraph's charges may be spread over several workers'
    stats after a migration — load follows the subgraph, not the host.
    """
    if metric not in LOAD_METRICS:
        raise ClusterError(
            f"unknown load metric {metric!r}; expected one of {LOAD_METRICS}"
        )
    subgraph_load: Dict[int, float] = {}
    for worker in cluster.workers:
        source = (
            worker.stats.subgraph_tasks
            if metric == "tasks"
            else worker.stats.subgraph_seconds
        )
        for subgraph_id, amount in source.items():
            subgraph_load[subgraph_id] = subgraph_load.get(subgraph_id, 0.0) + float(
                amount
            )
    return subgraph_load


@dataclass(frozen=True)
class LoadReport:
    """Observed subgraph loads aggregated under one placement.

    Attributes
    ----------
    workers:
        The worker ids the loads were aggregated over — all workers of the
        placement by default, or the surviving subset after failures (dead
        workers must neither receive migrated subgraphs nor skew the mean).
    metric:
        Which charge stream was aggregated (``"tasks"`` or ``"seconds"``).
    subgraph_load:
        Observed load per subgraph id (the unit follows ``metric``).
    worker_load:
        Sum of the owned subgraphs' loads per worker id; every worker in
        ``workers`` appears, including idle ones.
    """

    workers: Tuple[int, ...]
    metric: str
    subgraph_load: Dict[int, float] = field(default_factory=dict)
    worker_load: Dict[int, float] = field(default_factory=dict)
    #: Elasticity context of the topology the report was taken from:
    #: workers that joined (scale-up) and were lost (failures) since
    #: deployment.  Zero for reports built outside a topology.
    workers_joined: int = 0
    workers_lost: int = 0

    @classmethod
    def collect(
        cls,
        cluster,
        placement: Placement,
        metric: str = "tasks",
        workers: Optional[Sequence[int]] = None,
    ) -> "LoadReport":
        """Aggregate one cluster's per-subgraph charges under ``placement``.

        ``cluster`` is anything exposing the
        :class:`~repro.distributed.cluster.SimulatedCluster` worker/stats
        surface; the per-subgraph dicts on each worker's stats are summed
        (a subgraph's charges may be spread over several workers' stats
        after a migration — load follows the subgraph, not the host).
        """
        return cls.from_loads(
            collect_subgraph_loads(cluster, metric), placement, metric,
            workers=workers,
        )

    @classmethod
    def from_loads(
        cls,
        subgraph_load: Mapping[int, float],
        placement: Placement,
        metric: str = "tasks",
        workers: Optional[Sequence[int]] = None,
    ) -> "LoadReport":
        """Roll per-subgraph loads up to per-worker loads under ``placement``.

        Subgraphs missing from ``subgraph_load`` count as zero; loads for
        subgraphs the placement does not know are ignored (they belong to
        a previous partition).  ``workers`` defaults to every worker of the
        placement; pass the surviving subset after failures.
        """
        pool: Tuple[int, ...] = (
            tuple(range(placement.num_workers))
            if workers is None
            else tuple(sorted(set(workers)))
        )
        if not pool:
            raise ClusterError("a load report needs at least one worker")
        worker_load: Dict[int, float] = {worker_id: 0.0 for worker_id in pool}
        known: Dict[int, float] = {}
        for subgraph_id, worker_id in sorted(placement.assignment.items()):
            load = float(subgraph_load.get(subgraph_id, 0.0))
            known[subgraph_id] = load
            if worker_id in worker_load:
                worker_load[worker_id] += load
        return cls(
            workers=pool,
            metric=metric,
            subgraph_load=known,
            worker_load=worker_load,
        )

    @property
    def total_load(self) -> float:
        """Sum of all per-subgraph loads."""
        return sum(self.subgraph_load.values())

    def imbalance(self) -> float:
        """Skew score: max worker load over mean worker load.

        ``1.0`` means perfectly balanced; ``len(workers)`` means one
        worker carries everything.  A cluster with no observed load
        reports ``1.0`` (nothing to balance).
        """
        loads = [self.worker_load.get(w, 0.0) for w in self.workers]
        mean = sum(loads) / max(len(loads), 1)
        if mean <= 0.0:
            return 1.0
        return max(loads) / mean


@dataclass(frozen=True)
class MigrationPlan:
    """A corrective placement plus the moves that reach it.

    Attributes
    ----------
    placement:
        The target placement (complete assignment, not a delta).
    moves:
        ``(subgraph_id, source_worker, target_worker)`` triples, sorted by
        subgraph id, covering exactly the subgraphs whose owner changes.
    imbalance_before / imbalance_after:
        Max/mean worker-load ratio under the old and new placement,
        computed from the same observed loads.
    metric:
        Load metric the plan was computed from.
    """

    placement: Placement
    moves: Tuple[Move, ...]
    imbalance_before: float
    imbalance_after: float
    metric: str


def plan_rebalance(
    load: LoadReport,
    placement: Placement,
    threshold: float = 1.25,
    force: bool = False,
    baseline: Optional[Mapping[int, float]] = None,
) -> Optional[MigrationPlan]:
    """Plan a cost-weighted re-placement when the observed skew warrants it.

    Returns ``None`` when the observed imbalance is at or below
    ``threshold`` (unless ``force``), when there is no observed load, when
    the replacement assignment moves nothing, or when it would not
    actually improve the observed imbalance (e.g. one indivisible hot
    subgraph dominates — migrating around it only churns state).
    Otherwise the new assignment is
    :func:`~repro.distributed.placement.greedy_balance` over the
    *observed* subgraph loads — the deployment-time algorithm, re-run with
    real costs — iterated in subgraph-id order so the plan is
    deterministic and identical on every execution backend (given the
    deterministic ``"tasks"`` metric).

    ``baseline`` (e.g. per-subgraph vertex counts, the deployment-time
    estimate) breaks ties among unobserved subgraphs: scaled down to 0.1%
    of the observed total, it spreads cold subgraphs by size instead of
    letting greedy's first-minimum tie-break pile all of them onto one
    worker, without ever outvoting real observations.
    """
    imbalance_before = load.imbalance()
    if not force and imbalance_before <= threshold:
        return None
    if not load.subgraph_load or load.total_load <= 0.0:
        return None
    # Subgraph-id order fixes greedy tie-breaking; the loads themselves
    # decide the largest-first processing order inside greedy_balance.
    # Assign over the report's (alive) worker pool, then map the dense
    # greedy slots back to real worker ids.
    weights = {sid: load.subgraph_load[sid] for sid in sorted(load.subgraph_load)}
    if baseline:
        baseline_total = sum(baseline.get(sid, 0.0) for sid in weights) or 1.0
        tiebreak_scale = load.total_load * 1e-3 / baseline_total
        weights = {
            sid: observed + baseline.get(sid, 0.0) * tiebreak_scale
            for sid, observed in weights.items()
        }
    pool = load.workers
    dense = greedy_balance(weights, len(pool))
    assignment = {sid: pool[slot] for sid, slot in dense.items()}
    moves = tuple(
        (sid, placement.worker_of(sid), assignment[sid])
        for sid in sorted(assignment)
        if assignment[sid] != placement.worker_of(sid)
    )
    if not moves:
        return None
    new_placement = Placement(placement.num_workers, assignment)
    after = LoadReport.from_loads(
        load.subgraph_load, new_placement, load.metric, workers=pool
    )
    if not force and after.imbalance() >= imbalance_before:
        return None
    return MigrationPlan(
        placement=new_placement,
        moves=moves,
        imbalance_before=imbalance_before,
        imbalance_after=after.imbalance(),
        metric=load.metric,
    )


def plan_join(
    load: LoadReport,
    placement: Placement,
    joiner: int,
) -> Optional[MigrationPlan]:
    """Plan the migration onto a freshly joined (empty) worker.

    The inverse of the failover plan: instead of spreading a dead worker's
    subgraphs over the survivors, subgraphs are *stolen* from the loaded
    workers onto the joiner.  Each step takes the currently hottest donor
    (lowest id on ties) and moves its heaviest subgraph (lowest id on
    ties) whose transfer keeps the joiner strictly below the donor's
    pre-move load — the classic work-stealing condition, which terminates
    (every subgraph moves at most once) and never turns the joiner into
    the new hotspot.  Iteration order is fixed by worker/subgraph id, so
    the plan is deterministic and identical on every execution backend
    given the deterministic ``"tasks"`` metric.

    ``load`` must include the joiner in its worker pool (with zero load).
    Returns ``None`` when nothing can usefully move (e.g. a single
    subgraph, or no observed/baseline load at all).
    """
    if joiner not in load.workers:
        raise ClusterError(f"joiner {joiner} missing from the load report pool")
    loads = {worker_id: load.worker_load.get(worker_id, 0.0) for worker_id in load.workers}
    assignment = dict(placement.assignment)
    sub_load = load.subgraph_load
    donors = sorted(worker_id for worker_id in load.workers if worker_id != joiner)
    if not donors:
        return None
    moves = []
    while True:
        # Hottest donor first, but fall through to cooler donors when the
        # hottest one cannot donate (e.g. it owns a single huge subgraph
        # the stealing condition refuses to move wholesale).
        stolen = False
        for donor in sorted(donors, key=lambda worker_id: (-loads[worker_id], worker_id)):
            best_sid: Optional[int] = None
            best_load = -1.0
            for sid in sorted(s for s, w in assignment.items() if w == donor):
                amount = float(sub_load.get(sid, 0.0))
                if loads[joiner] + amount < loads[donor] and amount > best_load:
                    best_sid, best_load = sid, amount
            if best_sid is None:
                continue
            assignment[best_sid] = joiner
            loads[donor] -= best_load
            loads[joiner] += best_load
            moves.append((best_sid, donor, joiner))
            stolen = True
            break
        if not stolen:
            break
    if not moves:
        return None
    num_workers = max(placement.num_workers, joiner + 1)
    new_placement = Placement(num_workers, assignment)
    after = LoadReport.from_loads(
        sub_load, new_placement, load.metric, workers=load.workers
    )
    return MigrationPlan(
        placement=new_placement,
        moves=tuple(sorted(moves)),
        imbalance_before=load.imbalance(),
        imbalance_after=after.imbalance(),
        metric=load.metric,
    )


def apply_moves(
    moves: Sequence[Move],
    subgraph_bolts,
    cluster,
    dtlp,
    *,
    transfer_state: bool = True,
) -> int:
    """Execute a move list against live SubgraphBolts: the migration surgery.

    For every ``(subgraph_id, source, target)``: the subgraph id is removed
    from the source bolt and added to the target bolt, the resident
    first-level index memory is re-attributed (released on the source,
    charged on the target), and — when ``transfer_state`` — shipping the
    subgraph state is charged as communication of the subgraph's vertex
    count from source to target (the same unit the paper's Section 5.6.1
    cost model uses).  ``transfer_state=False`` is the failover path: the
    source worker is gone, survivors rebuild from the shared graph store,
    so only memory is charged on the gainer.

    Shared by the master topology and the process-backend replicas: both
    run exactly this function with the master-computed move list, so the
    two copies of the logical topology stay bit-identical.

    Returns the number of subgraphs migrated.
    """
    by_worker = {}
    for bolt in subgraph_bolts:
        by_worker.setdefault(bolt.worker_id, []).append(bolt)
    migrated = 0
    for subgraph_id, source, target in moves:
        source_bolt = next(
            (b for b in by_worker.get(source, []) if subgraph_id in b.subgraph_ids),
            None,
        )
        targets = by_worker.get(target)
        if targets is None:
            raise ClusterError(
                f"cannot migrate subgraph {subgraph_id}: no SubgraphBolt on "
                f"worker {target}"
            )
        if source_bolt is None and transfer_state:
            raise ClusterError(
                f"cannot migrate subgraph {subgraph_id}: worker {source} "
                "does not own it"
            )
        target_bolt = targets[0]
        if source_bolt is not None:
            source_bolt.subgraph_ids.discard(subgraph_id)
        target_bolt.subgraph_ids.add(subgraph_id)
        memory = dtlp.subgraph_index(subgraph_id).memory_estimate_bytes()
        if transfer_state and source_bolt is not None:
            cluster.worker(source).charge_memory(-memory)
            cluster.send(
                source, target, dtlp.partition.subgraph(subgraph_id).num_vertices
            )
        cluster.worker(target).charge_memory(memory)
        migrated += 1
    if migrated:
        cluster.metrics.counter(
            "rebalance_subgraphs_migrated_total",
            help="Subgraphs moved between workers by live migration",
        ).inc(migrated)
    return migrated


def apply_join(
    moves: Sequence[Move],
    subgraph_bolts,
    cluster,
    dtlp,
    *,
    from_store: bool = False,
    catchup_updates: int = 0,
) -> int:
    """Execute a join plan: :func:`apply_moves` with the joiner's cold-start path.

    Without a partition store the joiner receives each migrated subgraph's
    state from its previous host (``transfer_state=True`` — peer transfer
    charged in vertex units).  With ``from_store`` the joiner instead loads
    the partition files from disk, so no peer transfer is charged: sources
    still release the index memory, and the master ships only the
    ``catchup_updates``-long weight delta since the store was saved —
    O(load) cold start instead of O(state).  Shared by the master topology
    and the process-backend replicas, exactly like :func:`apply_moves`.
    """
    if not from_store:
        return apply_moves(
            moves, subgraph_bolts, cluster, dtlp, transfer_state=True
        )
    migrated = apply_moves(
        moves, subgraph_bolts, cluster, dtlp, transfer_state=False
    )
    joiners = set()
    for subgraph_id, source, target in moves:
        # transfer_state=False charges only the gainer's memory (the
        # failover contract, where the source is gone); on a join the
        # source is alive and hands its copy off, so release it here.
        cluster.worker(source).charge_memory(
            -dtlp.subgraph_index(subgraph_id).memory_estimate_bytes()
        )
        joiners.add(target)
    if catchup_updates > 0:
        for target in sorted(joiners):
            cluster.send(-1, target, catchup_updates)  # master -> joiner
    return migrated


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


class Rebalancer:
    """Rolling load aggregation plus the skew trigger, owned by a topology.

    The topology calls :meth:`observe` once per completed micro-batch with
    the batch-scoped cluster counters; the rebalancer folds the batch's
    per-subgraph charges into its rolling loads (applying the configured
    decay) and :meth:`maybe_plan` answers whether the skew warrants a
    migration.  The rolling loads survive migrations — load follows the
    subgraph, not the worker — so a freshly rebalanced cluster immediately
    re-scores below threshold instead of thrashing.
    """

    def __init__(self, config: RebalanceConfig) -> None:
        self.config = config
        self._loads: Dict[int, float] = {}
        self._batches_observed = 0
        self._batches_since_check = 0
        #: Completed migrations (plans executed by the owning topology).
        self.rebalances = 0
        #: Total subgraphs moved across all migrations.
        self.subgraphs_migrated = 0
        #: Cumulative state-transfer communication (vertex units) charged
        #: by executed migrations.  Kept here because the per-batch cluster
        #: counters are reset between batches, which would otherwise erase
        #: the migration's cost from every report.
        self.transfer_units = 0

    @property
    def loads(self) -> Dict[int, float]:
        """Copy of the rolling per-subgraph loads."""
        return dict(self._loads)

    @property
    def batches_observed(self) -> int:
        """Micro-batches folded into the rolling loads so far."""
        return self._batches_observed

    def observe(self, cluster, placement: Placement) -> LoadReport:
        """Fold one batch's cluster counters into the rolling loads."""
        batch = LoadReport.collect(cluster, placement, self.config.metric)
        self.observe_loads(batch.subgraph_load, batch=True)
        return batch

    def observe_loads(
        self, loads: Mapping[int, float], *, batch: bool = False
    ) -> None:
        """Fold raw per-subgraph loads into the rolling profile.

        ``batch=True`` marks a completed query micro-batch: the rolling
        decay is applied first and the cadence counters advance.  With
        ``batch=False`` the loads are folded in as-is — used for
        maintenance (weight-update) charges, which arrive between batches
        and would otherwise be erased by the per-batch metric reset before
        any :meth:`observe` could see them.
        """
        if batch and self.config.decay < 1.0:
            for subgraph_id in list(self._loads):
                self._loads[subgraph_id] *= self.config.decay
        for subgraph_id, amount in loads.items():
            if amount:
                self._loads[subgraph_id] = self._loads.get(subgraph_id, 0.0) + amount
        if batch:
            self._batches_observed += 1
            self._batches_since_check += 1

    def load_report(
        self, placement: Placement, workers: Optional[Sequence[int]] = None
    ) -> LoadReport:
        """The rolling loads rolled up under ``placement``."""
        return LoadReport.from_loads(
            self._loads, placement, self.config.metric, workers=workers
        )

    def check_due(self) -> bool:
        """Whether the automatic cadence says to test the trigger now."""
        if self.config.check_every == 0:
            return False
        return (
            self._batches_observed >= self.config.min_batches
            and self._batches_since_check >= self.config.check_every
        )

    def maybe_plan(
        self,
        placement: Placement,
        workers: Optional[Sequence[int]] = None,
        force: bool = False,
        baseline: Optional[Mapping[int, float]] = None,
    ) -> Optional[MigrationPlan]:
        """Plan a migration if the rolling skew crosses the threshold."""
        self._batches_since_check = 0
        if not force and self._batches_observed < self.config.min_batches:
            return None
        return plan_rebalance(
            self.load_report(placement, workers=workers),
            placement,
            threshold=self.config.threshold,
            force=force,
            baseline=baseline,
        )

    def record_executed(self, plan: MigrationPlan, transfer_units: int = 0) -> None:
        """Bump the counters after the owning topology executed ``plan``."""
        self.rebalances += 1
        self.subgraphs_migrated += len(plan.moves)
        self.transfer_units += transfer_units

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Rebalancer metric={self.config.metric} "
            f"threshold={self.config.threshold} "
            f"rebalances={self.rebalances}>"
        )
