"""The logical topology, and its resident copy inside a worker process.

:class:`LogicalTopology` is the deployment of Figure 14 as one object: the
SubgraphBolts and QueryBolts built from ordered specs, the EntranceSpout
wired over them, the :class:`~repro.distributed.cluster.ClusterAccountant`
they all charge through, the placement surgery
(:meth:`~LogicalTopology.fail_worker`, :meth:`~LogicalTopology.add_worker`,
:meth:`~LogicalTopology.retire_worker`) and the query-envelope runner.  The
master's :class:`~repro.distributed.topology.StormTopology` holds one and
adds what only a master has (planning, the executor, broadcasts); with the
``process`` execution backend every executor worker holds another — a
:class:`TopologyReplica`, built **once** from a pickled
:class:`TopologyBundle` when the group is spawned, which adds only how it
boots and how it catches up.  Master and replicas therefore run the same
surgery and the same runner by construction, which is what keeps routing
and the deterministic cost counters bit-identical across backends.

After the spawn only three kinds of message cross the process boundary:

* **weight-update deltas** (:meth:`TopologyReplica.sync`) — the master
  ships ``graph.edges_changed_since(last_synced_version)`` before each
  batch, and the replica applies the coalesced batch to its graph and
  index.  Per-subgraph maintenance recomputes bounding-path distances from
  the *current* weights (Algorithm 2), so a replica that catches up on a
  coalesced delta reaches exactly the state the master reached through the
  individual rounds.
* **query envelopes** (:meth:`LogicalTopology.run_on_ledger`) — ``(seq,
  route_index, query)`` triples.  The replica routes each query through
  its own spout using the shipped ``route_index``, so bolt selection —
  and therefore message/unit accounting — matches the serial reference
  bit for bit.  The chunk's charges are merged into one ledger cluster
  returned with the tagged results and absorbed by the master (charges
  are additive, so the merge is exact).
* **placement-change plans** — the move lists computed on the master by
  failover or by a join/retirement.  Each replica already holds every
  subgraph's state, so only the plan crosses the pipe and the replica
  applies the surgery in place — no respawn, no bundle re-ship.

The module-level :func:`build_topology_replica` is the picklable factory
handed to :meth:`repro.exec.base.Executor.spawn_group`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.dtlp import DTLP
from ..core.ksp_dg import SearchMode
from ..graph.errors import ClusterError
from ..graph.graph import WeightUpdate
from ..workloads.queries import KSPQuery
from .bolts import EntranceSpout, QueryBolt, QueryBoltResult, SubgraphBolt
from .cluster import ClusterAccountant, SimulatedCluster
from .placement import Move

__all__ = [
    "LogicalTopology",
    "TopologyBundle",
    "TopologyReplica",
    "QueryEnvelope",
    "build_topology_replica",
]

#: One routed query: ``(seq, route_index, query)``.  ``seq`` restores
#: submission order on the master; ``route_index`` pins the QueryBolt
#: choice to the serial reference's round-robin.
QueryEnvelope = Tuple[int, int, KSPQuery]

#: Ordered ``(name, worker_id, subgraph_ids)`` SubgraphBolt specs.
SubgraphBoltSpec = Tuple[str, int, Tuple[int, ...]]
#: Ordered ``(name, worker_id)`` QueryBolt specs.
QueryBoltSpec = Tuple[str, int]


class LogicalTopology:
    """Bolts, spout and accountant of one copy of the deployment.

    Components are built in spec order: SubgraphBolt order determines the
    QueryBolts' fan-out (communication accounting) and QueryBolt order the
    round-robin routing, so two copies built from the same specs and fed
    the same plans stay interchangeable.  ``cluster`` receives every charge
    made while no private ledger is active.
    """

    def __init__(
        self,
        dtlp: DTLP,
        mode: SearchMode,
        cluster: SimulatedCluster,
        subgraph_bolts: Sequence[SubgraphBoltSpec],
        query_bolts: Sequence[QueryBoltSpec],
    ) -> None:
        self.dtlp = dtlp
        self.mode = mode
        self.cluster = cluster
        # All bolt/spout charges route through the accountant so that the
        # concurrent backends can divert each query into a private ledger;
        # with no ledger active it charges ``cluster`` directly.
        self.account = ClusterAccountant(cluster)
        self.subgraph_bolts: List[SubgraphBolt] = [
            self._subgraph_bolt(*spec) for spec in subgraph_bolts
        ]
        self.query_bolts: List[QueryBolt] = [
            self._query_bolt(*spec) for spec in query_bolts
        ]
        self._rewire()

    def _subgraph_bolt(
        self, name: str, worker_id: int, subgraph_ids: Sequence[int]
    ) -> SubgraphBolt:
        return SubgraphBolt(
            name, worker_id, self.account, self.dtlp, subgraph_ids, self.mode
        )

    def _query_bolt(self, name: str, worker_id: int) -> QueryBolt:
        return QueryBolt(
            name, worker_id, self.account, self.dtlp, self.subgraph_bolts, self.mode
        )

    def _rewire(self) -> None:
        """Point every QueryBolt and a fresh spout at the current bolt lists."""
        for query_bolt in self.query_bolts:
            query_bolt.set_subgraph_bolts(self.subgraph_bolts)
        self.spout = EntranceSpout(
            self.account, self.dtlp, self.subgraph_bolts, self.query_bolts
        )

    def specs(self) -> Tuple[List[SubgraphBoltSpec], List[QueryBoltSpec]]:
        """The live bolt lists as ordered specs (what a bundle ships)."""
        return (
            [
                (bolt.name, bolt.worker_id, tuple(sorted(bolt.subgraph_ids)))
                for bolt in self.subgraph_bolts
            ],
            [(bolt.name, bolt.worker_id) for bolt in self.query_bolts],
        )

    # ------------------------------------------------------------------
    # placement surgery (plans are computed by the master)
    # ------------------------------------------------------------------
    def _apply_moves(self, moves: Sequence[Move], transfer_state: bool) -> int:
        """Re-host subgraphs between live SubgraphBolts; returns the count.

        For every ``(subgraph_id, source, target)``: the subgraph id is
        removed from the source bolt and added to the target bolt, the
        resident first-level index memory is re-attributed (released on the
        source, charged on the target), and — when ``transfer_state`` —
        shipping the subgraph state is charged as communication of the
        subgraph's vertex count from source to target (the unit of the
        paper's Section 5.6.1 cost model).  ``transfer_state=False`` is the
        failover path: the source worker is gone, survivors rebuild from
        the shared graph store, so only memory is charged on the gainer.
        """
        by_worker = {}
        for bolt in self.subgraph_bolts:
            by_worker.setdefault(bolt.worker_id, []).append(bolt)
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
            if source_bolt is not None:
                source_bolt.subgraph_ids.discard(subgraph_id)
            targets[0].subgraph_ids.add(subgraph_id)
            memory = self.dtlp.subgraph_index(subgraph_id).memory_estimate_bytes()
            if transfer_state and source_bolt is not None:
                self.account.worker(source).charge_memory(-memory)
                self.account.send(
                    source, target, self.dtlp.partition.subgraph(subgraph_id).num_vertices
                )
            self.account.worker(target).charge_memory(memory)
        return len(moves)

    def _drain_worker(
        self, worker_id: int, moves: Sequence[Move], transfer_state: bool
    ) -> int:
        # _apply_moves discards every moved id from its source bolt, so the
        # drained worker's bolts end up empty before they are dropped.
        migrated = self._apply_moves(moves, transfer_state)
        self.subgraph_bolts = [
            bolt for bolt in self.subgraph_bolts if bolt.worker_id != worker_id
        ]
        self.query_bolts = [
            bolt for bolt in self.query_bolts if bolt.worker_id != worker_id
        ]
        if not self.query_bolts:
            # Always keep at least one QueryBolt alive on a surviving worker.
            survivor = self.subgraph_bolts[0].worker_id
            self.query_bolts = [
                self._query_bolt(f"query-bolt-{survivor}-recovered", survivor)
            ]
        self._rewire()
        return migrated

    def fail_worker(self, worker_id: int, moves: Sequence[Move]) -> int:
        """Drop a dead worker's bolts after re-hosting its subgraphs.

        The dead worker cannot ship state: survivors rebuild from the
        shared graph store and only memory is charged on the gainers.
        """
        return self._drain_worker(worker_id, moves, transfer_state=False)

    def retire_worker(self, worker_id: int, moves: Sequence[Move]) -> int:
        """Drop a live worker's bolts after it shipped its subgraphs away."""
        return self._drain_worker(worker_id, moves, transfer_state=True)

    def add_worker(
        self,
        worker_id: int,
        moves: Sequence[Move],
        from_store: bool = False,
        catchup_updates: int = 0,
    ) -> int:
        """Add worker ``worker_id``'s bolts and apply the join plan.

        Grows the cost cluster to hold the new id (so later ledgers have
        the right shape) and appends an empty SubgraphBolt and one
        QueryBolt — at the end of both lists, see the class docstring —
        before the plan moves load onto the joiner.  Logical workers are a
        placement concept: the executor's OS-process pool is untouched.

        Without a partition store the joiner receives each migrated
        subgraph's state from its previous host (peer transfer charged in
        vertex units).  With ``from_store`` the joiner instead loads the
        partition files from disk: the sources still release the index
        memory, and the master ships only the ``catchup_updates``-long
        weight delta since the store was saved — O(load) cold start
        instead of O(state).
        """
        while self.cluster.num_workers <= worker_id:
            self.cluster.add_worker()
        self.subgraph_bolts.append(
            self._subgraph_bolt(f"subgraph-bolt-{worker_id}", worker_id, ())
        )
        self.query_bolts.append(self._query_bolt(f"query-bolt-{worker_id}-0", worker_id))
        migrated = self._apply_moves(moves, transfer_state=not from_store)
        if from_store:
            # transfer_state=False charges only the gainer's memory (the
            # failover contract, where the source is gone); on a join the
            # source is alive and hands its copy off, so release it here.
            for subgraph_id, source, _ in moves:
                self.account.worker(source).charge_memory(
                    -self.dtlp.subgraph_index(subgraph_id).memory_estimate_bytes()
                )
            if catchup_updates > 0 and moves:
                self.account.send(-1, worker_id, catchup_updates)  # master -> joiner
        self._rewire()
        return migrated

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def run(
        self,
        envelopes: Sequence[QueryEnvelope],
        trace: bool = False,
        profile: bool = False,
    ) -> List[Tuple[int, QueryBoltResult]]:
        """Route every envelope through the spout; ``(seq, result)`` pairs.

        The observability switches arrive per call, so the master can turn
        tracing/profiling on after replicas were spawned; span trees ride
        back on the results and kernel counters on the metrics registry of
        whichever cluster is being charged.
        """
        return [
            (
                seq,
                self.spout.submit_query_observed(
                    query, route_index=route_index, trace=trace, profile=profile
                ),
            )
            for seq, route_index, query in envelopes
        ]

    def run_on_ledger(
        self,
        envelopes: Sequence[QueryEnvelope],
        trace: bool = False,
        profile: bool = False,
    ) -> Tuple[List[Tuple[int, QueryBoltResult]], SimulatedCluster]:
        """:meth:`run` charging a private ledger, returned with the results.

        The unit of concurrent execution: one replica chunk.  Charges are
        additive, so pre-merging a chunk into a single ledger (instead of
        one per query) keeps the reply payload independent of batch size
        without changing the absorbed totals.
        """
        ledger = SimulatedCluster(self.cluster.num_workers)
        self.account.activate(ledger)
        try:
            return self.run(envelopes, trace, profile), ledger
        finally:
            self.account.deactivate()


@dataclass
class TopologyBundle:
    """Everything a worker process needs to rebuild the logical topology.

    The bolt lists are shipped as ordered specs (not live bolt objects),
    leaving master-side wiring (accountants, locks, executor handles)
    behind.

    Two shipping modes exist.  The classic one pickles the whole graph +
    DTLP through ``dtlp``.  When the topology sits on a partition store
    (:mod:`repro.store`), ``dtlp`` is ``None`` and the bundle instead
    carries ``store_path`` — each worker then reconstructs graph and index
    from the on-disk partition files (O(load), no index pickle crosses the
    pipe) and applies ``catchup``, the master-computed weight delta since
    the store was saved, to reach the master's exact state at spawn time.
    """

    dtlp: Optional[DTLP]
    mode: SearchMode
    num_workers: int
    subgraph_bolts: List[SubgraphBoltSpec]
    query_bolts: List[QueryBoltSpec]
    #: Partition-store directory to cold-start from when ``dtlp`` is None.
    store_path: Optional[str] = None
    #: Weight updates bringing a store-loaded replica to the master's
    #: weights as of bundle time.
    catchup: Tuple[WeightUpdate, ...] = ()


class TopologyReplica(LogicalTopology):
    """Resident copy of the topology inside one executor worker process."""

    def __init__(self, bundle: TopologyBundle) -> None:
        dtlp = bundle.dtlp
        if dtlp is None:
            # Store-shipped bundle: rebuild graph and index from the
            # partition files (tier-1 load — the reconstructed graph
            # carries exactly the stored weights), then catch up to the
            # master's weights at bundle time.
            from ..store.partition_store import PartitionStore

            store = PartitionStore(bundle.store_path)
            dtlp = store.load(store.load_graph())
        super().__init__(
            dtlp,
            bundle.mode,
            SimulatedCluster(bundle.num_workers),
            bundle.subgraph_bolts,
            bundle.query_bolts,
        )
        if bundle.dtlp is None:
            self.sync(bundle.catchup)

    def sync(self, updates: Sequence[WeightUpdate]) -> int:
        """Apply a coalesced weight-update delta to graph and index.

        The replica graph arrives with an empty listener list (see
        :meth:`repro.graph.graph.DynamicGraph.__getstate__`), so the index
        refresh is invoked explicitly — exactly once — after the weights
        land.  Returns the replica's new graph version.
        """
        updates = list(updates)
        graph = self.dtlp.graph
        if updates:
            graph.apply_updates(updates)
            self.dtlp.handle_updates(updates)
        return graph.version


def build_topology_replica(bundle: TopologyBundle) -> TopologyReplica:
    """Picklable factory used with :meth:`repro.exec.base.Executor.spawn_group`."""
    return TopologyReplica(bundle)
