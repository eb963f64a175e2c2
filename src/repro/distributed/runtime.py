"""The logical topology, and its resident copy inside a worker process.

:class:`LogicalTopology` is the deployment of Figure 14 as one object: the
SubgraphBolts and QueryBolts built from ordered specs, the EntranceSpout
wired over them, the :class:`~repro.distributed.cluster.ClusterAccountant`
they all charge through, and the query-envelope runner.  The master's
:class:`~repro.distributed.topology.StormTopology` holds one and adds what
only a master has (the executor, the replica group, the trace session);
with the ``process`` execution backend every executor worker holds another
— a :class:`TopologyReplica`, built **once** from a pickled
:class:`TopologyBundle` when the group is spawned, which adds only how it
boots and how it catches up.  Master and replicas therefore run the same
runner over the same bolt lists by construction, which is what keeps
routing and the deterministic cost counters bit-identical across backends.

After the spawn only two kinds of message cross the process boundary:

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

The module-level :func:`build_topology_replica` is the picklable factory
handed to :meth:`repro.exec.base.Executor.spawn_group`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.dtlp import DTLP
from ..core.ksp_dg import SearchMode
from ..graph.graph import WeightUpdate
from ..workloads.queries import KSPQuery
from .bolts import EntranceSpout, QueryBolt, QueryBoltResult, SubgraphBolt
from .cluster import ClusterAccountant, SimulatedCluster

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
    round-robin routing, so two copies built from the same specs stay
    interchangeable.  ``cluster`` receives every charge made while no
    private ledger is active.
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
            SubgraphBolt(name, worker_id, self.account, dtlp, subgraph_ids, mode)
            for name, worker_id, subgraph_ids in subgraph_bolts
        ]
        self.query_bolts: List[QueryBolt] = [
            QueryBolt(name, worker_id, self.account, dtlp, self.subgraph_bolts, mode)
            for name, worker_id in query_bolts
        ]
        self.spout = EntranceSpout(
            self.account, dtlp, self.subgraph_bolts, self.query_bolts
        )

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
