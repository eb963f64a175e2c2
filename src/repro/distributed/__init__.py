"""Simulated distributed runtime: placement, Storm-style topology, KSP-DG engine.

The *logical* cluster lives here (placement, routing, cost attribution);
the *physical* execution backends live in :mod:`repro.exec` — see
``ARCHITECTURE.md`` ("Placement vs. Executor").  The placement is the
paper's deployment-time greedy balance over vertex counts, fixed for the
topology's lifetime.
"""

from .bolts import EntranceSpout, QueryBolt, QueryBoltResult, SubgraphBolt
from .cluster import ClusterAccountant, SimulatedCluster, SimulatedWorker, WorkerStats
from .engine import DistributedBuildReport, KSPDGEngine, distributed_build_report
from .placement import Placement, greedy_balance
from .runtime import (
    LogicalTopology,
    TopologyBundle,
    TopologyReplica,
    build_topology_replica,
)
from .topology import StormTopology, TopologyReport

__all__ = [
    "EntranceSpout",
    "QueryBolt",
    "QueryBoltResult",
    "SubgraphBolt",
    "ClusterAccountant",
    "SimulatedCluster",
    "SimulatedWorker",
    "WorkerStats",
    "Placement",
    "greedy_balance",
    "LogicalTopology",
    "TopologyBundle",
    "TopologyReplica",
    "build_topology_replica",
    "DistributedBuildReport",
    "KSPDGEngine",
    "distributed_build_report",
    "StormTopology",
    "TopologyReport",
]
