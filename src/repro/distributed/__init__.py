"""Simulated distributed runtime: placement, Storm-style topology, KSP-DG engine.

The *logical* cluster lives here (placement, routing, cost attribution);
the *physical* execution backends live in :mod:`repro.exec` — see
``ARCHITECTURE.md`` ("Placement vs. Executor").  The placement is either
static (the paper's deployment-time greedy balance) or *load-adaptive*:
:mod:`repro.distributed.rebalance` aggregates per-subgraph cost telemetry
into rolling load reports and live-migrates subgraphs between workers when
a configurable skew threshold is crossed (``ARCHITECTURE.md``, "Load
telemetry & rebalancing").
"""

from .autoscale import AutoscaleConfig, Autoscaler, resolve_autoscale
from .bolts import EntranceSpout, QueryBolt, QueryBoltResult, SubgraphBolt
from .cluster import ClusterAccountant, SimulatedCluster, SimulatedWorker, WorkerStats
from .engine import DistributedBuildReport, KSPDGEngine, distributed_build_report
from .placement import Placement, greedy_balance
from .rebalance import (
    ElasticityStats,
    LoadReport,
    MigrationPlan,
    RebalanceConfig,
    Rebalancer,
    apply_join,
    apply_moves,
    default_rebalance_spec,
    plan_join,
    plan_rebalance,
    resolve_rebalance,
)
from .runtime import (
    LogicalTopology,
    TopologyBundle,
    TopologyReplica,
    build_topology_replica,
)
from .topology import JoinReport, StormTopology, TopologyReport

__all__ = [
    "AutoscaleConfig",
    "Autoscaler",
    "ElasticityStats",
    "JoinReport",
    "apply_join",
    "apply_moves",
    "plan_join",
    "resolve_autoscale",
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
    "LoadReport",
    "MigrationPlan",
    "RebalanceConfig",
    "Rebalancer",
    "default_rebalance_spec",
    "plan_rebalance",
    "resolve_rebalance",
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
