"""Simulated distributed runtime: placement, Storm-style topology, KSP-DG engine.

The *logical* cluster lives here (placement, routing, cost attribution);
the *physical* execution backends live in :mod:`repro.exec` — see
``ARCHITECTURE.md`` ("Placement vs. Executor").  The placement is the
paper's deployment-time greedy balance over vertex counts, fixed for the
topology's lifetime.
"""

from .bolts import QueryBolt, SubgraphBolt
from .engine import KSPDGEngine, distributed_build_report
from .topology import StormTopology

__all__ = [
    "QueryBolt",
    "SubgraphBolt",
    "KSPDGEngine",
    "distributed_build_report",
    "StormTopology",
]
