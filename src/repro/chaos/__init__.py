"""Chaos-grade fault testing: seeded fault plans, one injection loop, one
target and one oracle.

Faults are pinned to query batch indices (never wall clock).
:func:`run_chaos` drives a :class:`FrontDoorTarget` (HTTP clients against
service replicas) through a ``(workload, FaultPlan)`` pair — replica
kills, stalls and slowdowns — and checks every answer against Yen on a
twin graph that receives the same rounds.
"""

from .harness import generate_chaos_workload, run_chaos
from .plan import FaultEvent, FaultPlan
from .targets import FrontDoorTarget

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FrontDoorTarget",
    "generate_chaos_workload",
    "run_chaos",
]
