"""Chaos-grade fault testing: seeded fault plans, one injection loop with
two targets, one oracle, and recovery SLO scoring.

Faults are pinned to query batch indices (never wall clock).
:func:`run_chaos` drives a :class:`TopologyTarget` (a live
``StormTopology``) or a :class:`FrontDoorTarget` (HTTP clients against
service replicas) through a ``(workload, FaultPlan)`` pair and checks
every answer against Yen on a twin graph that receives the same rounds.
On the topology, a run replays identically on every execution backend.
"""

from .harness import (
    Answer,
    AnswerSignature,
    BatchSample,
    ChaosEvent,
    ChaosReport,
    ChaosWorkload,
    Oracle,
    RecoverySample,
    generate_chaos_workload,
    run_chaos,
)
from .plan import FAULT_KINDS, ChaosError, FaultEvent, FaultPlan
from .targets import FrontDoorTarget, TopologyTarget

__all__ = [
    "FAULT_KINDS",
    "Answer",
    "AnswerSignature",
    "BatchSample",
    "ChaosError",
    "ChaosEvent",
    "ChaosReport",
    "ChaosWorkload",
    "FaultEvent",
    "FaultPlan",
    "FrontDoorTarget",
    "Oracle",
    "RecoverySample",
    "TopologyTarget",
    "generate_chaos_workload",
    "run_chaos",
]
