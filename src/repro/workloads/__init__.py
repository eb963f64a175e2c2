"""Workloads: query generation and batch execution.

The evaluation layer between raw engines and the benchmarks/serving stack:

* :class:`KSPQuery` / :class:`QueryGenerator` — reproducible random query
  workloads (``Nq`` concurrent queries), with optional minimum hop
  separation;
* :class:`QueryEngine` — the protocol every engine satisfies (``answer``,
  optionally ``answer_many`` for physically parallel batches); concrete
  centralized baselines :class:`YenEngine` / :class:`FindKSPEngine` live
  here, the distributed KSP-DG engine in :mod:`repro.distributed.engine`;
* :class:`BatchRunner` — executes a batch against an engine, recording
  wall-clock and simulated parallel time.

See ``ARCHITECTURE.md`` for where this layer sits in the stack and
``docs/paper_map.md`` for which benchmarks drive it.
"""

from .queries import KSPQuery, QueryGenerator
from .runner import BatchRunner, FindKSPEngine, QueryEngine, YenEngine

__all__ = [
    "KSPQuery",
    "QueryGenerator",
    "BatchRunner",
    "FindKSPEngine",
    "QueryEngine",
    "YenEngine",
]
