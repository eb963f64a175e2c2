"""Pluggable execution backends (serial / process).

This package is the *physical* execution layer of the system: callers hand
it work items (queries, index-construction tasks) and it runs them on one
of two interchangeable backends.  The *logical* cluster — placement,
routing and cost attribution — stays in :mod:`repro.distributed`; see
``ARCHITECTURE.md`` ("Placement vs. Executor") for how the two compose.
"""

from .base import EXECUTORS, Executor, default_executor_name, resolve_executor
from .replicas import ReplicaSet

__all__ = [
    "EXECUTORS",
    "Executor",
    "default_executor_name",
    "resolve_executor",
    "ReplicaSet",
]
