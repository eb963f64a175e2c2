"""Benchmark harness: scaled experiment profiles and reporting helpers."""

from .harness import (
    DATASET_DEFAULT_Z,
    FULL_SCALE,
    QUICK_SCALE,
    build_dataset,
    build_dtlp,
    make_queries,
)
from .reporting import print_experiment

__all__ = [
    "DATASET_DEFAULT_Z",
    "FULL_SCALE",
    "QUICK_SCALE",
    "build_dataset",
    "build_dtlp",
    "make_queries",
    "print_experiment",
]
