"""Benchmark harness: scaled experiment profiles and reporting helpers."""

from .harness import (
    DATASET_DEFAULT_Z,
    FULL_SCALE,
    QUICK_SCALE,
    ExperimentScale,
    build_dataset,
    build_dtlp,
    make_queries,
)
from .reporting import format_table, print_experiment

__all__ = [
    "DATASET_DEFAULT_Z",
    "FULL_SCALE",
    "QUICK_SCALE",
    "ExperimentScale",
    "build_dataset",
    "build_dtlp",
    "make_queries",
    "format_table",
    "print_experiment",
]
