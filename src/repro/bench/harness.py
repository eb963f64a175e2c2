"""Experiment harness shared by the ``benchmarks/`` suite.

The benchmark files under ``benchmarks/`` reproduce every table and figure of
the paper's evaluation.  They all follow the same pattern: build a (scaled)
dataset, build the DTLP index, run a parameter sweep, and print a table whose
rows mirror the paper's series.  This module centralises the shared pieces:

* :class:`ExperimentScale` — the scaled-down experiment dimensions (graph
  sizes, query counts, parameter grids), with a ``quick`` profile used by the
  automated benchmark run and a ``full`` profile for users with more time.
* :func:`build_dataset` / :func:`build_dtlp` — cached construction of graphs
  and indexes so that a benchmark session does not rebuild the same index for
  every figure.
* small helpers for generating query batches and running topology batches.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..core.dtlp import DTLP, DTLPConfig
from ..distributed.topology import StormTopology, TopologyReport
from ..graph.generators import dataset as make_dataset
from ..graph.graph import DynamicGraph
from ..workloads.queries import KSPQuery, QueryGenerator

__all__ = [
    "ExperimentScale",
    "QUICK_SCALE",
    "FULL_SCALE",
    "build_dataset",
    "build_dtlp",
    "make_queries",
    "run_topology_batch",
    "DATASET_DEFAULT_Z",
]


#: Default subgraph-size threshold per dataset used across experiments;
#: these are the scaled analogues of the paper's defaults (NY/COL: 200,
#: FLA: 500, CUSA: 1000).
DATASET_DEFAULT_Z: Dict[str, int] = {"NY": 48, "COL": 48, "FLA": 64, "CUSA": 96}


@dataclass(frozen=True)
class ExperimentScale:
    """Scaled experiment dimensions.

    Attributes
    ----------
    name:
        Profile name (``"quick"`` or ``"full"``).
    graph_scale:
        Multiplier applied to the generated datasets' grid dimensions.
    num_queries:
        Query batch size replacing the paper's ``Nq = 1000``.
    num_query_batches:
        Batch sizes used for the ``Nq`` sweeps (Figures 32, 35-38).
    k_values:
        Grid of ``k`` values (Figures 26, 28-31, 39, 44).
    z_values:
        Per-dataset grids of ``z`` (Figures 15-18, 28-31, Table 3).
    xi_values:
        Grid of ``xi`` (Figures 22, 24, 33).
    alpha_values, tau_values:
        Grids of the traffic-model parameters (Figures 23, 25, 27, 34).
    server_counts:
        Grid of cluster sizes (Figures 42-46).
    datasets:
        The dataset names exercised by multi-dataset experiments.
    """

    name: str
    graph_scale: float
    num_queries: int
    num_query_batches: Tuple[int, ...]
    k_values: Tuple[int, ...]
    z_values: Mapping[str, Tuple[int, ...]]
    xi_values: Tuple[int, ...]
    alpha_values: Tuple[float, ...]
    tau_values: Tuple[float, ...]
    server_counts: Tuple[int, ...]
    datasets: Tuple[str, ...]


QUICK_SCALE = ExperimentScale(
    name="quick",
    graph_scale=0.7,
    num_queries=10,
    num_query_batches=(4, 8, 12, 16),
    k_values=(2, 4, 6),
    z_values={
        "NY": (24, 36, 48, 64),
        "COL": (24, 36, 48, 64),
        "FLA": (48, 64, 80),
        "CUSA": (64, 96, 128),
    },
    xi_values=(1, 3, 5),
    alpha_values=(0.2, 0.35, 0.5),
    tau_values=(0.1, 0.3, 0.5, 0.9),
    server_counts=(2, 4, 8, 12),
    datasets=("NY", "COL"),
)

FULL_SCALE = ExperimentScale(
    name="full",
    graph_scale=1.0,
    num_queries=50,
    num_query_batches=(10, 25, 50, 100),
    k_values=(2, 4, 6, 8, 10),
    z_values={
        "NY": (24, 36, 48, 64, 80),
        "COL": (24, 36, 48, 64, 80),
        "FLA": (48, 64, 80, 96, 112),
        "CUSA": (64, 96, 128, 160),
    },
    xi_values=(1, 3, 5, 10),
    alpha_values=(0.1, 0.2, 0.3, 0.4, 0.5),
    tau_values=(0.1, 0.3, 0.5, 0.7, 0.9),
    server_counts=(2, 4, 8, 12, 16, 20),
    datasets=("NY", "COL", "FLA", "CUSA"),
)


@functools.lru_cache(maxsize=32)
def build_dataset(
    name: str,
    scale: float = 1.0,
    seed: int = 7,
    directed: bool = False,
) -> DynamicGraph:
    """Build (and cache) one of the named scaled datasets.

    The cache means one benchmark session reuses graphs across figures; the
    returned graph must therefore be treated as shared state — experiments
    that mutate weights should work on ``graph.snapshot()`` or accept the
    shared evolution.
    """
    return make_dataset(name, seed=seed, directed=directed, scale=scale)


@functools.lru_cache(maxsize=32)
def build_dtlp(
    name: str,
    z: int,
    xi: int,
    scale: float = 1.0,
    seed: int = 7,
    directed: bool = False,
) -> DTLP:
    """Build (and cache) a DTLP index over one of the named datasets."""
    graph = build_dataset(name, scale=scale, seed=seed, directed=directed)
    config = DTLPConfig(z=z, xi=xi, directed=directed)
    return DTLP(graph, config).build()


def make_queries(
    graph: DynamicGraph,
    count: int,
    k: int,
    seed: int = 11,
    min_hops: int = 3,
) -> List[KSPQuery]:
    """Generate a reproducible batch of queries for an experiment."""
    generator = QueryGenerator(graph, seed=seed, min_hops=min_hops)
    return generator.generate(count, k=k)


def run_topology_batch(
    dtlp: DTLP,
    queries: List[KSPQuery],
    num_workers: int,
    executor: str = "serial",
    repeats: int = 1,
) -> Tuple[TopologyReport, float]:
    """Run a query batch on a fresh topology with the given backend.

    Convenience for executor-scaling experiments
    (``benchmarks/test_exec_scaling.py``): builds the topology, runs the
    batch ``repeats`` times, and tears the backend down again, returning
    ``(report, best_wall_seconds)`` — the report carries the logical cost
    model, the wall time the physical execution cost.  With ``repeats > 1``
    one-time backend setup (worker-process spawn, replica shipping) is paid
    in the first run only, so the best wall time reflects steady-state
    batch throughput.
    """
    with StormTopology(dtlp, num_workers=num_workers, executor=executor) as topology:
        best_wall = float("inf")
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            report = topology.run_queries(queries)
            best_wall = min(best_wall, time.perf_counter() - started)
    return report, best_wall
