"""repro: reference reproduction of KSP-DG / DTLP (SIGMOD 2020).

The library implements distributed processing of k-shortest-path (KSP)
queries over dynamic road networks:

* :mod:`repro.graph` — dynamic weighted graphs, BFS partitioning into
  subgraphs with boundary vertices, synthetic road-network generators and
  DIMACS IO.
* :mod:`repro.kernel` — array-backed graph snapshots (CSR) and the
  index-space shortest-path primitives every hot path runs on (see
  ``ARCHITECTURE.md``).
* :mod:`repro.exec` — pluggable physical execution backends (``serial`` /
  ``process``): the process backend runs query batches on
  persistent worker processes holding resident index replicas, receiving
  only weight-update deltas and query envelopes between rounds.
* :mod:`repro.algorithms` — Dijkstra primitives, Yen's algorithm, the
  FindKSP baseline and the CANDS single-shortest-path baseline; all accept
  either a graph-like object or a kernel snapshot.
* :mod:`repro.core` — the DTLP two-level index (bounding paths, EP-Index,
  lower bounds, skeleton graph) and the KSP-DG filter-and-refine query
  algorithm.
* :mod:`repro.distributed` — the logical cluster: balanced placement,
  Storm-like topology (spouts, bolts), deterministic query routing and
  per-worker cost accounting, executed on any :mod:`repro.exec` backend.
* :mod:`repro.dynamics` — the traffic model that evolves edge weights.
* :mod:`repro.workloads` — query generation and batch runners.
* :mod:`repro.service` — the online serving layer: a long-lived
  :class:`~repro.service.server.KSPService` with a result cache
  (update-scoped invalidation), a coalescing bounded admission queue with
  micro-batching and load shedding, a maintenance loop interleaving traffic
  snapshots with query batches, latency/hit-rate telemetry, and a trace
  replay driver (``repro replay`` / ``repro serve``).
* :mod:`repro.chaos` — the deterministic fault-injection harness: seeded
  :class:`~repro.chaos.plan.FaultPlan` schedules (replica kill / stall /
  slow pinned to batch indices) replayed against an HTTP front door, every
  answer checked against Yen on a twin graph (``repro loadtest``).
* :mod:`repro.bench` — the experiment harness used by ``benchmarks/``.

Quickstart
----------
>>> from repro import road_network, DTLP, DTLPConfig, KSPDG
>>> graph = road_network(10, 10, seed=1)
>>> dtlp = DTLP(graph, DTLPConfig(z=16, xi=3)).build()
>>> engine = KSPDG(dtlp)
>>> result = engine.query(0, 99, k=3)
>>> len(result.paths)
3

Serving quickstart (see ``examples/live_service.py`` for the full loop)
-----------------------------------------------------------------------
>>> from repro import KSPService, YenEngine, generate_trace, replay
>>> service = KSPService(graph, YenEngine(graph))
>>> outcome = replay(service, generate_trace(graph, 100, 10), validate=True)
>>> outcome.stale_served
0
"""

from .algorithms import (
    CandsIndex,
    FindKSP,
    LazyYen,
    dijkstra,
    find_ksp,
    shortest_distance,
    shortest_path,
    yen_k_shortest_paths,
)
from .chaos import (
    ChaosReport,
    FaultEvent,
    FaultPlan,
    FrontDoorTarget,
    generate_chaos_workload,
    run_chaos,
)
from .core import (
    DTLP,
    DTLPConfig,
    DTLPStatistics,
    EPIndex,
    KSPDG,
    KSPResult,
    SkeletonGraph,
    SubgraphIndex,
    constrained_ksp,
    diverse_ksp,
    path_overlap,
)
from .distributed import KSPDGEngine, Placement, SimulatedCluster, StormTopology, TopologyReport
from .dynamics import TrafficModel
from .exec import (
    EXECUTORS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from .graph import (
    DATASET_SPECS,
    DirectedDynamicGraph,
    DynamicGraph,
    GraphPartition,
    Path,
    ReproError,
    Subgraph,
    WeightUpdate,
    dataset,
    grid_graph,
    partition_graph,
    random_graph,
    road_network,
)
from .service import (
    KSPService,
    ReplayResult,
    RequestPipeline,
    ResultCache,
    ServedQuery,
    ServiceOverloadedError,
    ServiceReport,
    TraceEvent,
    generate_trace,
    replay,
)
from .workloads import (
    BatchReport,
    BatchRunner,
    FindKSPEngine,
    KSPQuery,
    QueryGenerator,
    YenEngine,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # graph
    "DynamicGraph",
    "DirectedDynamicGraph",
    "WeightUpdate",
    "GraphPartition",
    "partition_graph",
    "Subgraph",
    "Path",
    "ReproError",
    "road_network",
    "grid_graph",
    "random_graph",
    "dataset",
    "DATASET_SPECS",
    # algorithms
    "dijkstra",
    "shortest_path",
    "shortest_distance",
    "yen_k_shortest_paths",
    "LazyYen",
    "find_ksp",
    "FindKSP",
    "CandsIndex",
    # core
    "DTLP",
    "DTLPConfig",
    "DTLPStatistics",
    "EPIndex",
    "SkeletonGraph",
    "SubgraphIndex",
    "KSPDG",
    "KSPResult",
    "constrained_ksp",
    "diverse_ksp",
    "path_overlap",
    # distributed
    "SimulatedCluster",
    "StormTopology",
    "TopologyReport",
    "KSPDGEngine",
    "Placement",
    # exec
    "EXECUTORS",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    # dynamics & workloads
    "TrafficModel",
    "KSPQuery",
    "QueryGenerator",
    "BatchRunner",
    "BatchReport",
    "YenEngine",
    "FindKSPEngine",
    # service
    "KSPService",
    "ResultCache",
    "RequestPipeline",
    "ServedQuery",
    "ServiceReport",
    "ServiceOverloadedError",
    "TraceEvent",
    "ReplayResult",
    "generate_trace",
    "replay",
    # chaos
    "ChaosReport",
    "FaultEvent",
    "FaultPlan",
    "FrontDoorTarget",
    "generate_chaos_workload",
    "run_chaos",
]
