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
  (emptied by every weight round), a coalescing bounded admission queue with
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

from .algorithms import yen_k_shortest_paths
from .core import DTLP, KSPDG, DTLPConfig
from .distributed import StormTopology
from .dynamics import TrafficModel
from .graph import WeightUpdate, dataset, random_graph, road_network
from .service import KSPService, generate_trace, replay
from .workloads import YenEngine

__version__ = "1.0.0"

__all__ = [
    # graph
    "WeightUpdate",
    "dataset",
    "random_graph",
    "road_network",
    # algorithms
    "yen_k_shortest_paths",
    # core
    "DTLP",
    "DTLPConfig",
    "KSPDG",
    # distributed
    "StormTopology",
    # dynamics & workloads
    "TrafficModel",
    "YenEngine",
    # service
    "KSPService",
    "generate_trace",
    "replay",
]
