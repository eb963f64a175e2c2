"""Kernel microbenchmark: dict reference vs snapshot.

Measures the two compute tiers the rest of the system chooses between (see
``ARCHITECTURE.md``, "The compute tiers"): the dict-based graph objects
driven through the generic neighbour adapter, and the
:class:`~repro.kernel.snapshot.CSRSnapshot` heap kernel.  Workloads on a
~5k-vertex synthetic road network:

* point-to-point shortest-path queries (early-exit Dijkstra + path
  reconstruction) — the repository's hottest primitive,
* full single-source Dijkstra (labelled-dictionary output, as consumed by
  FindKSP's SPT build),
* Yen's k shortest simple paths.

The snapshot build cost is reported separately so the amortisation argument
is visible.  Acceptance floor: snapshot shortest-path Dijkstra ≥ 2x dict.

Paper map: ``docs/paper_map.md`` ties every benchmark to its figure/table.
"""

from __future__ import annotations

import gc
import random
import time

import pytest

from repro.algorithms.dijkstra import dijkstra, shortest_path
from repro.algorithms.yen import yen_k_shortest_paths
from repro.bench import print_experiment
from repro.graph import road_network
from repro.kernel import CSRSnapshot


def _best_of(callable_, repeats: int) -> float:
    # Each sample lasts a few ms: collect first, so a full collection of
    # the session's heap cannot land inside one and read as kernel cost.
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.paper_figure("kernel")
def test_kernel_speedup(scale, benchmark) -> None:
    side = 71 if scale.name == "quick" else 100  # 71^2 ~ 5k vertices
    graph = road_network(side, side, seed=3)
    build_started = time.perf_counter()
    snapshot = CSRSnapshot(graph)
    build_seconds = time.perf_counter() - build_started

    rng = random.Random(1)
    num = graph.num_vertices
    pairs = [(rng.randrange(num), rng.randrange(num)) for _ in range(20)]
    yen_pairs = pairs[:3]

    # The two bit-identical paths must agree exactly before timing means
    # anything.
    for source, target in pairs[:5]:
        assert shortest_path(graph, source, target) == shortest_path(
            snapshot, source, target
        )
        assert dijkstra(graph, source) == dijkstra(snapshot, source)

    repeats = 5 if scale.name == "quick" else 7
    sp_dict = _best_of(
        lambda: [shortest_path(graph, s, t) for s, t in pairs], repeats
    )
    sp_snap = _best_of(
        lambda: [shortest_path(snapshot, s, t) for s, t in pairs], repeats
    )
    full_dict = _best_of(lambda: [dijkstra(graph, s) for s, _ in pairs[:5]], repeats)
    full_snap = _best_of(lambda: [dijkstra(snapshot, s) for s, _ in pairs[:5]], repeats)
    yen_dict = _best_of(
        lambda: [yen_k_shortest_paths(graph, s, t, 3) for s, t in yen_pairs], 1
    )
    yen_snap = _best_of(
        lambda: [yen_k_shortest_paths(snapshot, s, t, 3) for s, t in yen_pairs], 1
    )

    benchmark.pedantic(
        lambda: [shortest_path(snapshot, s, t) for s, t in pairs],
        rounds=1,
        iterations=1,
    )

    def row(name, dict_seconds, snap_seconds, queries):
        return [
            name,
            queries,
            round(dict_seconds * 1e3, 2),
            round(snap_seconds * 1e3, 2),
            round(dict_seconds / snap_seconds, 2),
        ]

    rows = [
        row("shortest-path Dijkstra (s->t)", sp_dict, sp_snap, len(pairs)),
        row("full Dijkstra (labelled dicts)", full_dict, full_snap, 5),
        row("Yen k=3", yen_dict, yen_snap, len(yen_pairs)),
    ]
    print_experiment(
        f"Kernel microbenchmark: dict vs CSRSnapshot "
        f"({graph.num_vertices} vertices, {graph.num_edges} edges; "
        f"snapshot build {build_seconds * 1e3:.1f} ms)",
        ["workload", "#queries", "baseline (ms)", "new (ms)", "speedup"],
        rows,
        notes="identical distances asserted before timing; snapshot build "
        "amortises across every query until the next topology change",
    )

    # Acceptance floor: the array kernel answers point-to-point Dijkstra
    # queries at least twice as fast as dict.
    assert sp_dict / sp_snap >= 2.0, (
        f"snapshot Dijkstra speedup {sp_dict / sp_snap:.2f}x below the 2x floor"
    )
    # The other paths must at least not regress.
    assert full_dict / full_snap >= 1.2
    assert yen_dict / yen_snap >= 1.2
