"""Kernel microbenchmark: dict reference vs snapshot vs batched fast tier.

Measures the compute paths the rest of the system chooses between (see
``ARCHITECTURE.md``, "Batched kernel & identity tiers"): the dict-based
graph objects driven through the generic neighbour adapter, the
:class:`~repro.kernel.snapshot.CSRSnapshot` heap kernel, and the ``fast``
tier's batched wavefront kernel.  Workloads on a ~5k-vertex synthetic road
network:

* point-to-point shortest-path queries (early-exit Dijkstra + path
  reconstruction) — the repository's hottest primitive — answered per-pair
  on dict/snapshot and as one micro-batch by the fast tier,
* full single-source Dijkstra (labelled-dictionary output, as consumed by
  FindKSP's SPT build),
* Yen's k shortest simple paths,
* a batched multi-source case: one shared flat search structure
  (:func:`~repro.kernel.wavefront.dijkstra_arrays_batch`) vs N independent
  heap searches over the same sources.

The snapshot build cost is reported separately so the amortisation argument
is visible.  Acceptance floors: snapshot shortest-path Dijkstra ≥ 2x dict,
fast batched tier ≥ 3x dict, batch ≥ 2x its per-source equivalent.

Paper map: ``docs/paper_map.md`` ties every benchmark to its figure/table.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.algorithms.dijkstra import dijkstra, shortest_path
from repro.algorithms.yen import yen_k_shortest_paths
from repro.bench import print_experiment
from repro.graph import road_network
from repro.kernel import CSRSnapshot
from repro.kernel.wavefront import (
    batch_shortest_paths,
    dijkstra_arrays_batch,
    numpy_available,
    wavefront_sssp,
)


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
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
    have_numpy = numpy_available()

    # The two bit-identical paths must agree exactly before timing means
    # anything; the fast tier must match their distances (its paths are
    # tie-order free, so only the distance is compared).
    for source, target in pairs[:5]:
        assert shortest_path(graph, source, target) == shortest_path(
            snapshot, source, target
        )
        assert dijkstra(graph, source) == dijkstra(snapshot, source)
    if have_numpy:
        reference = [shortest_path(snapshot, s, t) for s, t in pairs]
        batched = batch_shortest_paths(snapshot, pairs)
        assert [p.distance for p in batched] == [p.distance for p in reference]

    repeats = 3 if scale.name == "quick" else 5
    sp_dict = _best_of(
        lambda: [shortest_path(graph, s, t) for s, t in pairs], repeats
    )
    sp_snap = _best_of(
        lambda: [shortest_path(snapshot, s, t) for s, t in pairs], repeats
    )
    sp_fast = (
        _best_of(lambda: batch_shortest_paths(snapshot, pairs), repeats)
        if have_numpy
        else None
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
    if sp_fast is not None:
        rows.insert(
            1, row("fast tier: batched s->t (vs dict)", sp_dict, sp_fast, len(pairs))
        )
    print_experiment(
        f"Kernel microbenchmark: dict vs CSRSnapshot vs fast "
        f"({graph.num_vertices} vertices, {graph.num_edges} edges; "
        f"snapshot build {build_seconds * 1e3:.1f} ms)",
        ["workload", "#queries", "baseline (ms)", "new (ms)", "speedup"],
        rows,
        notes="identical distances asserted before timing; snapshot build "
        "amortises across every query until the next topology change; the "
        "fast tier answers the whole pair batch in one multi-source run",
    )

    # Acceptance floors: the array kernel answers point-to-point Dijkstra
    # queries at least twice as fast as dict, and the batched fast tier at
    # least three times as fast (the PR-7 tentpole target).
    assert sp_dict / sp_snap >= 2.0, (
        f"snapshot Dijkstra speedup {sp_dict / sp_snap:.2f}x below the 2x floor"
    )
    if sp_fast is not None:
        assert sp_dict / sp_fast >= 3.0, (
            f"fast batched speedup {sp_dict / sp_fast:.2f}x below the 3x floor"
        )
    # The other paths must at least not regress.
    assert full_dict / full_snap >= 1.2
    assert yen_dict / yen_snap >= 1.2


@pytest.mark.skipif(not numpy_available(), reason="fast tier requires numpy")
def test_batched_multi_source_speedup(scale, benchmark) -> None:
    """One shared flat structure vs N independent searches (same sources)."""
    side = 71 if scale.name == "quick" else 100
    graph = road_network(side, side, seed=3)
    snapshot = CSRSnapshot(graph)
    rng = random.Random(2)
    sources = sorted(rng.sample(range(snapshot.num_vertices), 16))

    # Distance identity first: each batch row must equal its own full
    # single-source wavefront (itself bitwise equal to the heap kernel —
    # tests/test_fast_kernel_properties.py).
    dist, _pred = dijkstra_arrays_batch(snapshot, sources)
    for row_index, source in enumerate(sources):
        single, _ = wavefront_sssp(snapshot, source)
        assert list(dist[row_index]) == list(single)

    repeats = 3 if scale.name == "quick" else 5
    independent = _best_of(
        lambda: [wavefront_sssp(snapshot, source) for source in sources], repeats
    )
    batched = _best_of(lambda: dijkstra_arrays_batch(snapshot, sources), repeats)
    benchmark.pedantic(
        lambda: dijkstra_arrays_batch(snapshot, sources), rounds=1, iterations=1
    )

    print_experiment(
        f"Batched multi-source wavefront ({snapshot.num_vertices} vertices, "
        f"{len(sources)} sources)",
        ["strategy", "#sources", "time (ms)", "speedup"],
        [
            ["independent wavefronts", len(sources), round(independent * 1e3, 2), 1.0],
            [
                "one shared batch",
                len(sources),
                round(batched * 1e3, 2),
                round(independent / batched, 2),
            ],
        ],
        notes="identical per-source distance rows asserted before timing; the "
        "batch pays each sweep's numpy overhead once for all sources",
    )

    # Sharing the frontier structure must amortise the per-sweep overhead.
    assert independent / batched >= 2.0, (
        f"batched multi-source speedup {independent / batched:.2f}x "
        "below the 2x floor"
    )
