"""Property tests: the wavefront primitives are distance-identical to the heap kernel.

The wavefront/batched kernels (:mod:`repro.kernel.wavefront`) are tie-order
free — predecessor choices on equal-length paths may differ from the heap
kernel's — but their *distances* must equal the heap kernel's bitwise: with
non-negative weights both converge to the unique float fixpoint of the
Bellman equations (see the module docstring of ``wavefront.py``).  These
tests assert that contract over randomized graphs, constraint sets
(bans/allowed/cutoffs), weight-update/refresh rounds, the multi-source
batch and the numpy-bulk landmark builds (the one call site the code
selects them for, by snapshot size) — plus the frontier profiling counters
and the generic-fallback profiling fix.  No kernel mode selects these
primitives, so there is no stack-level case here.

Everything numpy-dependent is skipped cleanly when numpy is missing; the
landmark builds fall back to the heap kernel in that case, which the
ordinary bit-identity suite (``tests/test_kernel_properties.py``) already
covers.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.algorithms.dijkstra import dijkstra, shortest_path
from repro.graph import road_network
from repro.graph.generators import random_graph
from repro.graph.graph import WeightUpdate
from repro.kernel import CSRSnapshot
from repro.kernel import heuristics as heuristics_module
from repro.kernel.heuristics import LandmarkLowerBounds
from repro.kernel.primitives import dijkstra_arrays
from repro.kernel.wavefront import (
    batch_shortest_paths,
    dijkstra_arrays_batch,
    numpy_available,
    wavefront_sssp,
)
from repro.obs.profile import KernelCounters, collecting

SEEDS = [0, 1, 2]

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="wavefront kernels require numpy"
)


def _random_updates(graph, rng: random.Random, fraction: float = 0.3):
    edges = list(graph.edges())
    rng.shuffle(edges)
    picked = edges[: max(1, int(len(edges) * fraction))]
    return [
        WeightUpdate(u, v, round(rng.uniform(0.5, 12.0), 3)) for u, v, _ in picked
    ]


# ----------------------------------------------------------------------
# wavefront vs heap kernel: bitwise distance identity
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("directed", [False, True])
def test_wavefront_distances_bitwise_identical(seed: int, directed: bool) -> None:
    graph = random_graph(140, 420, seed=seed, directed=directed)
    snapshot = CSRSnapshot(graph)
    n = snapshot.num_vertices
    rng = random.Random(seed)
    for delta in ("auto", None, 3.5):
        source = rng.randrange(n)
        heap_dist, heap_pred, _ = dijkstra_arrays(
            snapshot.rows, n, source, track_touched=False
        )
        wave_dist, wave_pred = wavefront_sssp(snapshot, source, delta=delta)
        assert list(wave_dist) == heap_dist  # bitwise float equality
        # Predecessors are tie-order free, but every chosen predecessor
        # must be consistent: dist[pred] + w == dist, exactly.
        for v in range(n):
            p = int(wave_pred[v])
            if p < 0:
                continue
            weight = snapshot.weight(snapshot.ids[p], snapshot.ids[v])
            assert wave_dist[p] + weight == wave_dist[v]


@requires_numpy
@pytest.mark.parametrize("seed", SEEDS)
def test_wavefront_constraints_identical(seed: int) -> None:
    """Bans, allowed sets and cutoffs prune exactly like the reference."""
    rng = random.Random(seed + 50)
    graph = random_graph(90, 240, seed=seed)
    snapshot = CSRSnapshot(graph)
    vertices = list(graph.vertices())
    index_of = snapshot.index_of
    for _ in range(4):
        source = rng.choice(vertices)
        banned_vertices = set(rng.sample(vertices, 7)) - {source}
        banned_edges = set()
        for u, v, _ in rng.sample(list(graph.edges()), 8):
            banned_edges.add((u, v))
            banned_edges.add((v, u))
        allowed = set(rng.sample(vertices, 70)) | {source}
        cutoff = rng.uniform(8.0, 25.0)
        reference, _ = dijkstra(
            graph,
            source,
            allowed_vertices=allowed,
            banned_vertices=banned_vertices,
            banned_edges=banned_edges,
            cutoff=cutoff,
        )
        wave_dist, _ = wavefront_sssp(
            snapshot,
            index_of[source],
            allowed={index_of[v] for v in allowed if v in index_of},
            banned_vertices={
                index_of[v] for v in banned_vertices if v in index_of
            },
            banned_pairs={
                (index_of[u], index_of[v])
                for u, v in banned_edges
                if u in index_of and v in index_of
            },
            cutoff=cutoff,
        )
        labelled = {
            snapshot.ids[i]: wave_dist[i]
            for i in range(snapshot.num_vertices)
            if not math.isinf(wave_dist[i])
        }
        assert labelled == reference


@requires_numpy
@pytest.mark.parametrize("seed", SEEDS)
def test_wavefront_target_early_exit_identical(seed: int) -> None:
    rng = random.Random(seed + 80)
    graph = random_graph(120, 330, seed=seed)
    snapshot = CSRSnapshot(graph)
    n = snapshot.num_vertices
    for _ in range(6):
        source, target = rng.randrange(n), rng.randrange(n)
        heap_dist, _, _ = dijkstra_arrays(
            snapshot.rows, n, source, target=target, track_touched=False
        )
        wave_dist, wave_pred = wavefront_sssp(snapshot, source, target=target)
        assert wave_dist[target] == heap_dist[target]
        if not math.isinf(wave_dist[target]) and target != source:
            # The predecessor chain to the target must exist and weigh
            # exactly the reported distance.
            total, vertex = 0.0, target
            while vertex != source:
                p = int(wave_pred[vertex])
                assert p >= 0
                total = wave_dist[p] + snapshot.weight(
                    snapshot.ids[p], snapshot.ids[vertex]
                )
                assert total == wave_dist[vertex]
                vertex = p


# ----------------------------------------------------------------------
# multi-source batch
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("seed", SEEDS)
def test_batch_rows_equal_individual_searches(seed: int) -> None:
    graph = random_graph(110, 300, seed=seed)
    snapshot = CSRSnapshot(graph)
    n = snapshot.num_vertices
    rng = random.Random(seed + 10)
    sources = sorted(rng.sample(range(n), 9))
    dist, _pred = dijkstra_arrays_batch(snapshot, sources)
    for row, source in enumerate(sources):
        single, _ = wavefront_sssp(snapshot, source)
        assert list(dist[row]) == list(single)
    # Per-source target early exit: each row's target label is exact.
    targets = [rng.randrange(n) for _ in sources]
    tdist, tpred = dijkstra_arrays_batch(snapshot, sources, targets=targets)
    for row, (source, target) in enumerate(zip(sources, targets)):
        heap_dist, _, _ = dijkstra_arrays(
            snapshot.rows, n, source, target=target, track_touched=False
        )
        assert tdist[row][target] == heap_dist[target]


@requires_numpy
@pytest.mark.parametrize("seed", SEEDS)
def test_batch_paths_identical_across_update_rounds(seed: int) -> None:
    """Micro-batched point-to-point answers track the heap kernel exactly
    through weight-update/refresh cycles."""
    rng = random.Random(seed + 20)
    graph = random_graph(100, 270, seed=seed)
    snapshot = CSRSnapshot(graph)
    vertices = list(graph.vertices())
    for _round in range(4):
        graph.apply_updates(_random_updates(graph, rng))
        snapshot.refresh()
        pairs = [
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(8)
        ]
        batched = batch_shortest_paths(snapshot, pairs)
        for (source, target), path in zip(pairs, batched):
            try:
                expected = shortest_path(snapshot, source, target)
            except Exception:
                assert path is None or path.distance == 0.0
                continue
            assert path is not None
            assert path.distance == expected.distance
            # The returned sequence is tie-order free but must be a real
            # path of exactly that weight.
            total = sum(
                snapshot.weight(u, v)
                for u, v in zip(path.vertices, path.vertices[1:])
            )
            assert total == path.distance


# ----------------------------------------------------------------------
# numpy-bulk landmark builds
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("directed", [False, True])
def test_landmark_wavefront_build_identical(
    seed: int, directed: bool, monkeypatch
) -> None:
    """Forcing every table through the wavefront build changes nothing:
    same landmarks, same bound arrays, element for element."""
    graph = random_graph(130, 380, seed=seed, directed=directed)
    snapshot = CSRSnapshot(graph)
    rng = random.Random(seed + 30)
    targets = rng.sample(list(snapshot.ids), 6)
    baseline = LandmarkLowerBounds(snapshot, num_landmarks=4)
    expected = {t: baseline.bounds_to(t) for t in targets}
    monkeypatch.setattr(heuristics_module, "_BULK_BUILD_MIN_VERTICES", 1)
    bulk = LandmarkLowerBounds(snapshot, num_landmarks=4)
    assert bulk.landmarks == baseline.landmarks
    for t in targets:
        bounds = bulk.bounds_to(t)
        assert isinstance(bounds, list)
        assert bounds == expected[t]


# ----------------------------------------------------------------------
# profiling: frontier counters and the generic-fallback fix
# ----------------------------------------------------------------------
@requires_numpy
def test_wavefront_profiling_counters() -> None:
    graph = road_network(12, 12, seed=1)
    snapshot = CSRSnapshot(graph)
    off_dist, _ = wavefront_sssp(snapshot, 0)
    with collecting() as counters:
        on_dist, _ = wavefront_sssp(snapshot, 0)
        assert counters.searches == 1
        assert counters.buckets > 0
        assert counters.scatter_relaxations > 0
        assert counters.frontier_peak > 0
        before = counters.searches
        dijkstra_arrays_batch(snapshot, [0, 5, 9])
        assert counters.searches == before + 3
    # Profiling observes, never steers.
    assert list(off_dist) == list(on_dist)


def test_new_counters_merge_and_fold() -> None:
    a = KernelCounters()
    a.buckets, a.scatter_relaxations, a.frontier_peak = 3, 100, 40
    b = KernelCounters()
    b.buckets, b.scatter_relaxations, b.frontier_peak = 2, 50, 70
    a.merge(b)
    assert a.buckets == 5
    assert a.scatter_relaxations == 150
    assert a.frontier_peak == 70  # gauge merges by max

    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    a.fold_into(registry)
    flat = registry.as_dict()
    assert flat["kernel_buckets_total"] == 5
    assert flat["kernel_scatter_relaxations_total"] == 150
    assert flat["kernel_frontier_peak"] == 70


def test_generic_fallback_routes_through_kernel_counters() -> None:
    """Regression (PR-7 satellite): the ``dijkstra()`` combinations that
    bypass the kernel fast paths — ``targets`` with ban sets, ``cutoff``
    without a resolvable target — used to run uncounted."""
    graph = random_graph(60, 160, seed=3)
    snapshot = CSRSnapshot(graph)
    vertices = list(graph.vertices())
    targets = set(vertices[5:9])
    banned = {vertices[10]}

    plain = dijkstra(snapshot, vertices[0], targets=targets, banned_vertices=banned)
    with collecting() as counters:
        profiled = dijkstra(
            snapshot, vertices[0], targets=targets, banned_vertices=banned
        )
        assert counters.searches == 1
        assert counters.settled > 0
        assert counters.relaxed > 0
        assert counters.heap_pushes > 0
        assert counters.heap_peak > 0
    assert profiled == plain  # instrumentation cannot change labels

    with collecting() as counters:
        dijkstra(snapshot, vertices[0], cutoff=9.0)  # cutoff, no target
        assert counters.searches == 1
        assert counters.pruned > 0

    # Dict graphs share the same gate, so cross-path totals stay consistent.
    with collecting() as counters:
        dijkstra(graph, vertices[0], targets=targets, banned_vertices=banned)
        assert counters.searches == 1
        assert counters.settled > 0
