"""Property tests: the snapshot kernel is bit-identical to the dict reference.

Every test runs the same computation twice — once on the dict-of-dict
graph objects (the reference implementation) and once through
:class:`~repro.kernel.snapshot.CSRSnapshot` — over randomized graphs,
endpoints and weight-update histories, and asserts the *exact* same output:
same distances, same predecessor choices on ties, same path sequences in
the same order.  This is the contract that lets the snapshot kernel be the
production default while the dict path stays the executable specification
(see ``ARCHITECTURE.md``).

The kernel keeps one lean loop per search shape plus one counting loop that
replays any of them under a profiling collector; the same randomized inputs
therefore also run collector-on against collector-off, and a fixed query
batch pins the counter totals themselves.
"""

from __future__ import annotations

import itertools
import random

import pytest
from conftest import LooseLowerBounds

from repro.algorithms.dijkstra import dijkstra, shortest_path
from repro.algorithms.find_ksp import find_ksp
from repro.algorithms.yen import yen_k_shortest_paths
from repro.cli import build_parser
from repro.core import DTLP, DTLPConfig, KSPDG
from repro.core.ksp_dg import validate_kernel
from repro.dynamics import TrafficModel
from repro.graph import road_network
from repro.graph.errors import PathNotFoundError, QueryError
from repro.graph.generators import random_graph
from repro.graph.graph import WeightUpdate
from repro.kernel import CSRSnapshot
from repro.kernel.primitives import (
    bounded_dijkstra_arrays,
    dijkstra_arrays,
    dijkstra_arrays_multi,
    reconstruct_indices,
)
from repro.obs.profile import collecting
from repro.workloads import QueryGenerator

SEEDS = [0, 1, 2, 3, 4]
INF = float("inf")


def _random_updates(graph, rng: random.Random, fraction: float = 0.3):
    """A random weight-update batch over ``fraction`` of the edges."""
    edges = list(graph.edges())
    rng.shuffle(edges)
    picked = edges[: max(1, int(len(edges) * fraction))]
    return [
        WeightUpdate(u, v, round(rng.uniform(0.5, 12.0), 3)) for u, v, _ in picked
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_dijkstra_identical_on_random_graphs(seed: int) -> None:
    rng = random.Random(seed)
    graph = random_graph(120, 300, seed=seed)
    snapshot = CSRSnapshot(graph)
    for _ in range(8):
        source = rng.randrange(120)
        target = rng.randrange(120)
        assert dijkstra(graph, source) == dijkstra(snapshot, source)
        assert dijkstra(graph, source, target=target) == dijkstra(
            snapshot, source, target=target
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_dijkstra_identical_with_bans_and_allowed(seed: int) -> None:
    rng = random.Random(seed + 100)
    graph = random_graph(80, 200, seed=seed)
    snapshot = CSRSnapshot(graph)
    vertices = list(graph.vertices())
    for _ in range(8):
        source = rng.choice(vertices)
        target = rng.choice(vertices)
        banned_vertices = set(rng.sample(vertices, 8)) - {source}
        banned_edges = set()
        for u, v, _ in rng.sample(list(graph.edges()), 10):
            banned_edges.add((u, v))
            banned_edges.add((v, u))
        allowed = set(rng.sample(vertices, 60)) | {source, target}
        kwargs = dict(
            target=target,
            allowed_vertices=allowed,
            banned_vertices=banned_vertices,
            banned_edges=banned_edges,
        )
        assert dijkstra(graph, source, **kwargs) == dijkstra(snapshot, source, **kwargs)


def _constraint_sets(graph, rng: random.Random, source: int, target: int):
    """Random ``allowed`` / vertex-ban / edge-ban sets sparing the endpoints."""
    vertices = list(graph.vertices())
    banned_edges = set()
    for u, v, _ in rng.sample(list(graph.edges()), 8):
        banned_edges.add((u, v))
        banned_edges.add((v, u))
    return dict(
        allowed_vertices=set(rng.sample(vertices, 65)) | {source, target},
        banned_vertices=set(rng.sample(vertices, 6)) - {source, target},
        banned_edges=banned_edges,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_dijkstra_identical_for_every_parameter_combination(seed: int) -> None:
    """``dijkstra()`` on a snapshot, whichever loop answers (a kernel
    primitive, or the generic loop for ``targets`` with constraint sets and
    for ``cutoff`` without a resolvable target): equal to the dict reference,
    with and without a collector, and counted as exactly one search."""
    rng = random.Random(seed + 800)
    graph = random_graph(80, 200, seed=seed)
    snapshot = CSRSnapshot(graph)
    vertices = list(graph.vertices())
    source, target = rng.sample(vertices, 2)
    reachable = sorted(dijkstra(graph, source)[0].values())
    options = dict(
        target=[None, target, -1],  # -1: not a vertex of the graph
        targets=[None, set(rng.sample(vertices, 5))],
        cutoff=[None, reachable[len(reachable) // 2]],
        **{
            name: [None, value]
            for name, value in _constraint_sets(graph, rng, source, target).items()
        },
    )
    for values in itertools.product(*options.values()):
        kwargs = dict(zip(options, values))
        if kwargs["target"] is not None and kwargs["targets"] is not None:
            continue
        expected = dijkstra(graph, source, **kwargs)
        assert dijkstra(snapshot, source, **kwargs) == expected, kwargs
        with collecting() as prof:
            assert dijkstra(snapshot, source, **kwargs) == expected, kwargs
        assert prof.searches == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_entries_identical_counting_or_not(seed: int) -> None:
    """Every public heap primitive: bit-identical output with a collector
    active and inactive, and equal to the dict reference on the same inputs."""
    rng = random.Random(seed + 900)
    graph = random_graph(80, 200, seed=seed)
    snapshot = CSRSnapshot(graph)
    rows, n, ids, index_of = snapshot.rows, snapshot.num_vertices, snapshot.ids, snapshot.index_of
    vertices = list(graph.vertices())
    for _ in range(3):
        source, target = rng.sample(vertices, 2)
        s, t = index_of[source], index_of[target]
        targets = set(rng.sample(vertices, 5))
        constraints = _constraint_sets(graph, rng, source, target)
        index_constraints = dict(
            allowed={index_of[v] for v in constraints["allowed_vertices"]},
            banned_vertices={index_of[v] for v in constraints["banned_vertices"]},
            banned_pairs={(index_of[u], index_of[v]) for u, v in constraints["banned_edges"]},
        )
        bounds = LooseLowerBounds(snapshot, seed).bounds_to(target)
        finite = dijkstra(graph, source, target=target)[0].get(target, 5.0) * 1.2
        # (kernel call, the dict reference's arguments for the same search,
        #  whether every label must match or only the target's and its path)
        cases = [
            (lambda: dijkstra_arrays(rows, n, s), {}, True),
            (lambda: dijkstra_arrays(rows, n, s, target=t), dict(target=target), True),
            (
                lambda: dijkstra_arrays(rows, n, s, target=t, track_touched=False),
                dict(target=target),
                False,
            ),
            (
                lambda: dijkstra_arrays(rows, n, s, target=t, **index_constraints),
                dict(target=target, **constraints),
                True,
            ),
            (
                lambda: dijkstra_arrays_multi(rows, n, s, {index_of[v] for v in targets}),
                dict(targets=targets),
                True,
            ),
        ]
        for bound_array, cutoff, constrained, touched in itertools.product(
            [None, bounds], [finite, INF], [False, True], [False, True]
        ):
            cases.append((
                lambda b=bound_array, c=cutoff, k=constrained, tt=touched: (
                    bounded_dijkstra_arrays(
                        rows, n, s, t, bounds=b, cutoff=c, track_touched=tt,
                        **(index_constraints if k else {}),
                    )
                ),
                dict(
                    target=target,
                    cutoff=None if cutoff == INF else cutoff,
                    **(constraints if constrained else {}),
                ),
                # A lower-bound array under a finite cutoff prunes labels the
                # reference keeps; the target's label and path survive.
                touched and (bound_array is None or cutoff == INF),
            ))
        for call, reference_kwargs, every_label in cases:
            lean = call()
            with collecting() as prof:
                assert call() == lean
            assert prof.searches == 1
            dist, pred, touched = lean[0], lean[1], lean[-1]
            expected_dist, expected_pred = dijkstra(graph, source, **reference_kwargs)
            if every_label:
                assert {ids[i]: dist[i] for i in touched} == expected_dist
                assert {ids[i]: ids[pred[i]] for i in touched[1:]} == expected_pred
            if "target" in reference_kwargs:
                assert dist[t] == expected_dist.get(target, INF)
                if target in expected_dist:
                    chain = [target]
                    while chain[-1] != source:
                        chain.append(expected_pred[chain[-1]])
                    assert [ids[i] for i in reconstruct_indices(pred, s, t)] == chain[::-1]


@pytest.mark.parametrize("seed", SEEDS)
def test_shortest_path_identical(seed: int) -> None:
    rng = random.Random(seed + 200)
    graph = random_graph(100, 260, seed=seed)
    snapshot = CSRSnapshot(graph)
    for _ in range(10):
        source, target = rng.randrange(100), rng.randrange(100)
        assert shortest_path(graph, source, target) == shortest_path(
            snapshot, source, target
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("directed", [False, True])
def test_yen_identical(seed: int, directed: bool) -> None:
    rng = random.Random(seed + 300)
    graph = random_graph(60, 150, seed=seed, directed=directed)
    snapshot = CSRSnapshot(graph)
    for _ in range(4):
        source, target = rng.randrange(60), rng.randrange(60)
        try:
            expected = yen_k_shortest_paths(graph, source, target, 5)
        except PathNotFoundError:
            with pytest.raises(PathNotFoundError):
                yen_k_shortest_paths(snapshot, source, target, 5)
            continue
        assert yen_k_shortest_paths(snapshot, source, target, 5) == expected


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_find_ksp_identical(seed: int) -> None:
    rng = random.Random(seed + 400)
    graph = random_graph(60, 150, seed=seed)
    snapshot = CSRSnapshot(graph)
    for _ in range(4):
        source, target = rng.randrange(60), rng.randrange(60)
        assert find_ksp(graph, source, target, 4) == find_ksp(snapshot, source, target, 4)


@pytest.mark.parametrize("seed", SEEDS)
def test_identity_survives_update_refresh_cycles(seed: int) -> None:
    """Interleave weight updates with queries; refresh keeps results exact."""
    rng = random.Random(seed + 500)
    graph = random_graph(90, 220, seed=seed)
    snapshot = CSRSnapshot(graph)
    for _ in range(5):
        graph.apply_updates(_random_updates(graph, rng))
        snapshot.refresh()
        for _ in range(4):
            source, target = rng.randrange(90), rng.randrange(90)
            assert dijkstra(graph, source, target=target) == dijkstra(
                snapshot, source, target=target
            )
        source, target = rng.randrange(90), rng.randrange(90)
        assert yen_k_shortest_paths(graph, source, target, 4) == yen_k_shortest_paths(
            snapshot, source, target, 4
        )


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_ksp_dg_kernels_identical(seed: int) -> None:
    """Full KSP-DG stack: snapshot kernel equals dict kernel, path for path."""
    graph = road_network(12, 12, seed=seed)
    dtlp = DTLP(graph, DTLPConfig(z=24, xi=3)).build()
    fast = KSPDG(dtlp, kernel="snapshot")
    reference = KSPDG(dtlp, kernel="dict")
    rng = random.Random(seed + 600)
    vertices = list(graph.vertices())
    for _ in range(6):
        source, target = rng.choice(vertices), rng.choice(vertices)
        a = fast.query(source, target, 3)
        b = reference.query(source, target, 3)
        assert a.paths == b.paths


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_ksp_dg_kernels_identical_under_maintenance(seed: int) -> None:
    """Snapshot/dict equality holds across DTLP maintenance rounds."""
    graph = road_network(10, 10, seed=seed)
    dtlp = DTLP(graph, DTLPConfig(z=24, xi=3)).build().attach()
    fast = KSPDG(dtlp, kernel="snapshot")
    reference = KSPDG(dtlp, kernel="dict")
    model = TrafficModel(graph, alpha=0.25, tau=0.4, seed=seed)
    rng = random.Random(seed + 700)
    vertices = list(graph.vertices())
    for _ in range(4):
        model.advance()
        for _ in range(3):
            source, target = rng.choice(vertices), rng.choice(vertices)
            assert fast.query(source, target, 3).paths == reference.query(
                source, target, 3
            ).paths


#: The six heap ``KernelCounters`` totals — searches, settled, relaxed, pruned,
#: heap_pushes, heap_peak — of the fixed batch below, recorded at the commit
#: before the per-primitive counting twins were collapsed into one counting
#: loop: the collapse (and any later edit of a search loop) must count the
#: same work, not merely return the same paths.  The two pruned rows were
#: re-pinned when pruned Yen started bounding itself (the prune bound
#: tightens inside a deviation round on both kernels; on a snapshot each
#: pruned Yen adds one search from its target and prunes against the exact
#: distance left): (1557, 15695, 19270, 14248, 19270, 67) and
#: (1537, 18282, 22682, 44986, 22682, 67) before.  The snapshot row was
#: re-pinned again when each pruned enumeration got one resumable reverse
#: search, settled only as far as its prune bound reaches, and started
#: finding its first path under that bound (subgraph Yen with k >= 2, the
#: filter step's reference paths): as many searches where the bound turned
#: finite (the resumable search takes the full ``bounds_to``'s place, the
#: bounded first-path search the unbounded one's), one more where it never
#: did (the reverse search the first path now starts with), and far fewer
#: vertices settled and relaxed — (1696, 15744, 18666, 14396, 18666, 67)
#: before.  The unpruned rows are the original ones — ``pruning=False``
#: must never compute a bound.
GOLDEN_HEAP_TOTALS = {
    ("snapshot", True): (1723, 13141, 14897, 16943, 14897, 61),
    ("snapshot", False): (1856, 24700, 41383, 0, 41383, 68),
    ("dict", True): (1537, 16871, 20750, 45791, 20750, 67),
    ("dict", False): (1856, 24700, 41383, 0, 41383, 68),
}


@pytest.mark.parametrize("kernel, pruning", sorted(GOLDEN_HEAP_TOTALS))
def test_kernel_counter_totals_are_pinned(kernel: str, pruning: bool) -> None:
    graph = road_network(12, 12, seed=5)
    dtlp = DTLP(graph, DTLPConfig(z=24, xi=3)).build()
    engine = KSPDG(dtlp, kernel=kernel, pruning=pruning)
    with collecting() as prof:
        for query in QueryGenerator(graph, seed=5, min_hops=3).generate(20, k=3):
            engine.query(query.source, query.target, query.k)
    totals = (
        prof.searches, prof.settled, prof.relaxed,
        prof.pruned, prof.heap_pushes, prof.heap_peak,
    )
    assert totals == GOLDEN_HEAP_TOTALS[kernel, pruning]


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


def test_removed_fast_kernel_value_is_a_clean_error(capsys) -> None:
    """``fast`` selected nothing and is gone: an ordinary unknown-value error."""
    with pytest.raises(QueryError, match="unknown kernel 'fast'"):
        validate_kernel("fast")
    parser = build_parser()
    for command in ("bench", "replay", "serve", "serve-http", "loadtest"):
        arguments = [command, "--dataset", "NY", "--kernel"]
        assert parser.parse_args(arguments + ["dict"]).kernel == "dict"
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(arguments + ["fast"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fast'" in capsys.readouterr().err
