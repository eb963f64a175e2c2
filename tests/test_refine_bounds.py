"""Subgraph Yen that bounds itself, and the join that remembers its prefixes.

Four contracts of the refine step (``ARCHITECTURE.md``, "Goal-directed
search & pruning"):

* a pruned Yen on a snapshot prunes against distance-to-target bounds it
  computes for itself — they must follow the snapshot through
  ``apply_changes`` (a maintained subgraph snapshot, a refreshed stand-alone
  one), survive ``inf`` entries (a target some vertices cannot reach) and an
  ``allowed_vertices`` restriction, and never change a path;
* those bounds come from one resumable search from the target per
  enumeration, settled only as far as the prune bound reaches: what it
  settles is exactly what the full search (``bounds_to``) computes;
* the answers of three pinned query sequences on the benchmark's two
  networks are the ones the commit *before* self-bounding gave, to the byte
  (sha256 over ``repr`` of every distance and vertex tuple);
* ``KSPDGQuery._candidates`` with its per-query table of joined prefixes
  returns, for every reference path of those sequences, what the plain
  left-to-right fold of ``join_paths`` returns, and the best-first
  ``join_paths`` returns what pricing, building and sorting every
  concatenation returns.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import dijkstra
from repro.algorithms.yen import yen_k_shortest_paths
from repro.core import DTLP, DTLPConfig, KSPDG
from repro.core.ksp_dg import KSPDGQuery, join_paths
from repro.core.skeleton import SkeletonSearchView
from repro.dynamics import TrafficModel
from repro.graph import clustered_road_network, road_network
from repro.graph.errors import PathNotFoundError
from repro.graph.graph import WeightUpdate
from repro.graph.paths import Path, merge_paths
from repro.kernel import CSRSnapshot
from repro.obs.profile import collecting
from repro.workloads import QueryGenerator

INF = float("inf")
FIXED_BUDGET = dict(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _signature(paths):
    return [(path.distance, path.vertices) for path in paths]


def _yen(graph_like, source, target, k, prune, allowed=None):
    try:
        return _signature(
            yen_k_shortest_paths(
                graph_like, source, target, k, allowed_vertices=allowed, prune=prune
            )
        )
    except PathNotFoundError:
        return None


# ----------------------------------------------------------------------
# (b) self-bounded ≡ unpruned while the weights move
# ----------------------------------------------------------------------
class TestSelfBoundedAcrossRounds:
    def test_maintained_subgraph_snapshots_follow_the_rounds(self):
        graph = road_network(9, 9, seed=41)
        dtlp = DTLP(graph, DTLPConfig(z=20, xi=2)).build().attach()
        model = TrafficModel(graph, alpha=0.35, tau=0.10, direction="increase", seed=42)
        rng = random.Random(43)
        subgraphs = dtlp.partition.subgraphs
        held = {s.subgraph_id: dtlp.subgraph_snapshot(s.subgraph_id) for s in subgraphs}
        for _ in range(4):
            model.advance()
            for subgraph in subgraphs:
                snapshot = dtlp.subgraph_snapshot(subgraph.subgraph_id)
                assert snapshot is held[subgraph.subgraph_id]  # maintained, not rebuilt
                vertices = sorted(subgraph.vertices)
                source, target = rng.sample(vertices, 2)
                # The bounds are priced on the weights apply_changes left.
                assert snapshot.bounds_to(target) == CSRSnapshot(subgraph).bounds_to(target)
                allowed = set(rng.sample(vertices, max(2, 2 * len(vertices) // 3)))
                allowed.update((source, target))
                for k in (2, 4):
                    expected = _yen(subgraph, source, target, k, prune=False)
                    assert _yen(snapshot, source, target, k, prune=True) == expected
                    restricted = _yen(subgraph, source, target, k, False, allowed)
                    assert _yen(snapshot, source, target, k, True, allowed) == restricted

    def test_bounds_are_the_exact_distances_to_the_target(self):
        graph = road_network(6, 6, seed=44, directed=True)
        snapshot = CSRSnapshot(graph)
        for target in (0, 17, 35):
            bounds = snapshot.bounds_to(target)
            for vertex in graph.vertices():
                distances, _ = dijkstra(graph, vertex, target=target)
                assert bounds[snapshot.index_of[vertex]] == pytest.approx(
                    distances.get(target, INF), rel=1e-12
                )
        assert snapshot.bounds_to(10_000) is None

    def test_targets_some_vertices_cannot_reach(self):
        """Directed network plus one-way dead ends: their bound is ``inf``."""
        graph = road_network(6, 6, seed=45, directed=True)
        rng = random.Random(46)
        city = sorted(graph.vertices())
        dead_ends = list(range(100, 106))
        for dead_end in dead_ends:
            for entry in rng.sample(city, 3):
                graph.add_edge(entry, dead_end, float(rng.randint(1, 3)))
        graph.add_edge(100, 101, 1.0)  # the dead ends reach each other, never back
        snapshot = CSRSnapshot(graph)
        edges = [(u, v) for u, v, _ in graph.edges()]
        for round_number in range(3):
            for _ in range(12):
                source, target = rng.sample(city, 2)
                bounds = snapshot.bounds_to(target)
                assert all(bounds[snapshot.index_of[v]] == INF for v in dead_ends)
                for k in (3, 5):
                    expected = _yen(graph, source, target, k, prune=False)
                    assert _yen(snapshot, source, target, k, prune=True) == expected
            # into a dead end: every city vertex may reach it, it reaches nothing
            assert _yen(snapshot, city[0], 100, 3, True) == _yen(graph, city[0], 100, 3, False)
            assert _yen(snapshot, 100, city[0], 3, True) is None
            graph.apply_updates(
                [
                    WeightUpdate(u, v, round(graph.weight(u, v) * (1 + rng.uniform(0, 0.1)), 6))
                    for u, v in rng.sample(edges, len(edges) // 3)
                ]
            )
            assert snapshot.refresh() > 0

    def test_one_reverse_search_only_as_far_as_bound(self, monkeypatch):
        """Unpruned and k=1 enumerations run no reverse search; a pruned one
        runs at most one, which settles no more indices than the full
        search — and, on these queries, fewer in total."""
        searches = []
        reverse_search = CSRSnapshot.reverse_search

        def counted(self, target):
            search = reverse_search(self, target)
            searches.append(search)
            return search

        monkeypatch.setattr(CSRSnapshot, "reverse_search", counted)
        snapshot = CSRSnapshot(road_network(6, 6, seed=47))
        yen_k_shortest_paths(snapshot, 0, 35, 4, prune=False)
        yen_k_shortest_paths(snapshot, 0, 35, 1, prune=True)
        assert searches == []
        rng = random.Random(47)
        settled_total = full_total = 0
        for _ in range(20):
            source, target = rng.sample(range(36), 2)
            full = reverse_search(snapshot, target)
            full.extend(INF)
            full_settled = sum(distance != INF for distance in full.settled)
            del searches[:]
            yen_k_shortest_paths(snapshot, source, target, rng.choice((2, 3, 4)), prune=True)
            assert len(searches) == 1  # k >= 2 finds even the first path under a bound
            settled = sum(distance != INF for distance in searches[0].settled)
            assert settled <= full_settled
            settled_total += settled
            full_total += full_settled
        assert settled_total < full_total

    def test_reference_enumerator_runs_one_reverse_search_per_query(self, monkeypatch):
        skeleton_searches = []
        reverse_search = CSRSnapshot.reverse_search

        def counted(self, target):
            if isinstance(self, SkeletonSearchView):
                skeleton_searches.append(target)
            return reverse_search(self, target)

        monkeypatch.setattr(CSRSnapshot, "reverse_search", counted)
        graph = road_network(8, 8, seed=48)
        dtlp = DTLP(graph, DTLPConfig(z=16, xi=2)).build()
        queries = QueryGenerator(graph, seed=48, min_hops=4).generate(6, k=3)
        for pruning, expected in ((False, []), (True, [q.target for q in queries])):
            del skeleton_searches[:]
            engine = KSPDG(dtlp, pruning=pruning)
            for query in queries:
                engine.query(query.source, query.target, query.k)
            assert skeleton_searches == expected


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    directed=st.booleans(),
    target=st.integers(min_value=0, max_value=35),
    stop=st.integers(min_value=0, max_value=35),
    radii=st.lists(
        # integer radii land exactly on the integer-weighted distances
        st.one_of(st.integers(min_value=0, max_value=30).map(float), st.floats(0.0, 40.0)),
        max_size=5,
    ),
)
@settings(**FIXED_BUDGET)
def test_resumable_bounds_equal_bounds_to_on_every_settled_index(
    seed, directed, target, stop, radii
):
    """Stopped at a vertex, then extended ring by ring in any order: every
    settled index carries the full search's distance, every index within
    the largest radius asked for is settled, and nothing farther than that
    radius or the stop vertex is.  The counting loop a profiling collector
    switches to settles the same."""
    graph = road_network(6, 6, seed=seed, directed=directed)
    snapshot = CSRSnapshot(graph)
    full = snapshot.bounds_to(target)
    stop_index = snapshot.index_of[stop]

    def rings():
        search = snapshot.reverse_search(target)
        yield search.extend(INF, stop=stop_index), list(search.settled)
        for radius in radii:
            yield search.extend(radius), list(search.settled)

    lean = list(rings())
    with collecting() as counters:
        counted = list(rings())
    assert counted == lean
    assert counters.searches == 1 and counters.settled == sum(
        distance != INF for distance in lean[-1][1]
    )
    stop_distance = lean[0][0]
    assert stop_distance == full[stop_index]
    assert lean[0][1][stop_index] == INF
    reached = -INF
    for radius, (_, settled) in zip(radii, lean[1:]):
        reached = max(reached, radius)
        for index, distance in enumerate(settled):
            if distance != INF:
                assert distance == full[index] <= max(reached, stop_distance)
            elif full[index] <= reached:
                raise AssertionError(f"index {index} at {full[index]} <= {reached} unsettled")


def _brute_force_join(prefixes, extensions, k):
    """``join_paths`` before it went best first: build, filter, sort all."""
    joined = []
    for prefix in prefixes:
        for extension in extensions:
            vertices = prefix.vertices + extension.vertices[1:]
            if len(set(vertices)) == len(vertices):
                joined.append(merge_paths(prefix, extension))
    joined.sort()
    return joined[:k]


def _half_paths(junction_first: bool):
    """Paths through a junction 0 over a pool of six vertices, so prefix and
    extension overlap often, with small integer distances, so prices tie."""
    middle = st.lists(st.integers(min_value=1, max_value=6), unique=True, max_size=3)
    distance = st.integers(min_value=0, max_value=4).map(float)
    return st.lists(
        st.builds(
            lambda d, vertices: Path(d, (0, *vertices) if junction_first else (*vertices, 0)),
            distance,
            middle,
        ),
        max_size=5,
    )


@given(
    prefixes=_half_paths(junction_first=False),
    extensions=_half_paths(junction_first=True),
    k=st.integers(min_value=1, max_value=6),
)
@settings(**FIXED_BUDGET)
def test_best_first_join_equals_the_brute_force_join(prefixes, extensions, k):
    assert _signature(join_paths(prefixes, extensions, k)) == _signature(
        _brute_force_join(prefixes, extensions, k)
    )


# ----------------------------------------------------------------------
# (c) + (d) pinned sequences on the benchmark's networks
# ----------------------------------------------------------------------
#: perf/stack.py's networks and index configuration.
NETWORKS = {
    "M": dict(clusters_per_side=6, cluster_rows=8, cluster_cols=8, seed=7),
    "L": dict(clusters_per_side=9, cluster_rows=8, cluster_cols=8, seed=7),
}
#: sha256 of the answers, captured on the commit before pruned Yen bounded
#: itself (PR 22, 550f7cd) with this file's own helpers.
PINNED_DIGESTS = {
    "M-cold": "b3d5074fec50ea16eee5bf567e29307c5e5b7bf2f853c3a8fb5995d2c2282d56",
    "L-cold": "7b697879ee6fd2e938fc5c106e1525aeeba98e23809159bd11b7766c8740cce7",
    "M-traffic": "f6b1ebd95ba39ea832b3d542bc09890117596f7f26e84c36cfd37a7c217c2b08",
}


def _pinned_engine(network: str):
    graph = clustered_road_network(**NETWORKS[network])
    dtlp = DTLP(graph, DTLPConfig(z=64, xi=3, partitioner="mincut")).build().attach()
    return graph, KSPDG(dtlp)


def _cold_answers(network: str):
    """100 distinct long-range queries, k=3, on a fresh index."""
    graph, engine = _pinned_engine(network)
    queries = QueryGenerator(graph, seed=23, min_hops=6).generate(100, k=3)
    return [engine.query(q.source, q.target, q.k) for q in queries]


def _traffic_answers():
    """5 rounds of the benchmark's traffic, 10 queries after each, k=3."""
    graph, engine = _pinned_engine("M")
    generator = QueryGenerator(graph, seed=23, min_hops=6)
    model = TrafficModel(graph, alpha=0.35, tau=0.10, direction="increase", seed=23)
    results = []
    for round_number in range(5):
        model.advance()
        for index in range(10):
            q = generator.generate_one(round_number * 10 + index, 3)
            results.append(engine.query(q.source, q.target, q.k))
    return results


SEQUENCES = {
    "M-cold": lambda: _cold_answers("M"),
    "L-cold": lambda: _cold_answers("L"),
    "M-traffic": _traffic_answers,
}


def _digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr(_signature(result.paths)).encode())
    return digest.hexdigest()


def _fold_join(pairs, partial_cache, k):
    """``_candidates`` as it was before the table: one fold, nothing kept."""
    merged = []
    for index, pair in enumerate(pairs):
        partials = partial_cache.get(pair)
        if not partials:
            return []
        merged = join_paths(merged, partials, k) if index else list(partials)
        if not merged:
            return []
    return merged


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_pinned_sequences_answer_as_before_and_join_as_the_fold(name, monkeypatch):
    candidates = KSPDGQuery._candidates
    compared = {"reference_paths": 0, "resumed": 0}

    def checked(self, pairs, partial_cache):
        resumed = any(pairs[:done] in self._joined_prefixes for done in range(1, len(pairs)))
        merged = candidates(self, pairs, partial_cache)
        assert _signature(merged) == _signature(_fold_join(pairs, partial_cache, self._k))
        compared["reference_paths"] += 1
        compared["resumed"] += resumed
        return merged

    monkeypatch.setattr(KSPDGQuery, "_candidates", checked)
    results = SEQUENCES[name]()
    assert _digest(results) == PINNED_DIGESTS[name]
    assert compared["reference_paths"] == sum(result.iterations for result in results)
    # The table is exercised, not merely harmless: later reference paths of a
    # query do resume from a prefix an earlier one joined.
    assert compared["resumed"] > len(results) // 4
