"""Property-based tests (hypothesis) for the core invariants of the library.

These tests generate random connected graphs, random queries and random
weight perturbations, and check the invariants the paper's correctness
argument relies on:

* Yen's and FindKSP's outputs agree and are sorted lists of distinct simple
  paths;
* KSP-DG's output distances equal Yen's for the same query, including after
  arbitrary weight changes handled through DTLP maintenance;
* DTLP lower bound distances never exceed true shortest distances;
* the graph partition covers all vertices and edges with edge-disjoint
  subgraphs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import yen_k_shortest_paths
from repro.algorithms.dijkstra import dijkstra
from repro.algorithms.find_ksp import find_ksp
from repro.core import DTLP, DTLPConfig, KSPDG
from repro.graph import partition_graph, random_graph
from repro.graph.graph import WeightUpdate, edge_key

# Keep hypothesis examples modest: each example builds graphs and indexes.
# Derandomized with no example database, so tier-1 runs are repeatable.
COMMON_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
    database=None,
)


@st.composite
def graph_and_query(draw):
    """A random connected graph plus a random (source, target, k) query."""
    num_vertices = draw(st.integers(min_value=6, max_value=22))
    extra_edges = draw(st.integers(min_value=0, max_value=num_vertices))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    graph = random_graph(num_vertices, num_vertices - 1 + extra_edges, seed=seed)
    vertices = sorted(graph.vertices())
    source = draw(st.sampled_from(vertices))
    target = draw(st.sampled_from([v for v in vertices if v != source]))
    k = draw(st.integers(min_value=1, max_value=4))
    return graph, source, target, k


def _random_update_batch(graph, update_seed):
    """Rescale a random third of the edges by a factor in [0.3, 2.5]."""
    rng = random.Random(update_seed)
    edges = [(u, v) for u, v, _ in graph.edges()]
    return [
        WeightUpdate(u, v, graph.initial_weight(u, v) * rng.uniform(0.3, 2.5))
        for u, v in rng.sample(edges, max(1, len(edges) // 3))
    ]


class TestKSPAlgorithmsAgree:
    @given(data=graph_and_query())
    @settings(**COMMON_SETTINGS)
    def test_yen_output_sorted_simple_distinct(self, data):
        graph, source, target, k = data
        paths = yen_k_shortest_paths(graph, source, target, k)
        distances = [path.distance for path in paths]
        assert distances == sorted(distances)
        assert len({path.vertices for path in paths}) == len(paths)
        for path in paths:
            assert path.is_simple()
            assert graph.path_distance(path.vertices) == pytest.approx(path.distance)

    @given(data=graph_and_query())
    @settings(**COMMON_SETTINGS)
    def test_find_ksp_matches_yen(self, data):
        graph, source, target, k = data
        expected = [p.distance for p in yen_k_shortest_paths(graph, source, target, k)]
        actual = [p.distance for p in find_ksp(graph, source, target, k)]
        assert actual == pytest.approx(expected)

    @given(data=graph_and_query())
    @settings(**COMMON_SETTINGS)
    def test_ksp_dg_matches_yen_on_static_graph(self, data):
        graph, source, target, k = data
        z = max(4, graph.num_vertices // 3)
        dtlp = DTLP(graph, DTLPConfig(z=z, xi=2)).build()
        engine = KSPDG(dtlp)
        expected = [p.distance for p in yen_k_shortest_paths(graph, source, target, k)]
        actual = engine.query(source, target, k).distances
        assert [round(d, 6) for d in actual] == [round(d, 6) for d in expected]

    @given(data=graph_and_query(), update_seed=st.integers(min_value=0, max_value=999))
    @settings(**COMMON_SETTINGS)
    def test_ksp_dg_matches_yen_after_random_updates(self, data, update_seed):
        graph, source, target, k = data
        z = max(4, graph.num_vertices // 3)
        dtlp = DTLP(graph, DTLPConfig(z=z, xi=2)).build()
        graph.add_listener(dtlp.handle_updates)
        graph.apply_updates(_random_update_batch(graph, update_seed))
        engine = KSPDG(dtlp)
        expected = [p.distance for p in yen_k_shortest_paths(graph, source, target, k)]
        actual = engine.query(source, target, k).distances
        assert [round(d, 6) for d in actual] == [round(d, 6) for d in expected]

    # Counterexamples to the two properties above, found by search over graph
    # seeds 0-10,000 (the derandomized budgets no longer reach them) and
    # pinned for the exactness fix (ROADMAP, first open item).  On 6-vertex
    # graphs KSP-DG misses the second path of query (1, 3, k=2): on seed 8
    # after update batch 174 — [1.0, 15.778605] against Yen's [1.0, 15.0],
    # path 1-5-0-3 missed — whether the index was maintained through the
    # update or built fresh on the updated graph, and on seed 566 with no
    # update at all ([2.0] against [2.0, 13.0], path 1-2-0-5-3 missed).  So
    # the defect is in the termination/bound logic, not in maintenance.
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="KSP-DG misses a k-th path (ROADMAP, first open item)",
    )
    @pytest.mark.parametrize(
        "graph_seed, update_seed, maintained",
        [
            pytest.param(8, 174, True, id="seed8-maintained"),
            pytest.param(8, 174, False, id="seed8-rebuilt"),
            pytest.param(566, None, False, id="seed566-static"),
        ],
    )
    def test_ksp_dg_matches_yen_on_pinned_counterexamples(
        self, graph_seed, update_seed, maintained
    ):
        graph = random_graph(6, 8, seed=graph_seed)
        config = DTLPConfig(z=4, xi=2)
        dtlp = DTLP(graph, config).build().attach() if maintained else None
        if update_seed is not None:
            graph.apply_updates(_random_update_batch(graph, update_seed))
        if dtlp is None:
            dtlp = DTLP(graph, config).build()
        expected = [p.distance for p in yen_k_shortest_paths(graph, 1, 3, 2)]
        actual = KSPDG(dtlp).query(1, 3, 2).distances
        assert [round(d, 6) for d in actual] == [round(d, 6) for d in expected]


class TestIndexInvariants:
    @given(
        num_vertices=st.integers(min_value=8, max_value=24),
        seed=st.integers(min_value=0, max_value=10_000),
        z=st.integers(min_value=4, max_value=12),
    )
    @settings(**COMMON_SETTINGS)
    def test_partition_covers_graph(self, num_vertices, seed, z):
        graph = random_graph(num_vertices, num_vertices + 5, seed=seed)
        partition = partition_graph(graph, z)
        covered_vertices = set()
        covered_edges = set()
        for subgraph in partition:
            covered_vertices |= subgraph.vertices
            for key in subgraph.edge_set:
                assert key not in covered_edges
                covered_edges.add(key)
        assert covered_vertices == set(graph.vertices())
        assert covered_edges == {edge_key(u, v) for u, v, _ in graph.edges()}

    @given(
        num_vertices=st.integers(min_value=8, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(**COMMON_SETTINGS)
    def test_skeleton_weights_are_lower_bounds_on_static_graph(self, num_vertices, seed):
        """On the build-time snapshot the skeleton weights are exact lower bounds."""
        graph = random_graph(num_vertices, num_vertices + 6, seed=seed)
        dtlp = DTLP(graph, DTLPConfig(z=max(4, num_vertices // 3), xi=2)).build()
        partition = dtlp.partition
        for u, v, weight in dtlp.skeleton_graph.edges():
            within = None
            for subgraph_id in partition.subgraphs_containing_pair(u, v):
                distances, _ = dijkstra(partition.subgraph(subgraph_id), u, target=v)
                if v in distances and (within is None or distances[v] < within):
                    within = distances[v]
            assert within is not None
            assert weight <= within + 1e-6

    @given(
        num_vertices=st.integers(min_value=8, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
        update_seed=st.integers(min_value=0, max_value=999),
    )
    @settings(**COMMON_SETTINGS)
    def test_skeleton_weights_bounded_by_witness_distances(self, num_vertices, seed, update_seed):
        """After arbitrary updates the skeleton weight never exceeds the distance
        of any indexed bounding path between the pair.

        This is the contract the witness-based Theorem 1 implementation
        guarantees unconditionally (the stricter "never exceeds the true
        within-subgraph shortest distance" holds under the paper's
        complete-bounding-path-set assumption and is asserted on the static
        snapshot above; the end-to-end guarantee that query answers equal
        Yen's is covered by the KSP-DG property tests).
        """
        graph = random_graph(num_vertices, num_vertices + 6, seed=seed)
        dtlp = DTLP(graph, DTLPConfig(z=max(4, num_vertices // 3), xi=2)).build()
        graph.add_listener(dtlp.handle_updates)
        rng = random.Random(update_seed)
        edges = [(u, v) for u, v, _ in graph.edges()]
        batch = [
            WeightUpdate(u, v, graph.initial_weight(u, v) * rng.uniform(0.4, 2.0))
            for u, v in rng.sample(edges, max(1, len(edges) // 2))
        ]
        graph.apply_updates(batch)
        partition = dtlp.partition
        for u, v, weight in dtlp.skeleton_graph.edges():
            witness_best = None
            for subgraph_id in partition.subgraphs_containing_pair(u, v):
                index = dtlp.subgraph_index(subgraph_id)
                for path in index.bounding_paths(u, v) or index.bounding_paths(v, u):
                    if witness_best is None or path.distance < witness_best:
                        witness_best = path.distance
            if witness_best is not None:
                assert weight <= witness_best + 1e-6

    @given(
        num_vertices=st.integers(min_value=6, max_value=18),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(**COMMON_SETTINGS)
    def test_bounding_path_distances_track_graph(self, num_vertices, seed):
        graph = random_graph(num_vertices, num_vertices + 4, seed=seed)
        dtlp = DTLP(graph, DTLPConfig(z=max(4, num_vertices // 2), xi=2)).build()
        graph.add_listener(dtlp.handle_updates)
        rng = random.Random(seed)
        edges = [(u, v) for u, v, _ in graph.edges()]
        u, v = rng.choice(edges)
        graph.update_weight(u, v, graph.weight(u, v) * 2 + 1)
        for index in dtlp.subgraph_indexes().values():
            for pair in index.boundary_pairs():
                for path in index.bounding_paths(*pair):
                    assert path.distance == pytest.approx(
                        graph.path_distance(path.vertices)
                    )
