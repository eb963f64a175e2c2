"""Tests for repro.core.ksp_dg (the KSP-DG query algorithm).

The central contract: KSP-DG returns exactly the same k shortest path
distances as Yen's algorithm run on the full graph, for any query, including
after arbitrary weight changes (with the index maintained through
DTLP.handle_updates).
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import yen_k_shortest_paths
from repro.core import DTLP, DTLPConfig, KSPDG
from repro.dynamics import TrafficModel
from repro.graph import road_network
from repro.graph.errors import PathNotFoundError, QueryError
from repro.workloads import QueryGenerator


def assert_matches_yen(engine, graph, source, target, k):
    result = engine.query(source, target, k)
    try:
        expected = yen_k_shortest_paths(graph, source, target, k)
    except PathNotFoundError:
        expected = []
    assert [round(d, 6) for d in result.distances] == [
        round(p.distance, 6) for p in expected
    ], f"mismatch for query ({source}, {target}, k={k})"
    for path in result.paths:
        assert path.is_simple()
        assert path.source == source
        assert path.target == target
        # Reported distances are consistent with current weights.
        assert graph.path_distance(path.vertices) == pytest.approx(path.distance)
    return result


class TestQueryCorrectness:
    def test_matches_yen_on_small_network(self, small_road_network, small_dtlp):
        engine = KSPDG(small_dtlp)
        rng = random.Random(3)
        vertices = sorted(small_road_network.vertices())
        for _ in range(10):
            source, target = rng.sample(vertices, 2)
            assert_matches_yen(engine, small_road_network, source, target, 3)

    def test_matches_yen_for_various_k(self, small_road_network, small_dtlp):
        engine = KSPDG(small_dtlp)
        for k in (1, 2, 5, 8):
            assert_matches_yen(engine, small_road_network, 0, 63, k)

    def test_boundary_endpoints(self, small_road_network, small_dtlp):
        engine = KSPDG(small_dtlp)
        boundary = sorted(small_dtlp.partition.boundary_vertices)
        assert_matches_yen(engine, small_road_network, boundary[0], boundary[-1], 4)

    def test_non_boundary_endpoints(self, small_road_network, small_dtlp):
        engine = KSPDG(small_dtlp)
        partition = small_dtlp.partition
        interior = [
            vertex
            for vertex in small_road_network.vertices()
            if not partition.is_boundary(vertex)
        ]
        assert len(interior) >= 2
        assert_matches_yen(engine, small_road_network, interior[0], interior[-1], 3)

    def test_same_subgraph_endpoints(self, small_road_network, small_dtlp):
        engine = KSPDG(small_dtlp)
        subgraph = small_dtlp.partition.subgraph(0)
        vertices = sorted(subgraph.vertices)
        assert_matches_yen(engine, small_road_network, vertices[0], vertices[-1], 2)

    def test_adjacent_endpoints(self, small_road_network, small_dtlp):
        engine = KSPDG(small_dtlp)
        u, v, _ = next(iter(small_road_network.edges()))
        assert_matches_yen(engine, small_road_network, u, v, 3)

    def test_source_equals_target(self, small_dtlp):
        engine = KSPDG(small_dtlp)
        result = engine.query(5, 5, 3)
        assert len(result.paths) == 1
        assert result.paths[0].distance == 0.0

    def test_k_larger_than_number_of_paths(self):
        from repro.graph import DynamicGraph

        graph = DynamicGraph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(0, 2, 3.0)
        dtlp = DTLP(graph, DTLPConfig(z=3, xi=2)).build()
        engine = KSPDG(dtlp)
        result = engine.query(0, 2, 10)
        assert len(result.paths) == 2

    def test_invalid_queries_rejected(self, small_dtlp):
        engine = KSPDG(small_dtlp)
        with pytest.raises(QueryError):
            engine.query(0, 1, 0)
        with pytest.raises(QueryError):
            engine.query(0, 10_000, 2)
        with pytest.raises(QueryError):
            engine.query(10_000, 0, 2)

    def test_engine_requires_built_index(self, small_road_network):
        with pytest.raises(QueryError):
            KSPDG(DTLP(small_road_network, DTLPConfig(z=16, xi=2)))

class TestDynamicCorrectness:
    def test_matches_yen_after_traffic_updates(self):
        graph = road_network(7, 7, seed=13)
        dtlp = DTLP(graph, DTLPConfig(z=16, xi=3)).build()
        graph.add_listener(dtlp.handle_updates)
        engine = KSPDG(dtlp)
        model = TrafficModel(graph, alpha=0.4, tau=0.5, seed=5)
        rng = random.Random(8)
        vertices = sorted(graph.vertices())
        for _ in range(4):
            model.advance()
            source, target = rng.sample(vertices, 2)
            assert_matches_yen(engine, graph, source, target, 3)

    def test_matches_yen_after_large_weight_swings(self):
        graph = road_network(6, 6, seed=14)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        graph.add_listener(dtlp.handle_updates)
        engine = KSPDG(dtlp)
        model = TrafficModel(graph, alpha=0.6, tau=0.9, seed=6)
        for _ in range(3):
            model.advance()
        assert_matches_yen(engine, graph, 0, 35, 4)


class TestResultMetadata:
    def test_iterations_and_reference_paths_recorded(self, small_road_network, small_dtlp):
        engine = KSPDG(small_dtlp)
        result = engine.query(0, 63, 3)
        assert result.iterations >= 1
        assert len(result.reference_paths) == result.iterations
        assert result.elapsed_seconds > 0
        # The shared session DTLP may already hold memoised partials from
        # earlier tests (cross-query reuse); either way the refine step ran.
        assert result.partial_computations + result.partial_reused > 0

    def test_reference_paths_are_lower_bounds(self, small_road_network, small_dtlp):
        """Lemma 2: each reference path's distance lower-bounds its candidates."""
        engine = KSPDG(small_dtlp)
        result = engine.query(0, 63, 3)
        first_reference = result.reference_paths[0]
        best_path = result.paths[0]
        assert first_reference.distance <= best_path.distance + 1e-6

    def test_hooks_invoked(self, small_road_network, small_dtlp):
        """The hooks the QueryBolt charges its worker through: one call per
        filter step (the last one fetched the path that ended the loop, or
        ``None``), per locally solved (subgraph, pair) and per merge."""
        engine = KSPDG(small_dtlp)
        reference_calls = []
        partial_calls = []
        merge_calls = []
        result = engine.query(
            0,
            63,
            2,
            on_reference_path=lambda path, seconds: reference_calls.append(path),
            on_partial=lambda sid, pair, seconds: partial_calls.append((sid, pair)),
            on_merge=lambda seconds: merge_calls.append(seconds),
        )
        assert result.iterations >= 1
        assert reference_calls[:-1] == result.reference_paths
        assert len(merge_calls) == result.iterations
        assert len(partial_calls) == result.partial_computations + result.partial_reused
        assert len(set(partial_calls)) == len(partial_calls)
        assert all(seconds >= 0 for seconds in merge_calls)

    def test_more_iterations_for_larger_k(self, small_road_network, small_dtlp):
        engine = KSPDG(small_dtlp)
        generator = QueryGenerator(small_road_network, seed=2, min_hops=4)
        queries = generator.generate(5, k=2)
        small_k = sum(engine.query(q.source, q.target, 2).iterations for q in queries)
        large_k = sum(engine.query(q.source, q.target, 6).iterations for q in queries)
        assert large_k >= small_k
