"""Tests for repro.algorithms.cands (CANDS distributed SSP baseline)."""

from __future__ import annotations

import pytest

from repro.algorithms import CandsIndex
from repro.algorithms.dijkstra import shortest_distance
from repro.graph import WeightUpdate, partition_graph, road_network
from repro.graph.errors import IndexStateError
from repro.dynamics import TrafficModel


@pytest.fixture(scope="module")
def cands_setup():
    graph = road_network(8, 8, seed=6)
    partition = partition_graph(graph, 16)
    index = CandsIndex(partition).build()
    return graph, partition, index


class TestCandsQueries:
    def test_matches_dijkstra_for_boundary_pairs(self, cands_setup):
        graph, partition, index = cands_setup
        boundary = sorted(partition.boundary_vertices)[:6]
        for source in boundary[:3]:
            for target in boundary[3:]:
                expected = shortest_distance(graph, source, target)
                actual = index.shortest_path(source, target).distance
                assert actual == pytest.approx(expected)

    def test_matches_dijkstra_for_arbitrary_pairs(self, cands_setup):
        graph, _, index = cands_setup
        pairs = [(0, 63), (5, 58), (12, 40), (7, 56)]
        for source, target in pairs:
            expected = shortest_distance(graph, source, target)
            actual = index.shortest_path(source, target).distance
            assert actual == pytest.approx(expected)

    def test_path_endpoints_and_simplicity(self, cands_setup):
        _, _, index = cands_setup
        path = index.shortest_path(0, 63)
        assert path.source == 0
        assert path.target == 63
        assert path.is_simple()

    def test_same_source_target(self, cands_setup):
        _, _, index = cands_setup
        path = index.shortest_path(10, 10)
        assert path.distance == 0.0
        assert path.vertices == (10,)

    def test_query_before_build_raises(self):
        graph = road_network(4, 4, seed=6)
        partition = partition_graph(graph, 8)
        with pytest.raises(IndexStateError):
            CandsIndex(partition).shortest_path(0, 15)


class TestCandsMaintenance:
    def test_updates_reindex_touched_subgraphs(self):
        graph = road_network(6, 6, seed=7)
        partition = partition_graph(graph, 12)
        index = CandsIndex(partition).build()
        model = TrafficModel(graph, alpha=0.4, tau=0.5, seed=1)
        updates = model.advance()
        elapsed = index.handle_updates(updates)
        assert elapsed >= 0.0
        # Queries remain exact after maintenance.
        for source, target in [(0, 35), (3, 32)]:
            expected = shortest_distance(graph, source, target)
            assert index.shortest_path(source, target).distance == pytest.approx(expected)

    def test_update_before_build_raises(self):
        graph = road_network(4, 4, seed=6)
        partition = partition_graph(graph, 8)
        index = CandsIndex(partition)
        with pytest.raises(IndexStateError):
            index.handle_updates([WeightUpdate(0, 1, 2.0)])

    def test_maintenance_cost_grows_with_touched_subgraphs(self):
        graph = road_network(8, 8, seed=9)
        partition = partition_graph(graph, 16)
        index = CandsIndex(partition).build()
        edges = [(u, v) for u, v, _ in graph.edges()]
        small_batch = [WeightUpdate(*edges[0][:2], 5.0)]
        graph.apply_updates(small_batch)
        small_time = index.handle_updates(small_batch)
        big_batch = [WeightUpdate(u, v, 6.0) for u, v in edges[: len(edges) // 2]]
        graph.apply_updates(big_batch)
        big_time = index.handle_updates(big_batch)
        assert big_time >= small_time * 0.5  # noisy timings, loose ordering check
