"""Tests for repro.algorithms.find_ksp (SPT-guided KSP baseline)."""

from __future__ import annotations

import pytest

from repro.algorithms import yen_k_shortest_paths
from repro.algorithms.find_ksp import FindKSP, find_ksp
from repro.graph import DynamicGraph, road_network
from repro.graph.errors import PathNotFoundError, QueryError


class TestFindKSP:
    def test_matches_yen_on_diamond(self, diamond_graph):
        expected = yen_k_shortest_paths(diamond_graph, 0, 3, 2)
        actual = find_ksp(diamond_graph, 0, 3, 2)
        assert [p.distance for p in actual] == pytest.approx([p.distance for p in expected])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_yen_on_road_networks(self, seed):
        graph = road_network(5, 5, seed=seed)
        pairs = [(0, 24), (4, 20), (2, 17)]
        for source, target in pairs:
            expected = yen_k_shortest_paths(graph, source, target, 5)
            actual = find_ksp(graph, source, target, 5)
            assert [p.distance for p in actual] == pytest.approx(
                [p.distance for p in expected]
            )

    def test_paths_are_simple(self):
        graph = road_network(6, 6, seed=4)
        for path in find_ksp(graph, 0, 35, 6):
            assert path.is_simple()

    def test_first_path_is_shortest(self):
        graph = road_network(6, 6, seed=4)
        expected = yen_k_shortest_paths(graph, 0, 35, 1)[0]
        actual = find_ksp(graph, 0, 35, 1)[0]
        assert actual.distance == pytest.approx(expected.distance)

    def test_k_must_be_positive(self, diamond_graph):
        with pytest.raises(QueryError):
            find_ksp(diamond_graph, 0, 3, 0)

    def test_disconnected_raises(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_vertex(9)
        with pytest.raises(PathNotFoundError):
            find_ksp(graph, 1, 9, 2)

    def test_fewer_paths_than_k(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(2, 3, 1.0)
        paths = find_ksp(graph, 1, 3, 10)
        assert len(paths) == 1

    def test_incremental_enumeration(self):
        graph = road_network(5, 5, seed=9)
        enumerator = FindKSP(graph, 0, 24)
        first = enumerator.next_path()
        second = enumerator.next_path()
        assert first.distance <= second.distance
