"""Tests for repro.algorithms.yen (k shortest simple paths)."""

from __future__ import annotations

import itertools

import pytest

from repro.algorithms import yen_k_shortest_paths
from repro.algorithms.yen import LazyYen
from repro.graph import DynamicGraph, road_network
from repro.graph.errors import PathNotFoundError, QueryError


def all_simple_path_distances(graph, source, target):
    """Distances of every simple path between two vertices (tiny graphs only)."""
    distances = []

    def extend(path, distance):
        last = path[-1]
        if last == target:
            distances.append(distance)
            return
        for neighbor, weight in graph.neighbors(last).items():
            if neighbor in path:
                continue
            extend(path + [neighbor], distance + weight)

    extend([source], 0.0)
    return sorted(distances)


class TestYenBasics:
    def test_diamond_graph_two_paths(self, diamond_graph):
        paths = yen_k_shortest_paths(diamond_graph, 0, 3, 2)
        assert [path.distance for path in paths] == [pytest.approx(2.0), pytest.approx(4.0)]
        assert paths[0].vertices == (0, 1, 3)
        assert paths[1].vertices == (0, 2, 3)

    def test_paths_are_simple_and_sorted(self):
        graph = road_network(5, 5, seed=4)
        paths = yen_k_shortest_paths(graph, 0, 24, 6)
        distances = [path.distance for path in paths]
        assert distances == sorted(distances)
        for path in paths:
            assert path.is_simple()
            assert path.source == 0
            assert path.target == 24

    def test_paths_are_distinct(self):
        graph = road_network(5, 5, seed=4)
        paths = yen_k_shortest_paths(graph, 0, 24, 8)
        assert len({path.vertices for path in paths}) == len(paths)

    def test_matches_exhaustive_enumeration(self):
        graph = road_network(4, 4, seed=2)
        expected = all_simple_path_distances(graph, 0, 15)[:5]
        paths = yen_k_shortest_paths(graph, 0, 15, 5)
        assert [path.distance for path in paths] == pytest.approx(expected)

    def test_fewer_paths_than_k(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        paths = yen_k_shortest_paths(graph, 1, 2, 5)
        assert len(paths) == 1

    def test_k_must_be_positive(self, diamond_graph):
        with pytest.raises(QueryError):
            yen_k_shortest_paths(diamond_graph, 0, 3, 0)

    def test_disconnected_raises(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_vertex(9)
        with pytest.raises(PathNotFoundError):
            yen_k_shortest_paths(graph, 1, 9, 2)

    def test_allowed_vertices_restriction(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(2, 3, 1.0)
        graph.add_edge(1, 4, 1.0)
        graph.add_edge(4, 3, 1.0)
        paths = yen_k_shortest_paths(graph, 1, 3, 3, allowed_vertices={1, 2, 3})
        assert len(paths) == 1
        assert paths[0].vertices == (1, 2, 3)


class TestLazyYen:
    def test_lazy_matches_batch(self):
        graph = road_network(5, 5, seed=7)
        batch = yen_k_shortest_paths(graph, 0, 24, 5)
        lazy = LazyYen(graph, 0, 24)
        streamed = [lazy.next_path() for _ in range(5)]
        assert [p.distance for p in streamed] == pytest.approx([p.distance for p in batch])

    def test_exhaustion_raises_stop_iteration(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        lazy = LazyYen(graph, 1, 2)
        assert lazy.next_path().vertices == (1, 2)
        with pytest.raises(StopIteration):
            lazy.next_path()

    def test_iterator_protocol(self, diamond_graph):
        lazy = LazyYen(diamond_graph, 0, 3)
        collected = list(itertools.islice(lazy, 2))
        assert len(collected) == 2

    def test_monotone_distances_on_dense_graph(self):
        graph = road_network(5, 5, seed=11)
        lazy = LazyYen(graph, 2, 22)
        previous = 0.0
        for _ in range(10):
            try:
                path = lazy.next_path()
            except StopIteration:
                break
            assert path.distance >= previous - 1e-9
            previous = path.distance
