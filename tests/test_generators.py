"""Tests for repro.graph.generators (synthetic road networks)."""

from __future__ import annotations

import pytest

from repro.graph import dataset, random_graph, road_network
from repro.graph.generators import DATASET_SPECS, grid_graph
from repro.algorithms.dijkstra import dijkstra


def is_connected(graph) -> bool:
    vertices = list(graph.vertices())
    if not vertices:
        return True
    distances, _ = dijkstra(graph, vertices[0])
    return len(distances) == len(vertices)


class TestGridGraph:
    def test_vertex_and_edge_counts(self):
        graph = grid_graph(4, 5)
        assert graph.num_vertices == 20
        # rows*(cols-1) horizontal + (rows-1)*cols vertical
        assert graph.num_edges == 4 * 4 + 3 * 5

    def test_integer_weights(self):
        graph = grid_graph(4, 4)
        for _, _, weight in graph.edges():
            assert float(weight).is_integer()

    def test_directed_variant_has_both_arcs(self):
        graph = grid_graph(3, 3, directed=True)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)


class TestRoadNetwork:
    def test_connected(self):
        graph = road_network(10, 10, seed=5)
        assert is_connected(graph)

    def test_deterministic_for_same_seed(self):
        first = road_network(6, 6, seed=9)
        second = road_network(6, 6, seed=9)
        assert sorted(first.edges()) == sorted(second.edges())

    def test_different_seeds_differ(self):
        first = road_network(6, 6, seed=1)
        second = road_network(6, 6, seed=2)
        assert sorted(first.edges()) != sorted(second.edges())

    def test_sparse_degree(self):
        graph = road_network(12, 12, seed=5)
        average_degree = 2 * graph.num_edges / graph.num_vertices
        assert 2.0 <= average_degree <= 4.5

    def test_directed_road_network(self):
        graph = road_network(5, 5, seed=5, directed=True)
        assert graph.directed
        for u, v, _ in list(graph.edges()):
            assert graph.has_edge(v, u)

    def test_weights_positive_integers(self):
        graph = road_network(6, 6, seed=5)
        for _, _, weight in graph.edges():
            assert weight > 0
            assert float(weight).is_integer()


class TestDatasets:
    def test_all_named_datasets_build(self):
        for name in DATASET_SPECS:
            graph = dataset(name, scale=0.3)
            assert graph.num_vertices > 10
            assert is_connected(graph)

    def test_relative_sizes_preserved(self):
        ny = dataset("NY", scale=0.5)
        cusa = dataset("CUSA", scale=0.5)
        assert cusa.num_vertices > ny.num_vertices

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            dataset("MOON")

    def test_case_insensitive_name(self):
        assert dataset("ny", scale=0.3).num_vertices == dataset("NY", scale=0.3).num_vertices


class TestRandomGraph:
    def test_connected_by_construction(self):
        graph = random_graph(30, 60, seed=3)
        assert is_connected(graph)

    def test_vertex_count(self):
        graph = random_graph(15, 20, seed=3)
        assert graph.num_vertices == 15
        assert graph.num_edges >= 14

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError):
            random_graph(0, 5)

    def test_directed_random_graph(self):
        graph = random_graph(10, 15, seed=3, directed=True)
        assert graph.directed
