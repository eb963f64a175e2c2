"""Tests for repro.graph.partition (BFS partitioning, boundary vertices)."""

from __future__ import annotations

import pytest

from repro.graph import DynamicGraph, partition_graph, road_network
from repro.graph.errors import PartitionError, VertexNotFoundError
from repro.graph.subgraph import Subgraph
from repro.graph.graph import edge_key
from repro.graph.partition import GraphPartition


def make_chain(length: int) -> DynamicGraph:
    graph = DynamicGraph()
    for index in range(length - 1):
        graph.add_edge(index, index + 1, 1.0)
    return graph


class TestPartitionInvariants:
    @pytest.mark.parametrize("z", [4, 8, 16, 32])
    def test_vertex_cover(self, z):
        graph = road_network(8, 8, seed=2)
        partition = partition_graph(graph, z)
        covered = set()
        for subgraph in partition:
            covered |= subgraph.vertices
        assert covered == set(graph.vertices())

    @pytest.mark.parametrize("z", [4, 8, 16, 32])
    def test_edge_cover_and_disjointness(self, z):
        graph = road_network(8, 8, seed=2)
        partition = partition_graph(graph, z)
        seen = set()
        for subgraph in partition:
            for key in subgraph.edge_set:
                assert key not in seen, "edge assigned to two subgraphs"
                seen.add(key)
        expected = {edge_key(u, v) for u, v, _ in graph.edges()}
        assert seen == expected

    def test_boundary_vertices_are_shared(self):
        graph = road_network(8, 8, seed=2)
        partition = partition_graph(graph, 16)
        for vertex in partition.boundary_vertices:
            assert len(partition.subgraphs_of_vertex(vertex)) >= 2

    def test_non_boundary_vertices_in_exactly_one_subgraph(self):
        graph = road_network(8, 8, seed=2)
        partition = partition_graph(graph, 16)
        for vertex in graph.vertices():
            owners = partition.subgraphs_of_vertex(vertex)
            if vertex not in partition.boundary_vertices:
                assert len(owners) == 1

    def test_boundary_fraction_reasonable(self):
        graph = road_network(12, 12, seed=3)
        partition = partition_graph(graph, 36)
        fraction = len(partition.boundary_vertices) / graph.num_vertices
        assert fraction < 0.6

    def test_single_subgraph_when_z_exceeds_graph(self):
        graph = make_chain(5)
        partition = partition_graph(graph, 100)
        assert partition.num_subgraphs == 1
        assert partition.boundary_vertices == frozenset()

    def test_chain_partitioning(self):
        graph = make_chain(10)
        partition = partition_graph(graph, 4)
        assert partition.num_subgraphs >= 3
        # every cross point is boundary
        assert len(partition.boundary_vertices) >= 2

    def test_disconnected_graph_covered(self):
        graph = DynamicGraph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(10, 11, 1.0)
        graph.add_vertex(99)
        partition = partition_graph(graph, 4)
        covered = set()
        for subgraph in partition:
            covered |= subgraph.vertices
        assert covered == {0, 1, 10, 11, 99}

    def test_z_below_two_rejected(self):
        with pytest.raises(PartitionError):
            partition_graph(make_chain(3), 1)

    def test_unknown_start_vertex_rejected(self):
        with pytest.raises(VertexNotFoundError):
            partition_graph(make_chain(3), 2, start_vertex=55)

    def test_empty_graph(self):
        partition = partition_graph(DynamicGraph(), 4)
        assert partition.num_subgraphs == 0

    def test_deterministic(self):
        graph = road_network(8, 8, seed=2)
        first = partition_graph(graph, 16)
        second = partition_graph(graph, 16)
        assert [s.vertices for s in first] == [s.vertices for s in second]


class TestDeterminismContract:
    """Partition identity is a function of the graph, nothing else.

    The partition store fingerprints a graph and trusts that re-partitioning
    it reproduces the exact same subgraphs; these tests pin the sorted-
    iteration contract documented in the module docstring.
    """

    def test_insertion_order_independent(self):
        import random

        base = road_network(6, 6, seed=4)
        edges = [(u, v, w) for u, v, w in base.edges()]
        reference = partition_graph(base, 10)
        for seed in range(3):
            shuffled = list(edges)
            random.Random(seed).shuffle(shuffled)
            graph = DynamicGraph()
            for u, v, w in shuffled:
                graph.add_edge(u, v, w)
            partition = partition_graph(graph, 10)
            assert [s.vertices for s in partition] == [
                s.vertices for s in reference
            ]
            assert [s.edge_set for s in partition] == [
                s.edge_set for s in reference
            ]

    def test_pinned_reference_partition(self):
        # Regression pin: this exact partition must survive refactors and
        # arbitrary PYTHONHASHSEED values, or every stored fingerprint and
        # cross-process identity guarantee silently breaks.
        graph = road_network(4, 4, seed=5)
        partition = partition_graph(graph, 6)
        assert [sorted(s.vertices) for s in partition.subgraphs] == [
            [0, 1, 2, 4, 5, 6, 8, 9],
            [5, 6, 8, 9, 10, 11, 13, 14],
            [2, 3, 7, 11],
            [8, 12, 13],
            [11, 14, 15],
        ]
        assert sorted(partition.boundary_vertices) == [2, 5, 6, 8, 9, 11, 13, 14]


class TestPartitionQueries:
    def test_subgraphs_containing_pair(self):
        graph = road_network(8, 8, seed=2)
        partition = partition_graph(graph, 16)
        for subgraph in partition:
            boundary = sorted(subgraph.boundary_vertices)
            if len(boundary) >= 2:
                owners = partition.subgraphs_containing_pair(boundary[0], boundary[1])
                assert subgraph.subgraph_id in owners
                break

    def test_owner_of_edge(self):
        graph = road_network(8, 8, seed=2)
        partition = partition_graph(graph, 16)
        for u, v, _ in graph.edges():
            owner = partition.owner_of_edge(u, v)
            assert partition.subgraph(owner).has_edge(u, v)

    def test_owner_of_unknown_edge_raises(self):
        graph = make_chain(4)
        partition = partition_graph(graph, 10)
        with pytest.raises(PartitionError):
            partition.owner_of_edge(0, 3)

    def test_is_boundary(self):
        graph = road_network(8, 8, seed=2)
        partition = partition_graph(graph, 16)
        for vertex in partition.boundary_vertices:
            assert partition.is_boundary(vertex)

    def test_subgraphs_with_min_boundary(self):
        graph = road_network(10, 10, seed=2)
        partition = partition_graph(graph, 20)
        at_least_zero = partition.subgraphs_with_min_boundary(0)
        at_least_five = partition.subgraphs_with_min_boundary(5)
        assert at_least_five <= at_least_zero <= partition.num_subgraphs

    def test_len_and_iteration(self):
        graph = road_network(8, 8, seed=2)
        partition = partition_graph(graph, 16)
        assert len(partition) == partition.num_subgraphs
        assert len(list(partition)) == partition.num_subgraphs

    def test_subgraph_accessor_bounds(self):
        graph = make_chain(4)
        partition = partition_graph(graph, 10)
        with pytest.raises(PartitionError):
            partition.subgraph(99)


class TestPartitionValidation:
    def test_duplicate_edge_assignment_rejected(self):
        graph = make_chain(3)
        first = Subgraph(0, graph, {0, 1}, {(0, 1)})
        duplicate = Subgraph(1, graph, {0, 1, 2}, {(0, 1), (1, 2)})
        with pytest.raises(PartitionError):
            GraphPartition(graph, [first, duplicate])

    def test_ids_out_of_position_rejected(self):
        graph = make_chain(3)
        first = Subgraph(1, graph, {0, 1}, {(0, 1)})
        second = Subgraph(0, graph, {1, 2}, {(1, 2)})
        with pytest.raises(PartitionError):
            GraphPartition(graph, [first, second])

    def test_missing_edge_rejected(self):
        graph = make_chain(3)
        only_one_edge = Subgraph(0, graph, {0, 1, 2}, {(0, 1)})
        with pytest.raises(PartitionError):
            GraphPartition(graph, [only_one_edge])

    def test_missing_vertex_rejected(self):
        graph = make_chain(3)
        graph.add_vertex(42)
        subgraph = Subgraph(0, graph, {0, 1, 2}, {(0, 1), (1, 2)})
        with pytest.raises(PartitionError):
            GraphPartition(graph, [subgraph])
