"""Tests for repro.core.skeleton (the second-level skeleton graph)."""

from __future__ import annotations

import pytest

from repro.algorithms import shortest_path
from repro.core.skeleton import SkeletonGraph
from repro.graph.errors import VertexNotFoundError


class TestSkeletonGraphStructure:
    def test_set_edge_symmetric(self):
        skeleton = SkeletonGraph()
        skeleton.set_edge(1, 2, 5.0)
        assert skeleton.weight(1, 2) == 5.0
        assert skeleton.weight(2, 1) == 5.0
        assert skeleton.num_edges == 1

    def test_directed_skeleton_one_way(self):
        skeleton = SkeletonGraph(directed=True)
        skeleton.set_edge(1, 2, 5.0)
        assert dict(skeleton.neighbors(1)) == {2: 5.0}
        assert 1 not in skeleton.neighbors(2)

    def test_update_edge_minimum_keeps_smaller(self):
        skeleton = SkeletonGraph()
        skeleton.update_edge_minimum(1, 2, 5.0)
        skeleton.update_edge_minimum(1, 2, 3.0)
        skeleton.update_edge_minimum(1, 2, 7.0)
        assert skeleton.weight(1, 2) == 3.0

    def test_vertices_and_contains(self):
        skeleton = SkeletonGraph()
        skeleton.add_vertex(9)
        skeleton.set_edge(1, 2, 1.0)
        assert set(skeleton.vertices()) == {1, 2, 9}
        assert 9 in skeleton
        assert len(skeleton) == 3

    def test_neighbors_unknown_vertex_raises(self):
        skeleton = SkeletonGraph()
        with pytest.raises(VertexNotFoundError):
            skeleton.neighbors(5)

    def test_edges_iteration_undirected_once(self):
        skeleton = SkeletonGraph()
        skeleton.set_edge(1, 2, 1.0)
        skeleton.set_edge(2, 3, 2.0)
        assert sorted(skeleton.edges()) == [(1, 2, 1.0), (2, 3, 2.0)]

    def test_memory_estimate_positive(self):
        skeleton = SkeletonGraph()
        skeleton.set_edge(1, 2, 1.0)
        assert skeleton.memory_estimate_bytes() > 0


class TestSkeletonGraphCopies:
    def test_copy_is_independent(self):
        skeleton = SkeletonGraph()
        skeleton.set_edge(1, 2, 1.0)
        clone = skeleton.copy()
        clone.set_edge(1, 2, 9.0)
        assert skeleton.weight(1, 2) == 1.0

    def test_augmented_attaches_new_vertex(self):
        skeleton = SkeletonGraph()
        skeleton.set_edge(1, 2, 4.0)
        augmented = skeleton.augmented({99: {1: 2.0, 2: 3.0}})
        assert 99 in augmented
        assert augmented.weight(99, 1) == 2.0
        assert 99 not in skeleton

    def test_augmented_existing_vertex_takes_minimum(self):
        skeleton = SkeletonGraph()
        skeleton.set_edge(1, 2, 4.0)
        augmented = skeleton.augmented({1: {2: 10.0}})
        assert augmented.weight(1, 2) == 4.0

    def test_dijkstra_runs_on_skeleton(self):
        skeleton = SkeletonGraph()
        skeleton.set_edge(1, 2, 1.0)
        skeleton.set_edge(2, 3, 1.0)
        skeleton.set_edge(1, 3, 5.0)
        path = shortest_path(skeleton, 1, 3)
        assert path.vertices == (1, 2, 3)
        assert path.distance == pytest.approx(2.0)
