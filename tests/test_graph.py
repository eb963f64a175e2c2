"""Tests for repro.graph.graph (dynamic graphs, weight updates, vfrags)."""

from __future__ import annotations

import pickle

import pytest

from repro.graph import DynamicGraph, WeightUpdate
from repro.graph.errors import EdgeNotFoundError, InvalidWeightError, VertexNotFoundError
from repro.graph.graph import DirectedDynamicGraph, edge_key


class TestEdgeKey:
    def test_orders_endpoints(self):
        assert edge_key(5, 2) == (2, 5)
        assert edge_key(2, 5) == (2, 5)


class TestConstruction:
    def test_add_edge_creates_vertices(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 3.0)
        assert graph.has_vertex(1)
        assert graph.has_vertex(2)
        assert graph.num_vertices == 2
        assert graph.num_edges == 1

    def test_add_vertex_idempotent(self):
        graph = DynamicGraph()
        graph.add_vertex(1)
        graph.add_vertex(1)
        assert graph.num_vertices == 1

    def test_undirected_edge_symmetric(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 3.0)
        assert graph.weight(1, 2) == 3.0
        assert graph.weight(2, 1) == 3.0

    def test_self_loop_rejected(self):
        graph = DynamicGraph()
        with pytest.raises(InvalidWeightError):
            graph.add_edge(1, 1, 2.0)

    def test_negative_weight_rejected(self):
        graph = DynamicGraph()
        with pytest.raises(InvalidWeightError):
            graph.add_edge(1, 2, -1.0)

    def test_nan_and_inf_rejected(self):
        graph = DynamicGraph()
        with pytest.raises(InvalidWeightError):
            graph.add_edge(1, 2, float("nan"))
        with pytest.raises(InvalidWeightError):
            graph.add_edge(1, 2, float("inf"))

    def test_missing_vertex_access_raises(self):
        graph = DynamicGraph()
        with pytest.raises(VertexNotFoundError):
            graph.neighbors(42)

    def test_missing_edge_access_raises(self):
        graph = DynamicGraph()
        graph.add_vertex(1)
        graph.add_vertex(2)
        with pytest.raises(EdgeNotFoundError):
            graph.weight(1, 2)

    def test_edges_iteration_reports_each_once(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 3.0)
        graph.add_edge(2, 3, 4.0)
        edges = sorted(graph.edges())
        assert edges == [(1, 2, 3.0), (2, 3, 4.0)]

class TestVirtualFragments:
    def test_vfrag_count_is_rounded_initial_weight(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 7.0)
        assert graph.vfrag_count(1, 2) == 7

    def test_vfrag_count_never_below_one(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 0.3)
        assert graph.vfrag_count(1, 2) == 1

    def test_initial_weight_preserved_after_update(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 3.0)
        graph.update_weight(1, 2, 9.0)
        assert graph.initial_weight(1, 2) == 3.0
        assert graph.weight(1, 2) == 9.0
        assert graph.vfrag_count(1, 2) == 3


class TestUpdates:
    def test_update_weight_changes_both_directions(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 3.0)
        graph.update_weight(1, 2, 5.0)
        assert graph.weight(2, 1) == 5.0

    def test_update_unknown_edge_raises(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 3.0)
        with pytest.raises(EdgeNotFoundError):
            graph.update_weight(1, 3, 5.0)

    def test_version_increments_per_batch(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 3.0)
        graph.add_edge(2, 3, 4.0)
        assert graph.version == 0
        graph.apply_updates(
            [WeightUpdate(1, 2, 5.0), WeightUpdate(2, 3, 6.0)]
        )
        assert graph.version == 1

    def test_empty_batch_does_not_bump_version(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 3.0)
        graph.apply_updates([])
        assert graph.version == 0

    def test_listener_receives_batch(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 3.0)
        received = []
        graph.add_listener(lambda updates: received.append(list(updates)))
        graph.update_weight(1, 2, 4.0)
        assert len(received) == 1
        assert received[0][0].new_weight == 4.0

    def test_remove_listener(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 3.0)
        received = []
        listener = lambda updates: received.append(updates)  # noqa: E731
        graph.add_listener(listener)
        graph.remove_listener(listener)
        graph.update_weight(1, 2, 4.0)
        assert received == []

    def test_weight_update_rejects_negative(self):
        # The same rule as add_edge: finite and non-negative.
        for weight in (-3.0, float("nan"), float("inf")):
            with pytest.raises(InvalidWeightError):
                WeightUpdate(1, 2, weight)

    def test_weight_update_equality_and_hash(self):
        first = WeightUpdate(1, 2, 3.0, timestamp=1)
        second = WeightUpdate(1, 2, 3.0, timestamp=1)
        assert first == second
        assert hash(first) == hash(second)


class TestSnapshotsAndViews:
    def test_snapshot_is_independent(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 3.0)
        snapshot = graph.snapshot()
        graph.update_weight(1, 2, 9.0)
        assert snapshot.weight(1, 2) == 3.0
        assert graph.weight(1, 2) == 9.0

    def test_structure_version_counts_new_vertices_and_edges_only(self):
        graph = DynamicGraph()
        assert graph.structure_version == 0
        graph.add_edge(1, 2, 3.0)  # two vertices and an edge
        assert graph.structure_version == 3
        graph.add_edge(1, 2, 4.0)  # existing edge: a weight overwrite
        graph.add_edge(2, 1, 4.0)
        graph.add_vertex(1)
        graph.update_weight(1, 2, 9.0)
        assert graph.structure_version == 3
        graph.add_vertex(7)
        assert graph.structure_version == 4
        assert graph.snapshot().structure_version == 4
        assert pickle.loads(pickle.dumps(graph)).structure_version == 4

    def test_snapshot_preserves_initial_weights(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 3.0)
        graph.update_weight(1, 2, 9.0)
        snapshot = graph.snapshot()
        assert snapshot.initial_weight(1, 2) == 3.0

    def test_path_distance(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 3.0)
        graph.add_edge(2, 3, 4.0)
        assert graph.path_distance((1, 2, 3)) == pytest.approx(7.0)

class TestDirectedGraph:
    def test_directed_edges_independent(self):
        graph = DirectedDynamicGraph()
        graph.add_edge(1, 2, 3.0)
        graph.add_edge(2, 1, 7.0)
        assert graph.weight(1, 2) == 3.0
        assert graph.weight(2, 1) == 7.0

    def test_directed_missing_reverse_edge(self):
        graph = DirectedDynamicGraph()
        graph.add_edge(1, 2, 3.0)
        with pytest.raises(EdgeNotFoundError):
            graph.weight(2, 1)

    def test_update_affects_one_direction_only(self):
        graph = DirectedDynamicGraph()
        graph.add_edge(1, 2, 3.0)
        graph.add_edge(2, 1, 3.0)
        graph.update_weight(1, 2, 9.0)
        assert graph.weight(1, 2) == 9.0
        assert graph.weight(2, 1) == 3.0

    def test_reverse(self):
        graph = DirectedDynamicGraph()
        graph.add_edge(1, 2, 3.0)
        reversed_graph = graph.reverse()
        assert reversed_graph.has_edge(2, 1)
        assert not reversed_graph.has_edge(1, 2)

    def test_snapshot_keeps_directedness(self):
        graph = DirectedDynamicGraph()
        graph.add_edge(1, 2, 3.0)
        assert graph.snapshot().directed
