"""Tests for repro.graph.subgraph (Subgraph and SortedUnitWeights)."""

from __future__ import annotations

import pytest

from repro.graph import DynamicGraph, EdgeNotFoundError, Subgraph, VertexNotFoundError
from repro.graph.subgraph import SortedUnitWeights

from conftest import apply_sg4_change


def make_sg4_subgraph(graph: DynamicGraph) -> Subgraph:
    """Wrap the SG4 fixture graph in a Subgraph covering everything."""
    edges = [(u, v) for u, v, _ in graph.edges()]
    return Subgraph(4, graph, graph.vertices(), edges)


class TestSubgraphStructure:
    def test_vertices_and_edges(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        assert subgraph.num_vertices == 6
        assert subgraph.num_edges == 6
        assert subgraph.has_vertex(13)
        assert subgraph.has_edge(13, 16)
        assert subgraph.has_edge(16, 13)

    def test_edge_outside_subgraph_rejected(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        with pytest.raises(EdgeNotFoundError):
            subgraph.weight(13, 19)

    def test_vertex_outside_subgraph(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        assert not subgraph.has_vertex(99)
        with pytest.raises(VertexNotFoundError):
            list(subgraph.neighbors(99))

    def test_construction_rejects_foreign_edge(self, sg4_graph):
        with pytest.raises(VertexNotFoundError):
            Subgraph(0, sg4_graph, {13, 16}, {(13, 99)})

    def test_boundary_vertices_setter(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        subgraph.set_boundary_vertices({13, 14})
        assert subgraph.boundary_vertices == frozenset({13, 14})

    def test_boundary_setter_rejects_unknown_vertex(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        with pytest.raises(VertexNotFoundError):
            subgraph.set_boundary_vertices({999})

    def test_weights_read_through_parent(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        assert subgraph.weight(13, 16) == 5.0
        sg4_graph.update_weight(13, 16, 2.0)
        assert subgraph.weight(13, 16) == 2.0

    def test_neighbors_yields_pairs(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        neighbors = dict(subgraph.neighbors(17))
        assert neighbors == {18: 2.0, 16: 2.0, 19: 3.0}

    def test_path_distance(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        # Example 2: D(P1(13,14)) = 5 + 3 = 8
        assert subgraph.path_distance((13, 16, 14)) == pytest.approx(8.0)


class TestUnitWeightProfile:
    def test_initial_profile_all_ones(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        profile = subgraph.unit_weight_profile()
        assert profile == [(1.0, 18)]
        assert subgraph.total_vfrags() == 18

    def test_profile_matches_paper_example4(self, sg4_graph):
        """After the SG4 -> SG'4 change the profile is the one in Example 4."""
        subgraph = make_sg4_subgraph(sg4_graph)
        apply_sg4_change(sg4_graph)
        profile = subgraph.unit_weight_profile()
        assert profile == [
            (pytest.approx(1 / 3), 3),
            (pytest.approx(1 / 2), 4),
            (pytest.approx(1.0), 8),
            (pytest.approx(2.0), 3),
        ]

    def test_bound_distance_of_example4(self, sg4_graph):
        """Example 4: the 8 smallest unit weights sum to 4 in SG'4."""
        subgraph = make_sg4_subgraph(sg4_graph)
        apply_sg4_change(sg4_graph)
        assert subgraph.smallest_unit_weight_sum(8) == pytest.approx(4.0)

    def test_bound_distance_initial(self, sg4_graph):
        """Before the change the 8 smallest unit weights sum to 8 (Example 4)."""
        subgraph = make_sg4_subgraph(sg4_graph)
        assert subgraph.smallest_unit_weight_sum(8) == pytest.approx(8.0)

    def test_sum_beyond_available_vfrags_returns_total(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        total = subgraph.smallest_unit_weight_sum(10_000)
        assert total == pytest.approx(18.0)

    def test_sum_of_zero_vfrags(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        assert subgraph.smallest_unit_weight_sum(0) == 0.0


class TestSortedUnitWeights:
    def test_matches_profile_sum(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        sorted_units = SortedUnitWeights(subgraph)
        for count in (1, 5, 8, 18):
            assert sorted_units.smallest_sum(count) == pytest.approx(
                subgraph.smallest_unit_weight_sum(count)
            )

    def test_update_edge_refreshes_sums(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        sorted_units = SortedUnitWeights(subgraph)
        apply_sg4_change(sg4_graph)
        sorted_units.update_edges([(13, 18), (18, 17), (17, 16), (17, 19)])
        assert sorted_units.smallest_sum(8) == pytest.approx(4.0)
        assert len(sorted_units) == 18

    def test_update_unknown_edge_raises(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        sorted_units = SortedUnitWeights(subgraph)
        with pytest.raises(EdgeNotFoundError):
            sorted_units.update_edges([(13, 19)])

    def test_noop_update_keeps_sums(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        sorted_units = SortedUnitWeights(subgraph)
        before = sorted_units.smallest_sum(5)
        sorted_units.update_edges([(13, 16)])
        assert sorted_units.smallest_sum(5) == pytest.approx(before)
