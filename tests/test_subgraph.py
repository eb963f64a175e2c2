"""Tests for repro.graph.subgraph (Subgraph and SortedUnitWeights)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DynamicGraph
from repro.graph.errors import EdgeNotFoundError, VertexNotFoundError
from repro.graph.subgraph import Subgraph
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
        assert 13 in subgraph.vertices
        assert subgraph.has_edge(13, 16)
        assert subgraph.has_edge(16, 13)

    def test_edge_outside_subgraph_rejected(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        with pytest.raises(EdgeNotFoundError):
            subgraph.weight(13, 19)

    def test_vertex_outside_subgraph(self, sg4_graph):
        subgraph = make_sg4_subgraph(sg4_graph)
        assert 99 not in subgraph.vertices
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

class TestUnitWeightProfile:
    """The sorted unit weights of SG4 (Example 4), as ``SortedUnitWeights``
    keeps them: ``prefix[n]`` is the sum of the ``n`` smallest."""

    @staticmethod
    def unit_weights(prefix):
        return [b - a for a, b in zip(prefix, prefix[1:])]

    def test_initial_profile_all_ones(self, sg4_graph):
        units = SortedUnitWeights(make_sg4_subgraph(sg4_graph))
        assert units.depth == 18
        assert self.unit_weights(units.prefix) == [1.0] * 18

    def test_profile_matches_paper_example4(self, sg4_graph):
        """After the SG4 -> SG'4 change the profile is the one in Example 4."""
        subgraph = make_sg4_subgraph(sg4_graph)
        apply_sg4_change(sg4_graph)
        assert self.unit_weights(SortedUnitWeights(subgraph).prefix) == pytest.approx(
            [1 / 3] * 3 + [1 / 2] * 4 + [1.0] * 8 + [2.0] * 3
        )

    def test_bound_distance_of_example4(self, sg4_graph):
        """Example 4: the 8 smallest unit weights sum to 4 in SG'4."""
        subgraph = make_sg4_subgraph(sg4_graph)
        apply_sg4_change(sg4_graph)
        assert SortedUnitWeights(subgraph).prefix[8] == pytest.approx(4.0)

    def test_bound_distance_initial(self, sg4_graph):
        """Before the change the 8 smallest unit weights sum to 8 (Example 4)."""
        assert SortedUnitWeights(make_sg4_subgraph(sg4_graph)).prefix[8] == pytest.approx(8.0)

    @given(
        edges=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),
                st.one_of(
                    st.sampled_from((0.0, 0.1, 0.3, 1.0, 2.0, 1e16)),
                    st.floats(min_value=0.0, max_value=50.0),
                ),
            ),
            min_size=1,
            max_size=12,
        ),
        depth=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_prefix_is_the_sorted_per_vfrag_list_summed_left_to_right(self, edges, depth):
        """The reference, bit for bit: every vfrag's unit weight listed,
        sorted, and summed left to right; ties between edges of equal unit
        weight and different vfrag counts included."""
        vfrags = [count for count, _ in edges]
        weights = [unit * count for count, unit in edges]
        depth = min(depth, sum(vfrags))
        units = SortedUnitWeights.over({}, vfrags, depth, weights, [])
        units.refresh()
        per_vfrag = sorted(
            weight / count for weight, count in zip(weights, vfrags) for _ in range(count)
        )
        expected = [0.0]
        for unit in per_vfrag[:depth]:
            expected.append(expected[-1] + unit)
        assert [x.hex() for x in units.prefix] == [x.hex() for x in expected]

    def test_sum_beyond_available_vfrags_returns_total(self, sg4_graph):
        units = SortedUnitWeights(make_sg4_subgraph(sg4_graph), depth=10_000)
        assert units.depth == 18
        assert units.prefix[-1] == pytest.approx(18.0)

    def test_sum_of_zero_vfrags(self, sg4_graph):
        assert SortedUnitWeights(make_sg4_subgraph(sg4_graph)).prefix[0] == 0.0
