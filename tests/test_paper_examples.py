"""End-to-end checks against the worked examples in the paper.

These tests encode the concrete numbers the paper derives in Examples 2-5
(Sections 3.4-3.5) and the qualitative behaviour of Example 8 (Section 5.2):
bounding paths, bound distances under the SG4 -> SG'4 weight change, the two
Theorem 1 cases of Figure 6, and a KSP-DG run whose intermediate quantities
(reference paths, candidate sets, termination) satisfy the paper's lemmas.
"""

from __future__ import annotations

import pytest

from repro.algorithms import yen_k_shortest_paths
from repro.algorithms.dijkstra import shortest_distance
from repro.core import DTLP, DTLPConfig, KSPDG
from repro.core.subgraph_index import SubgraphIndex
from repro.graph import DynamicGraph, WeightUpdate
from repro.graph.subgraph import Subgraph

from conftest import apply_sg4_change


def full_subgraph(graph, boundary, subgraph_id=0):
    edges = [(u, v) for u, v, _ in graph.edges()]
    subgraph = Subgraph(subgraph_id, graph, graph.vertices(), edges)
    subgraph.set_boundary_vertices(boundary)
    return subgraph


class TestExample2And4:
    """Bound distances for SG4 before and after the weight change."""

    def test_initial_bound_distance_of_p1(self, sg4_graph):
        subgraph = full_subgraph(sg4_graph, {13, 14})
        index = SubgraphIndex(subgraph, xi=2).build()
        first_path = index.bounding_paths(13, 14)[0]
        assert first_path.vertices == (13, 16, 14)
        # Example 4: phi(P'1) = 8, all unit weights 1 => BD = 8, D = 8.
        assert first_path.vfrag_count == 8
        assert first_path.distance == pytest.approx(8.0)

    def test_bound_distance_after_change(self, sg4_graph):
        subgraph = full_subgraph(sg4_graph, {13, 14})
        index = SubgraphIndex(subgraph, xi=2).build()
        updates = [
            WeightUpdate(13, 18, 1.0),
            WeightUpdate(18, 17, 1.0),
            WeightUpdate(17, 16, 1.0),
            WeightUpdate(17, 19, 6.0),
        ]
        apply_sg4_change(sg4_graph)
        index.apply_updates(updates)
        # Example 2: the new shortest distance between v13 and v14 is 6.
        assert shortest_distance(sg4_graph, 13, 14) == pytest.approx(6.0)
        # The lower bound respects it.
        assert index.lower_bound_distance(13, 14) <= 6.0 + 1e-9


class TestExample3:
    """Bounding-path selection for xi = 1 and xi = 2."""

    def test_xi_two_selects_both_paths(self, sg4_graph):
        subgraph = full_subgraph(sg4_graph, {13, 14})
        index = SubgraphIndex(subgraph, xi=2).build()
        vertices = [path.vertices for path in index.bounding_paths(13, 14)]
        assert vertices == [(13, 16, 14), (13, 18, 17, 16, 14)]

    def test_xi_one_selects_only_first(self, sg4_graph):
        subgraph = full_subgraph(sg4_graph, {13, 14})
        index = SubgraphIndex(subgraph, xi=1).build()
        vertices = [path.vertices for path in index.bounding_paths(13, 14)]
        assert vertices == [(13, 16, 14)]


class TestExample5Theorem1:
    """The two cases of Theorem 1 on the Figure 6 graphs."""

    def test_case_one_bound_equals_shortest(self, theorem1_graphs):
        graph_b, _ = theorem1_graphs
        subgraph = full_subgraph(graph_b, {0, 100})
        index = SubgraphIndex(subgraph, xi=3).build()
        # Example 5: BD values are 4, 6 and 8 after the Figure 6b change.
        assert index.lower_bound_distance(0, 100) == pytest.approx(8.0)
        assert shortest_distance(graph_b, 0, 100) == pytest.approx(8.0)

    def test_case_two_bound_is_max_bd(self, theorem1_graphs):
        _, graph_d = theorem1_graphs
        subgraph = full_subgraph(graph_d, {0, 100})
        index = SubgraphIndex(subgraph, xi=3).build()
        # Example 5: BD values become 2, 3 and 4 after the Figure 6d change.
        assert index.lower_bound_distance(0, 100) == pytest.approx(4.0)
        assert shortest_distance(graph_d, 0, 100) == pytest.approx(5.0)


def build_two_subgraph_graph():
    """A small graph with an hourglass structure and a clear boundary vertex.

    Subgraph A: vertices 0-4, subgraph B: vertices 4-8; vertex 4 is the only
    cut vertex, so any partition with z=5 makes it a boundary vertex.  Used
    to check the KSP-DG machinery end to end on a graph small enough to
    reason about by hand.
    """
    graph = DynamicGraph()
    edges = [
        (0, 1, 2.0), (1, 4, 2.0), (0, 2, 3.0), (2, 4, 3.0), (1, 2, 1.0),
        (4, 5, 2.0), (5, 8, 2.0), (4, 6, 3.0), (6, 8, 3.0), (5, 6, 1.0),
        (0, 3, 5.0), (3, 4, 5.0), (4, 7, 5.0), (7, 8, 5.0),
    ]
    for u, v, w in edges:
        graph.add_edge(u, v, w)
    return graph


class TestExample8Behaviour:
    """Qualitative replication of the Example 8 walk-through."""

    def test_ksp_dg_iterates_and_terminates_correctly(self):
        graph = build_two_subgraph_graph()
        dtlp = DTLP(graph, DTLPConfig(z=5, xi=2)).build()
        engine = KSPDG(dtlp)
        result = engine.query(0, 8, 2)
        expected = yen_k_shortest_paths(graph, 0, 8, 2)
        assert [round(d, 6) for d in result.distances] == [
            round(p.distance, 6) for p in expected
        ]
        # Shortest route goes 0-1-4-5-8 with distance 8.
        assert result.paths[0].distance == pytest.approx(8.0)
        assert result.paths[0].vertices == (0, 1, 4, 5, 8)

    def test_lemma2_reference_paths_lower_bound_candidates(self):
        graph = build_two_subgraph_graph()
        dtlp = DTLP(graph, DTLPConfig(z=5, xi=2)).build()
        engine = KSPDG(dtlp)
        result = engine.query(0, 8, 3)
        # Lemma 2 / Theorem 2: the first reference path distance never exceeds
        # the true shortest distance.
        assert result.reference_paths[0].distance <= result.paths[0].distance + 1e-9

    def test_termination_condition_theorem3(self):
        """When the k-th distance <= the next reference path, results are final."""
        graph = build_two_subgraph_graph()
        dtlp = DTLP(graph, DTLPConfig(z=5, xi=2)).build()
        engine = KSPDG(dtlp)
        result = engine.query(0, 8, 2)
        expected = yen_k_shortest_paths(graph, 0, 8, 2)
        assert result.distances == pytest.approx([p.distance for p in expected])
        # The number of iterations stays small (the paper argues at most ~k
        # iterations in the common case).
        assert result.iterations <= 2 * 2 + 2
