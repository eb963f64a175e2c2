"""Tests for repro.core.subgraph_index (first-level DTLP index, Theorem 1)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.algorithms.dijkstra import shortest_distance
from repro.core import DTLP, DTLPConfig
from repro.core.subgraph_index import SubgraphIndex
from repro.graph import (
    DynamicGraph,
    WeightUpdate,
    clustered_road_network,
    random_graph,
    road_network,
)
from repro.graph.subgraph import Subgraph
from repro.dynamics import TrafficModel

from conftest import apply_sg4_change, reprice_updates


def full_subgraph(graph, subgraph_id=0, boundary=None):
    edges = [(u, v) for u, v, _ in graph.edges()]
    subgraph = Subgraph(subgraph_id, graph, graph.vertices(), edges)
    subgraph.set_boundary_vertices(boundary or graph.vertices())
    return subgraph


class TestBuild:
    def test_indexes_every_connected_boundary_pair(self, sg4_graph):
        subgraph = full_subgraph(sg4_graph, boundary={13, 14, 19})
        index = SubgraphIndex(subgraph, xi=2).build()
        pairs = set(index.boundary_pairs())
        assert (13, 14) in pairs
        assert (13, 19) in pairs
        assert (14, 19) in pairs

    def test_num_bounding_paths_positive(self, sg4_graph):
        subgraph = full_subgraph(sg4_graph, boundary={13, 14})
        index = SubgraphIndex(subgraph, xi=2).build()
        assert index.num_bounding_paths() == 2

    def test_ep_index_populated(self, sg4_graph):
        subgraph = full_subgraph(sg4_graph, boundary={13, 14})
        index = SubgraphIndex(subgraph, xi=2).build()
        assert set(index.ep_index.paths_through_edge(13, 16)) != set()

    def test_invalid_xi_rejected(self, sg4_graph):
        subgraph = full_subgraph(sg4_graph, boundary={13, 14})
        with pytest.raises(ValueError):
            SubgraphIndex(subgraph, xi=0)

    def test_build_seconds_recorded(self, sg4_graph):
        subgraph = full_subgraph(sg4_graph, boundary={13, 14})
        index = SubgraphIndex(subgraph, xi=2).build()
        assert index.build_seconds >= 0.0

    def test_directed_index_has_both_directions(self):
        from repro.graph.graph import DirectedDynamicGraph

        graph = DirectedDynamicGraph()
        graph.add_edge(1, 2, 2.0)
        graph.add_edge(2, 1, 3.0)
        graph.add_edge(2, 3, 2.0)
        graph.add_edge(3, 2, 2.0)
        edges = [(u, v) for u, v, _ in graph.edges()]
        subgraph = Subgraph(0, graph, graph.vertices(), edges)
        subgraph.set_boundary_vertices({1, 3})
        index = SubgraphIndex(subgraph, xi=1, directed=True).build()
        pairs = set(index.boundary_pairs())
        assert (1, 3) in pairs
        assert (3, 1) in pairs


class TestLowerBounds:
    def test_exact_at_build_time_with_integer_weights(self, sg4_graph):
        """With unit weights of 1 the lower bound equals the shortest distance."""
        subgraph = full_subgraph(sg4_graph, boundary={13, 14, 19})
        index = SubgraphIndex(subgraph, xi=2).build()
        for source, target in [(13, 14), (13, 19), (14, 19)]:
            expected = shortest_distance(sg4_graph, source, target)
            assert index.lower_bound_distance(source, target) == pytest.approx(expected)

    def test_lower_bound_after_sg4_change(self, sg4_graph):
        """After the Figure 5b change the bound stays below the new shortest distance."""
        subgraph = full_subgraph(sg4_graph, boundary={13, 14})
        index = SubgraphIndex(subgraph, xi=2).build()
        updates = [
            WeightUpdate(13, 18, 1.0),
            WeightUpdate(18, 17, 1.0),
            WeightUpdate(17, 16, 1.0),
            WeightUpdate(17, 19, 6.0),
        ]
        apply_sg4_change(sg4_graph)
        reprice_updates(index, updates)
        bound = index.lower_bound_distance(13, 14)
        true_distance = shortest_distance(sg4_graph, 13, 14)
        assert true_distance == pytest.approx(6.0)  # Example 2
        assert bound <= true_distance + 1e-9

    def test_lower_bounds_never_exceed_shortest_under_traffic(self):
        graph = road_network(5, 5, seed=12)
        subgraph = full_subgraph(graph, boundary={0, 4, 20, 24, 12})
        index = SubgraphIndex(subgraph, xi=3).build()
        model = TrafficModel(graph, alpha=0.5, tau=0.6, seed=3)
        for _ in range(5):
            reprice_updates(index, model.advance())
            for source, target in [(0, 24), (4, 20), (0, 12), (12, 24)]:
                bound = index.lower_bound_distance(source, target)
                true_distance = shortest_distance(graph, source, target)
                assert bound is not None
                assert bound <= true_distance + 1e-6

    def test_unconnected_pair_returns_none(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(3, 4, 1.0)
        edges = [(u, v) for u, v, _ in graph.edges()]
        subgraph = Subgraph(0, graph, graph.vertices(), edges)
        subgraph.set_boundary_vertices({1, 3})
        index = SubgraphIndex(subgraph, xi=2).build()
        assert index.lower_bound_distance(1, 3) is None

    def test_lower_bound_distances_bulk(self, sg4_graph):
        subgraph = full_subgraph(sg4_graph, boundary={13, 14, 19})
        index = SubgraphIndex(subgraph, xi=2).build()
        bulk = index.lower_bound_distances()
        assert len(bulk) == 3
        for (source, target), value in bulk.items():
            assert value == pytest.approx(index.lower_bound_distance(source, target))

    def test_lower_bounds_from_vertex(self, sg4_graph):
        subgraph = full_subgraph(sg4_graph, boundary={13, 14})
        index = SubgraphIndex(subgraph, xi=2).build()
        bounds = index.lower_bounds_from_vertex(17)
        assert bounds[13] == pytest.approx(shortest_distance(sg4_graph, 17, 13))
        assert bounds[14] == pytest.approx(shortest_distance(sg4_graph, 17, 14))

    def test_theorem1_claim1_example(self, theorem1_graphs):
        """Figure 6b: the bound distance of the 4-vfrag chain equals its distance."""
        graph_b, _ = theorem1_graphs
        subgraph = full_subgraph(graph_b, boundary={0, 100})
        index = SubgraphIndex(subgraph, xi=3).build()
        # Claim 1: the lower bound equals the true shortest distance (8).
        assert index.lower_bound_distance(0, 100) == pytest.approx(8.0)

    def test_theorem1_claim2_example(self, theorem1_graphs):
        """Figure 6d: the bound falls back to the maximal bound distance (4)."""
        _, graph_d = theorem1_graphs
        subgraph = full_subgraph(graph_d, boundary={0, 100})
        index = SubgraphIndex(subgraph, xi=3).build()
        bound = index.lower_bound_distance(0, 100)
        true_distance = shortest_distance(graph_d, 0, 100)
        assert true_distance == pytest.approx(5.0)
        assert bound == pytest.approx(4.0)
        assert bound <= true_distance


class TestMaintenance:
    def test_update_adjusts_path_distance(self, sg4_graph):
        subgraph = full_subgraph(sg4_graph, boundary={13, 14})
        index = SubgraphIndex(subgraph, xi=2).build()
        sg4_graph.update_weight(13, 16, 9.0)
        assert reprice_updates(index, [WeightUpdate(13, 16, 9.0)])
        first_path = index.bounding_paths(13, 14)[0]
        assert first_path.distance == pytest.approx(12.0)

    def test_memory_estimate_positive(self, sg4_graph):
        subgraph = full_subgraph(sg4_graph, boundary={13, 14})
        index = SubgraphIndex(subgraph, xi=2).build()
        assert index.memory_estimate_bytes() > 0


def index_digest(dtlp: DTLP) -> str:
    """sha256 over every subgraph's paths + pair table and the skeleton edges."""
    subgraphs = []
    for subgraph_id, index in sorted(dtlp.subgraph_indexes().items()):
        state = index.export_state()
        subgraphs.append([subgraph_id, state["paths"], state["pairs"]])
    skeleton = sorted([u, v, w] for u, v, w in dtlp.skeleton_graph.edges())
    blob = json.dumps({"subgraphs": subgraphs, "skeleton": skeleton}, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: Captured on the commit *before* the bounding-path search moved to index
#: space (PR 22), with the tuple-carrying id-space search: any reordering of
#: paths, path ids, pair tables or skeleton weights changes a digest.
#: ``(generator, directed, z, xi)`` on ``road_network(10, 10, seed=1)`` /
#: ``random_graph(100, 220, seed=1)``.
GOLDEN_SMALL = {
    ("road_network", False, 16, 2):
        "5880f5f4bc1933b775611d55d213db24f9d8357703f5c4e0c890aa8c2255b3d1",
    ("road_network", False, 32, 5):
        "ea036a3c2a76c2ff5d40e2cde0f08b9bbc9a7b7f73050c50cfed4178c3d8f631",
    ("road_network", False, 48, 3):
        "e94335e895fc22094b87d3c31a7a0ff22a65f60bd50945ed9303bcf46c2e2101",
    ("road_network", True, 16, 2):
        "c39065cf8a767e3c716cd10304c1df30b979aed6065012747dad9bc8a913b49f",
    ("road_network", True, 32, 5):
        "741cf61af57de0bd2bb39da0c21be402a4d869dd11811762385f5ee51356c86d",
    ("road_network", True, 48, 3):
        "ddfc2471cc37a8a43c779b8bfa33f7c8d023a0c7959617f8e3b5a0a59e1e5be7",
    ("random_graph", False, 16, 2):
        "ccebe5edc4657d25918565678f4e468e96fb842aafb935a8c71b850f69805805",
    ("random_graph", False, 32, 5):
        "27f1d1040415e410ac743619adaad373ecdc372fcd5e188ab85a026ccbc699d9",
    ("random_graph", False, 48, 3):
        "cd652206d8ce1ee56b9eacbb072507126cbff16958006081144805b5b129c31a",
    ("random_graph", True, 16, 2):
        "7d2c0e97aa24d03900e7e5d169c8423bfcf3fbe4e0f89da22f42e2ae5f599a7e",
    ("random_graph", True, 32, 5):
        "89e6805ef2abf5d608e295b30780cf5e16691205dbfe843892884e5275bd2a07",
    ("random_graph", True, 48, 3):
        "367b2fa8b8ad369b9c3bd7eb568aa49ef9f72d8c32f2834e17059e970b68dc7c",
}
#: The benchmark's pinned network ``M`` (``perf/stack.py``): 6 x 6 cities of
#: 8 x 8 vertices, seed 7, ``DTLPConfig(z=64, xi=3, partitioner="mincut")``.
GOLDEN_M = "59ec09982007f03dd3e60c731f740633026b51debcae8faecb81396b51a13f04"
PINNED_CONFIG = DTLPConfig(z=64, xi=3, partitioner="mincut")


def pinned_network(clusters_per_side):
    return clustered_road_network(
        clusters_per_side=clusters_per_side, cluster_rows=8, cluster_cols=8, seed=7
    )


class TestSameIndex:
    @pytest.mark.parametrize("case", sorted(GOLDEN_SMALL))
    def test_small_graphs_build_the_golden_index(self, case):
        generator, directed, z, xi = case
        if generator == "road_network":
            graph = road_network(10, 10, seed=1, directed=directed)
        else:
            graph = random_graph(100, 220, seed=1, directed=directed)
        dtlp = DTLP(graph, DTLPConfig(z=z, xi=xi, directed=directed)).build()
        assert index_digest(dtlp) == GOLDEN_SMALL[case]

    def test_pinned_network_m_builds_the_golden_index_untruncated(self):
        dtlp = DTLP(pinned_network(6), PINNED_CONFIG).build()
        assert index_digest(dtlp) == GOLDEN_M
        assert dtlp.statistics().truncated_searches == 0

    def test_pinned_network_l_is_untruncated(self):
        dtlp = DTLP(pinned_network(9), PINNED_CONFIG).build()
        assert dtlp.statistics().truncated_searches == 0


class TestTruncatedSearches:
    def test_cap_that_fires_is_counted_and_survives_export(self):
        graph = road_network(5, 5, seed=12)
        subgraph = full_subgraph(graph, boundary={0, 4, 20, 24, 12})
        capped = SubgraphIndex(subgraph, xi=3, max_expansions=5).build()
        # Undirected: the largest boundary vertex runs no search of its own.
        assert capped.truncated_searches == 4
        state = capped.export_state()
        assert state["truncated_searches"] == 4
        assert SubgraphIndex.from_state(subgraph, state).truncated_searches == 4
        del state["truncated_searches"]  # written before the count existed
        assert SubgraphIndex.from_state(subgraph, state).truncated_searches == 0
        assert SubgraphIndex(subgraph, xi=3).build().truncated_searches == 0

    def test_dtlp_statistics_sum_the_subgraphs(self):
        graph = road_network(8, 8, seed=1)
        capped = DTLP(graph, DTLPConfig(z=20, xi=3, max_expansions=5)).build()
        per_subgraph = [i.truncated_searches for i in capped.subgraph_indexes().values()]
        assert capped.statistics().truncated_searches == sum(per_subgraph) > 0
        assert DTLP(graph, DTLPConfig(z=20, xi=3)).build().statistics().truncated_searches == 0
