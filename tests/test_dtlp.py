"""Tests for repro.core.dtlp (index build, maintenance, statistics)."""

from __future__ import annotations

import pytest

from repro.algorithms.dijkstra import dijkstra
from repro.core import DTLP, DTLPConfig, KSPDG
from repro.dynamics import TrafficModel
from repro.graph import partition_graph, road_network
from repro.graph.errors import IndexStateError, StaleStructureError


def min_within_subgraph_distance(partition, u, v):
    """Smallest within-subgraph distance over subgraphs containing both vertices.

    This is the quantity skeleton-edge weights lower-bound (Lemma 1 is about
    within-subgraph distances; a global shortest path may leave the subgraph
    and be shorter).
    """
    best = None
    for subgraph_id in partition.subgraphs_containing_pair(u, v):
        subgraph = partition.subgraph(subgraph_id)
        distances, _ = dijkstra(subgraph, u, target=v)
        if v in distances and (best is None or distances[v] < best):
            best = distances[v]
    return best


class TestBuild:
    def test_build_produces_skeleton_over_boundary_vertices(self, small_road_network, small_dtlp):
        partition = small_dtlp.partition
        skeleton = small_dtlp.skeleton_graph
        assert set(skeleton.vertices()) >= partition.boundary_vertices
        assert skeleton.num_edges > 0

    def test_access_before_build_raises(self, small_road_network):
        dtlp = DTLP(small_road_network, DTLPConfig(z=20, xi=2))
        with pytest.raises(IndexStateError):
            _ = dtlp.skeleton_graph
        with pytest.raises(IndexStateError):
            _ = dtlp.partition
        with pytest.raises(IndexStateError):
            dtlp.statistics()

    def test_config_directedness_follows_graph(self, small_road_network):
        dtlp = DTLP(small_road_network, DTLPConfig(z=20, xi=2, directed=True))
        assert dtlp.config.directed is False

    def test_prebuilt_partition_reused(self, small_road_network):
        partition = partition_graph(small_road_network, 20)
        dtlp = DTLP(small_road_network, DTLPConfig(z=20, xi=2), partition=partition).build()
        assert dtlp.partition is partition

    def test_every_subgraph_indexed(self, small_dtlp):
        assert set(small_dtlp.subgraph_indexes()) == {
            subgraph.subgraph_id for subgraph in small_dtlp.partition.subgraphs
        }

    def test_unknown_subgraph_index_raises(self, small_dtlp):
        with pytest.raises(IndexStateError):
            small_dtlp.subgraph_index(10_000)

    def test_skeleton_edges_lower_bound_within_subgraph_distances(self, small_road_network, small_dtlp):
        """Every skeleton edge weight lower-bounds the within-subgraph distance."""
        skeleton = small_dtlp.skeleton_graph
        partition = small_dtlp.partition
        checked = 0
        for u, v, weight in list(skeleton.edges())[:40]:
            within = min_within_subgraph_distance(partition, u, v)
            assert within is not None
            assert weight <= within + 1e-6
            checked += 1
        assert checked > 0


class TestStatistics:
    def test_statistics_fields(self, small_road_network, small_dtlp):
        stats = small_dtlp.statistics()
        assert stats.num_vertices == small_road_network.num_vertices
        assert stats.num_edges == small_road_network.num_edges
        assert stats.num_subgraphs == small_dtlp.partition.num_subgraphs
        assert stats.skeleton_vertices == small_dtlp.skeleton_graph.num_vertices
        assert stats.num_bounding_paths > 0
        assert stats.ep_index_entries > 0
        assert stats.build_seconds > 0
        assert stats.num_subgraphs_with_many_boundaries <= stats.num_subgraphs

    def test_statistics_as_dict(self, small_dtlp):
        as_dict = small_dtlp.statistics().as_dict()
        assert "skeleton_edges" in as_dict
        assert "ep_index_bytes" in as_dict

    def test_larger_xi_means_more_bounding_paths(self, small_road_network):
        small_xi = DTLP(small_road_network, DTLPConfig(z=20, xi=1)).build()
        large_xi = DTLP(small_road_network, DTLPConfig(z=20, xi=4)).build()
        assert (
            large_xi.statistics().num_bounding_paths
            >= small_xi.statistics().num_bounding_paths
        )

    def test_larger_z_means_fewer_subgraphs(self, small_road_network):
        fine = DTLP(small_road_network, DTLPConfig(z=8, xi=1)).build()
        coarse = DTLP(small_road_network, DTLPConfig(z=32, xi=1)).build()
        assert coarse.statistics().num_subgraphs < fine.statistics().num_subgraphs
        assert (
            coarse.statistics().skeleton_vertices < fine.statistics().skeleton_vertices
        )


class TestMaintenance:
    def test_update_before_build_raises(self, small_road_network):
        dtlp = DTLP(small_road_network, DTLPConfig(z=20, xi=2))
        with pytest.raises(IndexStateError):
            dtlp.handle_updates([])

    def test_structural_edit_after_build_raises_until_rebuilt(self):
        graph = road_network(6, 6, seed=10)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build().attach()
        engine = KSPDG(dtlp)
        before = engine.query(0, 35, 2)
        graph.add_edge(0, 35, 1.0)  # a shortcut no built structure knows
        with pytest.raises(StaleStructureError, match=r"DTLP\.build\(\)"):
            engine.query(0, 35, 2)
        with pytest.raises(StaleStructureError):
            dtlp.handle_updates([])
        with pytest.raises(StaleStructureError):
            graph.update_weight(0, 1, graph.weight(0, 1) + 1.0)  # via the listener
        dtlp.build()
        after = KSPDG(dtlp).query(0, 35, 2)
        assert after.paths[0].vertices == (0, 35)
        assert after.paths[0].distance == 1.0 < before.paths[0].distance
        graph.update_weight(0, 35, 2.0)
        assert KSPDG(dtlp).query(0, 35, 2).paths[0].distance == 2.0

    def test_listener_integration_keeps_bounds_valid(self):
        graph = road_network(6, 6, seed=10)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        graph.add_listener(dtlp.handle_updates)
        model = TrafficModel(graph, alpha=0.4, tau=0.5, seed=2)
        for _ in range(3):
            model.advance()
        skeleton = dtlp.skeleton_graph
        for u, v, weight in list(skeleton.edges())[:30]:
            within = min_within_subgraph_distance(dtlp.partition, u, v)
            assert within is not None
            assert weight <= within + 1e-6

    def test_maintenance_time_recorded(self):
        graph = road_network(6, 6, seed=10)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        model = TrafficModel(graph, alpha=0.3, tau=0.3, seed=2)
        updates = model.advance()
        elapsed = dtlp.handle_updates(updates)
        assert elapsed >= 0
        assert dtlp.last_maintenance_seconds == elapsed

    def test_attachment_edges_for_non_boundary_vertex(self, small_road_network, small_dtlp):
        partition = small_dtlp.partition
        non_boundary = next(
            vertex
            for vertex in small_road_network.vertices()
            if not partition.is_boundary(vertex)
        )
        edges = small_dtlp.attachment_edges(non_boundary)
        assert edges, "expected at least one attachment edge"
        for boundary_vertex, weight in edges.items():
            assert partition.is_boundary(boundary_vertex)
            within = min_within_subgraph_distance(
                partition, non_boundary, boundary_vertex
            )
            assert within is not None
            assert weight <= within + 1e-6

    def test_attachment_edges_for_boundary_vertex_empty(self, small_dtlp):
        boundary_vertex = next(iter(small_dtlp.partition.boundary_vertices))
        assert small_dtlp.attachment_edges(boundary_vertex) == {}
