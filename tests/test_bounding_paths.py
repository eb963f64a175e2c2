"""Tests for repro.core.bounding_paths and repro.core.ep_index."""

from __future__ import annotations

import pytest

from repro.core.ep_index import EPIndex
from repro.core.subgraph_index import SubgraphIndex
from repro.core.bounding_paths import BoundingPath
from repro.graph import DynamicGraph
from repro.graph.subgraph import Subgraph


def bounding_paths(graph, source, target, xi):
    """The bounding paths of ``(source, target)`` over the whole of ``graph``
    with both endpoints as boundary vertices (Algorithm 1 for one pair)."""
    edges = [(u, v) for u, v, _ in graph.edges()]
    subgraph = Subgraph(0, graph, graph.vertices(), edges)
    subgraph.set_boundary_vertices({source, target})
    return SubgraphIndex(subgraph, xi=xi).build().bounding_paths(source, target)


class TestBoundingPathRecord:
    def test_repr_contains_endpoints(self):
        path = BoundingPath(3, 1, 4, (1, 4), 2, 5.0)
        assert "1->4" in repr(path)


class TestComputeBoundingPaths:
    def test_sg4_pair_13_14(self, sg4_graph):
        """Example 3: bounding paths between v13 and v14 with xi = 2."""
        paths = bounding_paths(sg4_graph, 13, 14, xi=2)
        assert [p.vertices for p in paths] == [(13, 16, 14), (13, 18, 17, 16, 14)]
        assert [p.vfrag_count for p in paths] == [8, 10]
        assert paths[0].distance == pytest.approx(8.0)
        assert paths[1].distance == pytest.approx(10.0)

    def test_xi_one_returns_single_path(self, sg4_graph):
        paths = bounding_paths(sg4_graph, 13, 14, xi=1)
        assert len(paths) == 1
        assert paths[0].vertices == (13, 16, 14)

    def test_disconnected_pair_returns_empty(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(3, 4, 1.0)
        assert bounding_paths(graph, 1, 4, xi=2) == []

    def test_invalid_xi_rejected(self, sg4_graph):
        with pytest.raises(ValueError):
            bounding_paths(sg4_graph, 13, 14, xi=0)

    def test_distances_reflect_current_weights(self, sg4_graph):
        sg4_graph.update_weight(13, 16, 50.0)
        paths = bounding_paths(sg4_graph, 13, 14, xi=1)
        # Bounding paths are defined by vfrag counts (initial weights), so the
        # fewest-vfrag path is still <13,16,14>, but its distance reflects the
        # new weight.
        assert paths[0].vertices == (13, 16, 14)
        assert paths[0].distance == pytest.approx(53.0)


def ep_index(paths, directed=False):
    """An EPIndex over vertex paths: path ``p`` is ``paths[p]``, edges are
    numbered as first seen."""
    edge_ids = {}
    path_edges = []
    for vertices in paths:
        path_edges.append([
            edge_ids.setdefault((u, v) if directed or u <= v else (v, u), len(edge_ids))
            for u, v in zip(vertices, vertices[1:])
        ])
    return EPIndex(edge_ids, path_edges, directed)


class TestEPIndex:
    def test_paths_registered_under_every_edge(self):
        index = ep_index([(10, 11, 12), (11, 12, 13)])
        assert index.paths_through_edge(11, 12) == (0, 1)
        assert index.paths_through_edge(10, 11) == (0,)
        assert index.paths_through_edge(13, 14) == ()

    def test_undirected_key_normalisation(self):
        index = ep_index([(5, 6)])
        assert index.paths_through_edge(6, 5) == (0,)

    def test_directed_keys_preserve_orientation(self):
        index = ep_index([(5, 6)], directed=True)
        assert index.paths_through_edge(5, 6) == (0,)
        assert index.paths_through_edge(6, 5) == ()

    def test_entry_count(self):
        index = ep_index([(1, 2, 3), (2, 3, 4)])
        assert index.num_entries() == 4
        assert len(index) == 3
        # An edge of the subgraph no bounding path uses is not counted.
        bare = EPIndex({(1, 2): 0, (2, 3): 1, (7, 8): 2}, [[0, 1]])
        assert len(bare) == 2 and (7, 8) not in bare

    def test_contains_and_len(self):
        index = ep_index([(1, 2)])
        assert (1, 2) in index
        assert (2, 1) in index
        assert len(index) == 1

    def test_memory_estimate_grows_with_entries(self):
        small = ep_index([(1, 2)])
        large = ep_index([(p, p + 1, p + 2) for p in range(20)])
        assert large.memory_estimate_bytes() > small.memory_estimate_bytes()
        assert small.memory_estimate_bytes() == (len(small.offsets) + len(small.paths)) * 4
