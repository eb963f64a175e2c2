"""Unit tests for the array-backed kernel layer (repro.kernel)."""

from __future__ import annotations

import random

import pytest

from repro.algorithms.dijkstra import dijkstra, shortest_path
from repro.algorithms.find_ksp import find_ksp
from repro.core import DTLP, DTLPConfig
from repro.core.ksp_dg import validate_kernel
from repro.graph import DynamicGraph, road_network
from repro.graph.errors import (
    EdgeNotFoundError,
    GraphError,
    PathNotFoundError,
    QueryError,
    StaleStructureError,
    VertexNotFoundError,
)
from repro.graph.generators import grid_graph, random_graph
from repro.graph.graph import DirectedDynamicGraph, WeightUpdate
from repro.kernel import CSRSnapshot
from repro.kernel.primitives import dijkstra_arrays
from repro.workloads import FindKSPEngine, YenEngine
from repro.workloads.queries import KSPQuery


@pytest.fixture()
def triangle() -> DynamicGraph:
    graph = DynamicGraph()
    graph.add_edge(1, 2, 1.0)
    graph.add_edge(2, 3, 2.0)
    graph.add_edge(1, 3, 5.0)
    return graph


class TestCSRSnapshotStructure:
    def test_vertex_interning_is_sorted(self, triangle: DynamicGraph) -> None:
        snapshot = CSRSnapshot(triangle)
        assert snapshot.ids == [1, 2, 3]
        assert snapshot.index_of == {1: 0, 2: 1, 3: 2}

    def test_counts_and_membership(self, triangle: DynamicGraph) -> None:
        snapshot = CSRSnapshot(triangle)
        assert snapshot.num_vertices == 3
        assert snapshot.num_edges == 3
        assert len(snapshot) == 3
        assert 1 in snapshot and 99 not in snapshot
        assert snapshot.has_edge(1, 2) and snapshot.has_edge(2, 1)
        assert not snapshot.has_edge(1, 99)
        assert list(snapshot.vertices()) == [1, 2, 3]

    def test_csr_arrays_are_consistent(self, triangle: DynamicGraph) -> None:
        snapshot = CSRSnapshot(triangle)
        assert len(snapshot.rows) == snapshot.num_vertices
        # Each row is its vertex's arcs in index space, in the source's order.
        for i, vertex in enumerate(snapshot.ids):
            assert snapshot.rows[i] == [
                (snapshot.index_of[v], w) for v, w in triangle.neighbors(vertex).items()
            ]

    def test_neighbors_match_source_graph(self, triangle: DynamicGraph) -> None:
        snapshot = CSRSnapshot(triangle)
        for vertex in triangle.vertices():
            assert dict(snapshot.neighbors(vertex)) == dict(triangle.neighbors(vertex))

    def test_weight_lookup_is_exact(self, triangle: DynamicGraph) -> None:
        snapshot = CSRSnapshot(triangle)
        assert snapshot.weight(1, 2) == 1.0
        assert snapshot.weight(3, 2) == 2.0
        assert snapshot.path_distance((1, 2, 3)) == 3.0
        with pytest.raises(EdgeNotFoundError):
            snapshot.weight(1, 99)

    def test_unknown_vertex_raises(self, triangle: DynamicGraph) -> None:
        snapshot = CSRSnapshot(triangle)
        with pytest.raises(VertexNotFoundError):
            list(snapshot.neighbors(99))

    def test_directed_arcs_are_independent(self) -> None:
        graph = DirectedDynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(2, 1, 9.0)
        graph.add_edge(2, 3, 2.0)
        snapshot = CSRSnapshot(graph)
        assert snapshot.directed
        assert snapshot.weight(1, 2) == 1.0
        assert snapshot.weight(2, 1) == 9.0
        assert snapshot.has_edge(2, 3)
        assert not snapshot.has_edge(3, 2)

    def test_reverse_directed(self) -> None:
        graph = DirectedDynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(2, 3, 2.0)
        reversed_snapshot = CSRSnapshot(graph).reverse()
        assert reversed_snapshot.weight(2, 1) == 1.0
        assert reversed_snapshot.weight(3, 2) == 2.0
        assert not reversed_snapshot.has_edge(1, 2)

    def test_reverse_undirected_is_identity(self, triangle: DynamicGraph) -> None:
        snapshot = CSRSnapshot(triangle)
        assert snapshot.reverse() is snapshot

    def test_subgraph_snapshot(self, small_dtlp: DTLP) -> None:
        subgraph = small_dtlp.partition.subgraph(0)
        snapshot = CSRSnapshot(subgraph)
        assert snapshot.num_vertices == subgraph.num_vertices
        assert snapshot.num_edges == subgraph.num_edges
        for vertex in subgraph.vertices:
            assert dict(snapshot.neighbors(vertex)) == dict(subgraph.neighbors(vertex))


class TestRefresh:
    def test_refresh_noop_when_current(self, triangle: DynamicGraph) -> None:
        snapshot = CSRSnapshot(triangle)
        assert snapshot.refresh() == 0

    def test_refresh_picks_up_weight_updates(self, triangle: DynamicGraph) -> None:
        snapshot = CSRSnapshot(triangle)
        triangle.update_weight(1, 2, 7.5)
        assert snapshot.weight(1, 2) == 1.0  # stale until refreshed
        rewritten = snapshot.refresh()
        assert rewritten == 2  # both arc orientations of the undirected edge
        assert snapshot.weight(1, 2) == 7.5
        assert snapshot.weight(2, 1) == 7.5
        # The derived row view was rebuilt too.
        assert dict(snapshot.neighbors(1))[2] == 7.5

    def test_refresh_after_a_structural_edit_raises(self, triangle: DynamicGraph) -> None:
        # Graph construction before any snapshot is unaffected; an edge or
        # vertex added afterwards cannot be followed and must not go unnoticed.
        snapshot = CSRSnapshot(triangle)
        triangle.add_edge(1, 2, 4.0)  # existing edge: no new structure
        assert snapshot.refresh() == 0
        triangle.add_edge(3, 4, 1.0)
        with pytest.raises(StaleStructureError, match="fresh CSRSnapshot") as excinfo:
            snapshot.refresh()
        assert isinstance(excinfo.value, GraphError)
        fresh = CSRSnapshot(triangle)
        assert fresh.refresh() == 0
        assert fresh.weight(3, 4) == 1.0

    def test_subgraph_snapshot_notices_a_structural_edit_of_the_parent(self) -> None:
        graph = road_network(6, 6, seed=2)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        subgraph = dtlp.partition.subgraph(next(iter(dtlp.subgraph_indexes())))
        snapshot = CSRSnapshot(subgraph)
        graph.add_vertex(10_000)
        with pytest.raises(StaleStructureError):
            snapshot.refresh()

    def test_refresh_is_incremental_across_batches(self) -> None:
        graph = road_network(6, 6, seed=2)
        snapshot = CSRSnapshot(graph)
        edges = list(graph.edges())[:4]
        graph.apply_updates([WeightUpdate(u, v, w + 1.0) for u, v, w in edges[:2]])
        assert snapshot.refresh() == 4
        graph.apply_updates([WeightUpdate(u, v, w + 2.0) for u, v, w in edges[2:]])
        # Only the second batch is rewritten on the second refresh.
        assert snapshot.refresh() == 4
        for u, v, _ in edges:
            assert snapshot.weight(u, v) == graph.weight(u, v)

    def test_subgraph_refresh_filters_foreign_edges(self) -> None:
        partition = DTLP(road_network(8, 8, seed=1), DTLPConfig(z=20, xi=3)).build().partition
        graph = partition.graph
        subgraph = partition.subgraph(0)
        snapshot = CSRSnapshot(subgraph)
        inside = next(iter(subgraph.edge_set))
        outside = next(
            (u, v)
            for u, v, _ in graph.edges()
            if not subgraph.has_edge(u, v)
        )
        graph.apply_updates(
            [
                WeightUpdate(*inside, graph.weight(*inside) + 3.0),
                WeightUpdate(*outside, graph.weight(*outside) + 3.0),
            ]
        )
        assert snapshot.refresh() == 2  # only the inside edge, both arcs
        assert snapshot.weight(*inside) == graph.weight(*inside)

    def test_directed_refresh_touches_one_arc(self) -> None:
        graph = DirectedDynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(2, 1, 9.0)
        snapshot = CSRSnapshot(graph)
        graph.update_weight(1, 2, 4.0)
        assert snapshot.refresh() == 1
        assert snapshot.weight(1, 2) == 4.0
        assert snapshot.weight(2, 1) == 9.0

    def test_edges_changed_since_is_incremental_and_deduplicated(self) -> None:
        graph = road_network(6, 6, seed=2)
        u, v, w = next(graph.edges())
        base = graph.version
        graph.update_weight(u, v, w + 1.0)
        graph.update_weight(u, v, w + 2.0)  # same edge twice
        changed = list(graph.edges_changed_since(base))
        assert changed == [(min(u, v), max(u, v), w + 2.0)]
        assert list(graph.edges_changed_since(graph.version)) == []

    def test_edges_changed_since_survives_log_compaction(self) -> None:
        """The change log is bounded by the graph, and no reader sees the cut.

        200 rounds of 1..|E| updates (repeats within a batch included) on a
        24-edge grid compact the log dozens of times; after every round the
        log holds at most 2 * |E| entries and ``edges_changed_since(v)``
        equals the brute-force answer from the per-edge version table for
        every past ``v`` — those served from the log and those that fell
        behind a compaction alike.
        """
        graph = grid_graph(4, 4)
        edges = [(u, v) for u, v, _ in graph.edges()]
        assert graph.num_edges == len(edges) == 24
        rng = random.Random(11)
        longest = 0
        for round_number in range(200):
            batch = rng.choices(edges, k=rng.randint(1, len(edges)))
            graph.apply_updates(
                [WeightUpdate(u, v, float(rng.randint(1, 9))) for u, v in batch]
            )
            longest = max(longest, len(graph._change_log))
            assert len(graph._change_log) <= 2 * graph.num_edges
            for past in range(graph.version + 1):
                expected = {
                    (u, v): graph.weight(u, v)
                    for (u, v), changed_at in graph._edge_versions.items()
                    if changed_at > past
                }
                reported = list(graph.edges_changed_since(past))
                assert len(reported) == len(expected)  # each edge once
                assert {(u, v): w for u, v, w in reported} == expected
        assert graph.version == 200
        assert graph._change_log_floor > 0  # compaction did happen
        assert longest > graph.num_edges  # and the bound is not vacuous

    def test_unversioned_source_full_reread(self) -> None:
        skeleton = DTLP(road_network(8, 8, seed=1), DTLPConfig(z=20, xi=3)).build().skeleton_graph
        snapshot = CSRSnapshot(skeleton)
        u, v, weight = next(skeleton.edges())
        skeleton.set_edge(u, v, weight + 1.0)
        assert snapshot.refresh() > 0
        assert snapshot.weight(u, v) == weight + 1.0


class TestKernelDispatch:
    def test_dijkstra_unknown_source_raises(self, triangle: DynamicGraph) -> None:
        snapshot = CSRSnapshot(triangle)
        with pytest.raises(VertexNotFoundError):
            dijkstra(snapshot, 99)

    def test_banned_source_returns_empty(self, triangle: DynamicGraph) -> None:
        snapshot = CSRSnapshot(triangle)
        assert dijkstra(snapshot, 1, banned_vertices={1}) == ({}, {})

    def test_shortest_path_trivial_and_missing(self, triangle: DynamicGraph) -> None:
        snapshot = CSRSnapshot(triangle)
        assert shortest_path(snapshot, 2, 2).vertices == (2,)
        with pytest.raises(PathNotFoundError):
            shortest_path(snapshot, 1, 42)

    def test_disconnected_target(self) -> None:
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(3, 4, 1.0)
        snapshot = CSRSnapshot(graph)
        with pytest.raises(PathNotFoundError):
            shortest_path(snapshot, 1, 3)

    def test_dijkstra_arrays_touched_tracking(self, triangle: DynamicGraph) -> None:
        snapshot = CSRSnapshot(triangle)
        dist, pred, touched = dijkstra_arrays(snapshot.rows, 3, 0)
        assert touched is not None and touched[0] == 0
        assert sorted(touched) == [0, 1, 2]
        assert dist[2] == 3.0 and pred[2] == 1
        _, _, untracked = dijkstra_arrays(snapshot.rows, 3, 0, track_touched=False)
        assert untracked is None

    def test_find_ksp_on_directed_snapshot(self) -> None:
        graph = random_graph(30, 60, seed=5, directed=True)
        snapshot = CSRSnapshot(graph)
        assert find_ksp(graph, 0, 17, 3) == find_ksp(snapshot, 0, 17, 3)


class TestKernelSelection:
    def test_validate_kernel(self) -> None:
        assert validate_kernel("dict") == "dict"
        assert validate_kernel("snapshot") == "snapshot"
        with pytest.raises(QueryError):
            validate_kernel("numpy")

    def test_engines_expose_kernel(self, small_road_network) -> None:
        assert YenEngine(small_road_network).kernel == "snapshot"
        assert FindKSPEngine(small_road_network, kernel="dict").kernel == "dict"
        with pytest.raises(QueryError):
            YenEngine(small_road_network, kernel="bogus")

    def test_engine_kernels_answer_identically(self, small_road_network) -> None:
        query = KSPQuery(query_id=0, source=0, target=37, k=3)
        fast = YenEngine(small_road_network, kernel="snapshot").answer(query)
        reference = YenEngine(small_road_network, kernel="dict").answer(query)
        assert fast.paths == reference.paths

    def test_dtlp_subgraph_snapshot_cached_and_refreshed(self) -> None:
        graph = road_network(8, 8, seed=3)
        dtlp = DTLP(graph, DTLPConfig(z=20, xi=3)).build()
        first = dtlp.subgraph_snapshot(0)
        assert dtlp.subgraph_snapshot(0) is first
        u, v, weight = next(iter(dtlp.partition.subgraph(0).edges()))
        graph.update_weight(u, v, weight + 2.0)
        assert dtlp.subgraph_snapshot(0).weight(u, v) == weight + 2.0
