"""Tests for repro.graph.partition_ml (multilevel min-cut partitioner).

Three layers of guarantees:

* **Invariants** — ``partition_mincut`` must satisfy the exact same
  contract as the paper's BFS partitioner (vertex/edge cover, edge
  disjointness, block size at most ``z`` home vertices), on randomized
  graphs, because DTLP and KSP-DG run on the result unchanged.
* **Quality** — on clustered road networks (city grids joined by sparse
  highways) the min-cut partitioner must expose substantially fewer
  boundary vertices than BFS at the same ``z``.
* **Identity** — query answers are a function of the *graph*, not the
  partition: KSP-DG over a min-cut partition returns the same distances
  as over a BFS partition, and bit-identical results across the serial
  and process backends.
"""

from __future__ import annotations

import random

import pytest

from repro.core import DTLP, DTLPConfig
from repro.distributed import KSPDGEngine
from repro.graph import (
    DynamicGraph,
    clustered_road_network,
    partition_graph,
    partition_mincut,
    random_graph,
    road_network,
)
from repro.graph.errors import PartitionError
from repro.graph.partition_ml import make_partition
from repro.graph.graph import edge_key
from repro.workloads import QueryGenerator


def check_partition_contract(graph, partition, z):
    """The invariants every partitioner must honour (see partition.py)."""
    covered = set()
    for subgraph in partition:
        covered |= subgraph.vertices
    assert covered == set(graph.vertices())

    seen = set()
    for subgraph in partition:
        for key in subgraph.edge_set:
            assert key not in seen, "edge assigned to two subgraphs"
            seen.add(key)
    assert seen == {edge_key(u, v) for u, v, _ in graph.edges()}

    for subgraph in partition:
        home = subgraph.vertices - partition.boundary_vertices
        others = set()
        for other in partition:
            if other.subgraph_id != subgraph.subgraph_id:
                others |= other.vertices
        # Home vertices (not shared with any other block) obey the z cap;
        # adopted boundary vertices ride on top, as with BFS.
        assert len(subgraph.vertices - others) <= z

    for vertex in partition.boundary_vertices:
        assert len(partition.subgraphs_of_vertex(vertex)) >= 2


class TestMincutInvariants:
    @pytest.mark.parametrize("z", [6, 12, 24])
    def test_road_network_contract(self, z):
        graph = road_network(8, 8, seed=11)
        partition = partition_mincut(graph, z)
        check_partition_contract(graph, partition, z)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graph_contract(self, seed):
        rng = random.Random(seed)
        n = rng.randint(12, 60)
        m = rng.randint(n, 3 * n)
        graph = random_graph(n, m, seed=seed)
        z = rng.randint(4, max(5, n // 2))
        partition = partition_mincut(graph, z)
        check_partition_contract(graph, partition, z)

    def test_disconnected_graph_covered(self):
        graph = DynamicGraph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(10, 11, 1.0)
        graph.add_vertex(99)
        partition = partition_mincut(graph, 4)
        covered = set()
        for subgraph in partition:
            covered |= subgraph.vertices
        assert covered == {0, 1, 10, 11, 99}

    def test_empty_graph(self):
        assert partition_mincut(DynamicGraph(), 4).num_subgraphs == 0

    def test_single_block_when_z_exceeds_graph(self):
        graph = road_network(3, 3, seed=1)
        partition = partition_mincut(graph, 100)
        assert partition.num_subgraphs == 1
        assert partition.boundary_vertices == frozenset()

    def test_z_below_two_rejected(self):
        with pytest.raises(PartitionError):
            partition_mincut(road_network(3, 3, seed=1), 1)

    def test_deterministic_and_order_independent(self):
        base = road_network(6, 6, seed=9)
        reference = partition_mincut(base, 10)
        assert [s.vertices for s in partition_mincut(base, 10)] == [
            s.vertices for s in reference
        ]
        edges = [(u, v, w) for u, v, w in base.edges()]
        for seed in range(3):
            shuffled = list(edges)
            random.Random(seed).shuffle(shuffled)
            graph = DynamicGraph()
            for u, v, w in shuffled:
                graph.add_edge(u, v, w)
            partition = partition_mincut(graph, 10)
            assert [s.vertices for s in partition] == [
                s.vertices for s in reference
            ]


class TestMakePartition:
    def test_dispatches_by_name(self):
        graph = road_network(5, 5, seed=3)
        bfs = make_partition(graph, 8, partitioner="bfs")
        mincut = make_partition(graph, 8, partitioner="mincut")
        assert [s.vertices for s in bfs] == [
            s.vertices for s in partition_graph(graph, 8)
        ]
        assert [s.vertices for s in mincut] == [
            s.vertices for s in partition_mincut(graph, 8)
        ]

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(PartitionError):
            make_partition(road_network(3, 3, seed=1), 4, partitioner="metis")


class TestMincutQuality:
    def test_fewer_boundary_vertices_on_clustered_network(self):
        graph = clustered_road_network(
            clusters_per_side=3, cluster_rows=5, cluster_cols=5, seed=5
        )
        z = 25
        bfs = partition_graph(graph, z)
        mincut = partition_mincut(graph, z)
        assert len(mincut.boundary_vertices) <= 0.75 * len(bfs.boundary_vertices)


def _distances(outcomes):
    return [[path.distance for path in o.paths] for o in outcomes]


def _signature(outcomes):
    return [
        ([(p.vertices, p.distance) for p in o.paths], o.iterations)
        for o in outcomes
    ]


class TestKSPDGIdentity:
    def test_same_distances_as_bfs_partition(self):
        graph = road_network(6, 6, seed=21)
        queries = QueryGenerator(graph, seed=22, min_hops=3).generate(12, k=3)
        outputs = {}
        for name in ("bfs", "mincut"):
            config = DTLPConfig(z=12, xi=2, partitioner=name)
            engine = KSPDGEngine.local(DTLP(graph, config).build())
            try:
                outputs[name] = engine.answer_many(queries)
            finally:
                engine.close()
        assert _distances(outputs["mincut"]) == _distances(outputs["bfs"])

    @pytest.mark.parametrize("executor", ["process"])
    def test_bit_identical_across_backends(self, executor):
        graph = road_network(6, 6, seed=23)
        queries = QueryGenerator(graph, seed=24, min_hops=3).generate(8, k=3)
        config = DTLPConfig(z=12, xi=2, partitioner="mincut")

        def run(backend):
            dtlp = DTLP(graph, config).build()
            engine = KSPDGEngine.local(dtlp, executor=backend, executor_workers=2)
            try:
                return _signature(engine.answer_many(queries))
            finally:
                engine.close()

        assert run(executor) == run("serial")
