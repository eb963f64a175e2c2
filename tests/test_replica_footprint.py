"""What a replica keeps: derived structures agree with what they replaced.

A serving replica holds its ``(graph, DTLP)`` copy, its result cache and its
partial-KSP memo.  Stored structures were replaced by code that derives
what they held, and these tests pin each derivation to an oracle:

* ``CSRSnapshot`` finds an arc in its row instead of keeping a per-arc
  dict: every lookup must equal a dict of the graph's arcs;
* ``SubgraphIndex`` rebuilds a bounding path's vertices from its first
  vertex and edge ids: they must equal the build-time tuples, and the
  partition store must write the bytes it wrote when they were stored.

Plus the slotted :class:`Path`, the memo that forgets dead epochs, and a
hardware-free memory gate (``tracemalloc``) on what a replica retains; the
layout a replica shares with its in-process siblings is pinned in
``tests/test_index_layout.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import pickle
import random
import tracemalloc
from pathlib import Path as FilePath

import pytest

from repro.core import DTLP, DTLPConfig, KSPDG
from repro.core.subgraph_index import SubgraphIndex
from repro.distributed import KSPDGEngine
from repro.graph import WeightUpdate, clustered_road_network, random_graph, road_network
from repro.graph.subgraph import Subgraph
from repro.graph.paths import Path
from repro.kernel import CSRSnapshot
from repro.service import KSPService
from repro.store import PartitionStore
from repro.workloads import QueryGenerator


# ----------------------------------------------------------------------
# arc lookups == a dict of the graph's arcs
# ----------------------------------------------------------------------
def _arc_oracle(graph):
    arcs = {}
    for u, v, weight in graph.edges():
        arcs[(u, v)] = weight
        if not graph.directed:
            arcs[(v, u)] = weight
    return arcs


def _assert_lookups(snapshot, arcs, vertices):
    for u in vertices:
        for v in vertices:
            position = snapshot.arc_position(u, v)
            assert snapshot.has_edge(u, v) == ((u, v) in arcs)
            if (u, v) in arcs:
                assert snapshot.ids[snapshot.indices[position]] == v
                assert snapshot.weight(u, v) == arcs[(u, v)]
            else:
                assert position is None


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_arc_lookups_equal_a_dict_of_arcs(seed, directed):
    graph = random_graph(14, 30, seed=seed, directed=directed)
    snapshot = CSRSnapshot(graph)
    vertices = list(graph.vertices()) + [-1, 99]  # unknown vertices too
    _assert_lookups(snapshot, _arc_oracle(graph), vertices)
    rng = random.Random(seed)
    for _ in range(3):
        edges = rng.sample(list(graph.edges()), 8)
        # Either orientation, and repeats: the last write wins.
        graph.apply_updates([
            WeightUpdate(*((u, v) if directed or rng.random() < 0.5 else (v, u)),
                         float(rng.randint(1, 20)))
            for u, v, _ in edges + edges[:2]
        ])
        snapshot.refresh()
        _assert_lookups(snapshot, _arc_oracle(graph), vertices)
        for u, row in zip(snapshot.ids, snapshot.rows):
            assert {snapshot.ids[j]: w for j, w in row} == dict(graph.neighbors(u))


def test_unversioned_refresh_rereads_every_arc():
    skeleton = DTLP(road_network(8, 8, seed=1), DTLPConfig(z=20, xi=3)).build().skeleton_graph
    snapshot = CSRSnapshot(skeleton)
    rng = random.Random(5)
    for u, v, weight in rng.sample(list(skeleton.edges()), 10):
        skeleton.set_edge(u, v, weight + rng.randint(1, 9))
    snapshot.refresh()
    _assert_lookups(snapshot, _arc_oracle(skeleton), list(skeleton.vertices()))


# ----------------------------------------------------------------------
# rebuilt bounding-path vertices == the build-time tuples
# ----------------------------------------------------------------------
def _recording_install(monkeypatch):
    """Record the vertex tuples every ``SubgraphIndex._install`` receives."""
    installed = {}
    install = SubgraphIndex._install

    def recording(self, vertices, *args, **kwargs):
        installed[id(self)] = list(vertices)
        return install(self, vertices, *args, **kwargs)

    monkeypatch.setattr(SubgraphIndex, "_install", recording)
    return installed


def _all_vertices(index):
    return [index.path(p).vertices for p in range(index.num_bounding_paths())]


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_rebuilt_bounding_path_vertices_equal_the_build_time_tuples(
    seed, directed, monkeypatch
):
    installed = _recording_install(monkeypatch)
    graph = random_graph(40, 80, seed=seed, directed=directed)
    dtlp = DTLP(graph, DTLPConfig(z=10, xi=3)).build()
    one_edge_descending = 0
    for index in dtlp.subgraph_indexes().values():
        expected = installed[id(index)]
        assert _all_vertices(index) == expected
        for u, v in index.boundary_pairs():
            for path in index.bounding_paths(u, v):
                assert (path.source, path.target) == (path.vertices[0], path.vertices[-1])
                assert path.vertices == expected[path.path_id]
        one_edge_descending += sum(len(v) == 2 and v[0] > v[1] for v in expected)
        # The store's records carry the same tuples, and restore from them.
        state = index.export_state()
        assert [tuple(row[3]) for row in state["paths"]] == expected
        restored = SubgraphIndex.from_state(index.subgraph, state)
        assert _all_vertices(restored) == expected
    if directed:
        assert one_edge_descending > 0


def test_one_edge_paths_walk_either_way_along_an_undirected_edge(monkeypatch):
    graph = random_graph(30, 60, seed=3)
    dtlp = DTLP(graph, DTLPConfig(z=10, xi=3)).build()
    reversed_any = False
    for index in dtlp.subgraph_indexes().values():
        state = index.export_state()
        for row in state["paths"]:
            if len(row[3]) == 2:  # stored against the edge key's order
                row[1], row[2] = row[2], row[1]
                row[3] = row[3][::-1]
                reversed_any = True
        restored = SubgraphIndex.from_state(index.subgraph, state)
        assert _all_vertices(restored) == [tuple(row[3]) for row in state["paths"]]
    assert reversed_any


#: sha256 over every file ``PartitionStore.save`` writes (relative name,
#: then bytes) for ``clustered_road_network(3, 6, 6, seed=7)`` with
#: ``DTLPConfig(z=36, xi=3, partitioner="mincut")`` and build times zeroed.
#: The ``part<k>/`` files are those written while the index still stored
#: each bounding path's vertex tuple; the manifest's config has not carried
#: the retired LSH / MFP-tree fields since they were removed.
PINNED_STORE_DIGESTS = {
    False: "9b138d8e3cf0ecb6293b4eaed4f3a45e72966b0943aef31a68b4c8129417bf2f",
    True: "80e72bc6c6a77a5548cc676e2efe08e226fc509ec1f42bac8295d7686733dcd1",
}


@pytest.mark.parametrize("directed", [False, True])
def test_partition_store_writes_the_pinned_bytes(directed, tmp_path):
    graph = clustered_road_network(
        clusters_per_side=3, cluster_rows=6, cluster_cols=6, seed=7, directed=directed
    )
    dtlp = DTLP(graph, DTLPConfig(z=36, xi=3, partitioner="mincut")).build()
    for index in dtlp.subgraph_indexes().values():
        index._build_seconds = 0.0  # the one wall-clock field in the records
    PartitionStore.save(dtlp, tmp_path)
    digest = hashlib.sha256()
    for file in sorted(FilePath(tmp_path).rglob("*")):
        if file.is_file():
            digest.update(str(file.relative_to(tmp_path)).encode())
            digest.update(file.read_bytes())
    assert digest.hexdigest() == PINNED_STORE_DIGESTS[directed]


# ----------------------------------------------------------------------
# the slotted Path
# ----------------------------------------------------------------------
class TestSlottedPath:
    PATHS = [Path(3.0, (0, 2, 1)), Path(3.0, (0, 1, 2)), Path(1.5, (4, 5)), Path(3.0, [0, 2, 1])]

    def test_no_instance_dict(self):
        path = self.PATHS[0]
        assert not hasattr(path, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            path.distance = 1.0

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickling_round_trips(self, protocol):
        for path in self.PATHS:
            clone = pickle.loads(pickle.dumps(path, protocol=protocol))
            assert type(clone) is Path
            assert clone == path and hash(clone) == hash(path)
            assert clone.vertices == path.vertices and clone.distance == path.distance
        assert copy.deepcopy(self.PATHS) == self.PATHS

    def test_orders_by_distance_then_vertices_and_hashes_by_value(self):
        assert sorted(self.PATHS) == [
            Path(1.5, (4, 5)), Path(3.0, (0, 1, 2)), Path(3.0, (0, 2, 1)), Path(3.0, (0, 2, 1))
        ]
        assert self.PATHS[3].vertices == (0, 2, 1)  # lists become tuples
        assert len(set(self.PATHS)) == 3


# ----------------------------------------------------------------------
# the partial memo forgets dead epochs
# ----------------------------------------------------------------------
def _answers(engine, queries):
    return [[(p.distance, p.vertices) for p in engine.query(q.source, q.target, q.k).paths]
            for q in queries]


def test_memo_keeps_no_entry_of_a_dead_epoch():
    graph = clustered_road_network(clusters_per_side=3, cluster_rows=6, cluster_cols=6, seed=7)
    dtlp = DTLP(graph, DTLPConfig(z=36, xi=3, partitioner="mincut")).build().attach()
    engine = KSPDG(dtlp)
    generator = QueryGenerator(graph, seed=11, min_hops=4)
    rng = random.Random(11)
    memo = dtlp._partial_memo
    for round_number in range(3):
        queries = [generator.generate_one(round_number * 8 + i, 3) for i in range(8)]
        _answers(engine, queries)
        filled = {key[0] for key in memo}
        epochs = {sid: dtlp.subgraph_weights_epoch(sid) for sid in filled}
        # A round inside one subgraph that holds entries: one rise, one drop.
        edges = sorted(dtlp.partition.subgraph(rng.choice(sorted(filled))).edge_set)
        graph.apply_updates([
            WeightUpdate(u, v, graph.weight(u, v) * factor)
            for (u, v), factor in zip(rng.sample(edges, 2), (1.5, 0.8))
        ])
        moved = {sid for sid in filled if dtlp.subgraph_weights_epoch(sid) != epochs[sid]}
        assert moved and moved != filled  # the round touched some subgraphs, not all
        assert all(epoch == dtlp.subgraph_weights_epoch(key[0]) for key, (epoch, _) in memo.items())
        assert {key[0] for key in memo} == filled - moved
        # A fresh index over the same weights answers as the maintained one.
        fresh = KSPDG(DTLP(pickle.loads(pickle.dumps(graph)),
                           DTLPConfig(z=36, xi=3, partitioner="mincut")).build())
        later = [generator.generate_one(100 + round_number * 8 + i, 3) for i in range(8)]
        assert _answers(engine, later) == _answers(fresh, later)
        assert _answers(engine, queries) == _answers(fresh, queries)


# ----------------------------------------------------------------------
# memory gate
# ----------------------------------------------------------------------
def _traced(action):
    """Bytes still allocated after ``action()`` (and a collection)."""
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        kept = action()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - baseline, kept
    finally:
        tracemalloc.stop()


def _gate_network():
    graph = clustered_road_network(clusters_per_side=3, cluster_rows=8, cluster_cols=8, seed=7)
    return graph, DTLP(graph, DTLPConfig(z=64, xi=3, partitioner="mincut")).build()


class TestMemoryGate:
    """Bytes a replica retains, bounded at 1.3x what CPython 3.11 measures.

    Measured (bound):

    * per cached miss through a ``KSPService``: 3,476 B (4,519).  With the
      result cache's edge -> keys index it was 7,463 B;
    * one pickled ``(graph, DTLP)`` copy: 1,345,609 B (1,821,013), was
      1,497,679 B, then 1,400,779 B before the copy's partition and index
      tables moved into the layout.  A lone copy builds its own layout;
    * a second copy while the first lives, so the two share one layout:
      542,468 B (705,208);
    * per bounding path of one ``SubgraphIndex`` over a 10 x 10 grid with
      its 41 degree < 4 vertices as boundary: 309 B (402).  With the stored
      vertex tuples it was 425 B.
    """

    def test_bytes_retained_per_cached_miss(self):
        graph, dtlp = _gate_network()
        service = KSPService(graph, KSPDGEngine.local(dtlp, executor="serial"),
                             owns_engine=True, dtlp=dtlp)
        queries = QueryGenerator(graph, seed=3, min_hops=4).generate(50, k=3)
        def serve(batch):
            served = []
            for query in batch:  # one query per batch, as a lone client sends them
                service.submit(query)
                served.extend(service.drain())
            return served

        try:
            serve(queries[:10])  # warm: snapshots, skeleton image
            retained, _ = _traced(lambda: serve(queries[10:]))
        finally:
            service.close()
        assert retained / 40 <= 4_519

    def test_bytes_of_one_pickled_replica_copy(self):
        blob = pickle.dumps(_gate_network())
        retained, _ = _traced(lambda: pickle.loads(blob))
        assert retained <= 1_821_013

    def test_bytes_of_a_second_in_process_copy(self):
        blob = pickle.dumps(_gate_network())
        _, first = pickle.loads(blob)
        retained, (_, second) = _traced(lambda: pickle.loads(blob))
        assert second.layout is first.layout
        assert retained <= 705_208

    def test_bytes_per_bounding_path(self):
        graph = road_network(10, 10, seed=7)
        subgraph = Subgraph(0, graph, graph.vertices(), [(u, v) for u, v, _ in graph.edges()])
        subgraph.set_boundary_vertices([v for v in graph.vertices() if len(list(graph.neighbors(v))) < 4])
        retained, index = _traced(lambda: SubgraphIndex(subgraph, xi=3).build())
        assert retained / index.num_bounding_paths() <= 402
