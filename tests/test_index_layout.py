"""The layout contract: in-process copies of a DTLP share what never moves.

A built DTLP keeps its partition, subgraph topologies, bounding-path tables
and fold slots in one :class:`~repro.core.layout.IndexLayout`.  A pickled
copy taken while the original lives in the same process gets the very same
layout object and private weight state; these tests pin both halves, that
a round on one copy reaches no other, and that nothing a round, a query or
the partition store does writes the layout.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
import random

import pytest

from repro.core import DTLP, DTLPConfig, KSPDG
from repro.core.layout import IndexLayout
from repro.graph import WeightUpdate, clustered_road_network
from repro.store import PartitionStore
from repro.workloads import QueryGenerator

#: Weights of 1..3 on every road make equal-length paths, so ties decide.
CONFIG = DTLPConfig(z=36, xi=3, partitioner="mincut")


def _tied_graph(directed=False):
    return clustered_road_network(
        clusters_per_side=3, cluster_rows=6, cluster_cols=6, seed=7,
        min_weight=1, max_weight=3, directed=directed,
    )


def _copy(pair):
    return pickle.loads(pickle.dumps(pair))


def _answers(dtlp, queries):
    engine = KSPDG(dtlp)
    return [[(p.distance, p.vertices) for p in engine.query(q.source, q.target, q.k).paths]
            for q in queries]


def _bounds(dtlp):
    """Every Theorem-1 bound and skeleton weight, by subgraph and pair."""
    pairs = {sid: dict(zip(index.boundary_pairs(), index.pair_bounds))
             for sid, index in dtlp.subgraph_indexes().items()}
    return pairs, sorted(dtlp.skeleton_graph.edges())


def _round(graph, seed):
    """One round of integer rises and drops over a sample of edges."""
    rng = random.Random(seed)
    edges = rng.sample(sorted((u, v) for u, v, _ in graph.edges()), 40)
    return [WeightUpdate(u, v, graph.weight(u, v) + rng.choice((-1.0, 1.0, 2.0))
                         if graph.weight(u, v) > 1 else graph.weight(u, v) + 1.0)
            for u, v in edges]


def _fingerprint(layout: IndexLayout) -> str:
    """sha256 of the layout's contents in a canonical form: independent of
    set and dict order and of pair numbering, which a store load redoes."""
    partition = layout.partition
    tables = layout.tables
    canonical = [
        [(sorted(t.vertices), sorted(t.edges), sorted(t.boundary),
          sorted((v, sorted(nbrs)) for v, nbrs in t.adjacency.items()))
         for t in partition.topologies],
        sorted(partition.vertex_subgraphs.items()),
        sorted(partition.edge_owner.items()),
        sorted(partition.boundary),
        [(sorted(t.edge_ids.items()), list(t.vfrags), t.depth, list(t.path_sources),
          list(t.path_edges), list(t.path_vfrags), list(t.ep_index.offsets),
          list(t.ep_index.paths),
          sorted((key, t.pair_paths[n], t.pair_depth[n]) for key, n in t.pair_numbers.items()),
          sorted(t.pair_keys) == sorted(t.pair_numbers))
         for t in tables],
        sorted(layout.edge_slots.items()),
        sorted((pair, sorted((sid, tables[sid].pair_keys[n]) for sid, n in owners))
               for pair, owners in layout.pair_owners.items()),
    ]
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def test_an_in_process_copy_shares_the_layout_and_nothing_a_copy_writes():
    graph = _tied_graph()
    dtlp = DTLP(graph, CONFIG).build()
    queries = QueryGenerator(graph, seed=3, min_hops=4).generate(6, k=3)
    _answers(dtlp, queries)  # the memo and snapshots hold entries
    copy_graph, copy = _copy((graph, dtlp))
    assert copy.layout is dtlp.layout
    assert copy.partition is not dtlp.partition
    for sid, index in dtlp.subgraph_indexes().items():
        twin = copy.subgraph_index(sid)
        assert twin.tables is index.tables
        assert twin.subgraph.topology is index.subgraph.topology
        assert twin.subgraph.parent is copy_graph
        assert twin._prices is not index._prices and twin._prices == index._prices
        assert twin.pair_bounds is not index.pair_bounds
        assert twin.pair_bounds == index.pair_bounds
    assert copy_graph is not graph and copy.graph is copy_graph
    assert copy.skeleton_graph is not dtlp.skeleton_graph
    assert copy._partial_memo is not dtlp._partial_memo and not copy._partial_memo
    assert copy._weight_epochs is not dtlp._weight_epochs
    assert copy._fold_weights is not dtlp._fold_weights
    assert _answers(copy, queries) == _answers(dtlp, queries)


def test_a_lone_copy_builds_its_layout_and_later_copies_share_it():
    blob = pickle.dumps((lambda g: (g, DTLP(g, CONFIG).build()))(_tied_graph()))
    gc.collect()  # the original and its layout are gone
    _, first = pickle.loads(blob)
    _, second = pickle.loads(blob)
    assert second.layout is first.layout
    assert pickle.loads(pickle.dumps(first.layout)) is first.layout


@pytest.mark.parametrize("directed", [False, True])
def test_a_round_on_one_copy_reaches_no_other(directed):
    graph = _tied_graph(directed)
    dtlp = DTLP(graph, CONFIG).build()
    reference = DTLP(_tied_graph(directed), CONFIG).build()  # never pickled
    (graph_a, a), (graph_b, b) = _copy((graph, dtlp)), _copy((graph, dtlp))
    assert a.layout is b.layout is dtlp.layout
    a.attach()
    queries = QueryGenerator(graph, seed=5, min_hops=4).generate(12, k=3)
    before = _answers(reference, queries)
    assert _answers(a, queries) == _answers(b, queries) == before
    for seed in range(3):
        graph_a.apply_updates(_round(graph_a, seed))
    assert graph_a.version > graph_b.version
    assert _answers(b, queries) == before
    assert _bounds(b) == _bounds(reference)
    fresh = DTLP(pickle.loads(pickle.dumps(graph_a)), CONFIG).build()
    assert _answers(a, queries) == _answers(fresh, queries)
    assert _bounds(a) == _bounds(fresh)
    assert _answers(a, queries) != before  # the round moved some answer


def test_rounds_queries_and_the_store_leave_the_layout_as_built(tmp_path):
    graph = _tied_graph()
    dtlp = DTLP(graph, CONFIG).build().attach()
    built = _fingerprint(dtlp.layout)
    queries = QueryGenerator(graph, seed=9, min_hops=4).generate(8, k=3)
    for seed in range(3):
        _answers(dtlp, queries)
        graph.apply_updates(_round(graph, seed))
    assert _fingerprint(dtlp.layout) == built
    PartitionStore.save(dtlp, tmp_path)
    assert _fingerprint(dtlp.layout) == built
    loaded = PartitionStore(tmp_path).load(pickle.loads(pickle.dumps(graph)))
    assert loaded.layout is not dtlp.layout
    assert loaded.layout.token != dtlp.layout.token
    assert _fingerprint(loaded.layout) == built
    assert _answers(loaded, queries) == _answers(dtlp, queries)
