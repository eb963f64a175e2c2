"""A maintenance round in index space: its work, its arithmetic, its catch-up.

``DTLP.handle_updates`` is one walk of the round's changed edges followed by
``SubgraphIndex.reprice`` per owner and one skeleton write per owned pair.
These tests pin what that walk may touch, as counts; that prices are summed
left to right like ``DynamicGraph.path_distance`` (``sum()`` is compensated
on Python >= 3.12 and would not be); and that an index attached after its
graph moved catches up before it serves, and so does one that is never
attached, or detached, as soon as it is queried.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import yen_k_shortest_paths
from repro.algorithms.dijkstra import dijkstra
from repro.core import DTLP, DTLPConfig, KSPDG
from repro.core.subgraph_index import SubgraphIndex
from repro.distributed import KSPDGEngine
from repro.graph import DynamicGraph, WeightUpdate, road_network
from repro.graph.subgraph import Subgraph
from repro.workloads import KSPQuery

from conftest import reprice_updates


@pytest.fixture()
def maintained(monkeypatch):
    """An attached index whose reprice calls and skeleton writes are logged."""
    graph = road_network(8, 8, seed=1)
    dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build().attach()
    repriced = []
    written = []
    reprice = SubgraphIndex.reprice
    set_edge = dtlp.skeleton_graph.set_edge

    def logged_reprice(index, changes):
        numbers = reprice(index, changes)
        repriced.append((index, numbers))
        return numbers

    def logged_set_edge(u, v, weight):
        written.append((u, v))
        set_edge(u, v, weight)

    monkeypatch.setattr(SubgraphIndex, "reprice", logged_reprice)
    monkeypatch.setattr(dtlp.skeleton_graph, "set_edge", logged_set_edge)
    return graph, dtlp, repriced, written


def epochs_of(dtlp):
    return {s.subgraph_id: dtlp.subgraph_weights_epoch(s.subgraph_id) for s in dtlp.partition}


def test_one_edge_round_reprices_its_ep_list_and_its_owners_pairs(maintained) -> None:
    graph, dtlp, repriced, written = maintained
    edges = sorted((u, v) for u, v, _ in graph.edges())
    checked = 0
    for u, v in random.Random(4).sample(edges, 12):
        index = dtlp.subgraph_index(dtlp.partition.owner_of_edge(u, v))
        through = list(index.ep_index.paths_through_edge(u, v))
        del repriced[:], written[:]
        graph.update_weight(u, v, graph.weight(u, v) + 1.5)
        assert repriced == [(index, sorted(through))]
        assert sorted(written) == sorted(index.boundary_pairs())
        checked += bool(through)
    assert checked  # some sampled edge carries bounding paths


def test_round_that_changes_no_weight_bumps_no_epoch(maintained) -> None:
    graph, dtlp, repriced, written = maintained
    before = epochs_of(dtlp)
    version = graph.version
    graph.apply_updates([WeightUpdate(u, v, w) for u, v, w in graph.edges()])
    assert graph.version == version + 1
    assert epochs_of(dtlp) == before
    assert repriced == [] and written == []


@pytest.mark.parametrize("attached", [True, False])
def test_epoch_advances_iff_a_contained_edge_changed(attached) -> None:
    graph = road_network(8, 8, seed=2)
    dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
    if attached:
        dtlp.attach()
    partition = dtlp.partition
    rng = random.Random(7)
    edges = [(u, v) for u, v, _ in graph.edges()]
    for _ in range(4):
        before = epochs_of(dtlp)
        batch = rng.sample(edges, 10)
        moved = batch[: rng.randint(0, 10)]
        graph.apply_updates(
            [WeightUpdate(u, v, graph.weight(u, v) + 1.0) for u, v in moved]
            + [WeightUpdate(u, v, graph.weight(u, v)) for u, v in batch[len(moved):]]
        )
        # Only boundary vertices are shared, so a subgraph holds both
        # endpoints of a changed edge iff it owns it or both are boundary.
        expected = {s for u, v in moved for s in partition.subgraphs_containing_pair(u, v)}
        after = epochs_of(dtlp)
        assert {s for s in after if after[s] != before[s]} == expected
        assert all(after[s] == before[s] + 1 for s in expected)


def test_maintained_price_sums_left_to_right() -> None:
    graph = DynamicGraph()
    for u in range(3):
        graph.add_edge(u, u + 1, 1.0)
    subgraph = Subgraph(0, graph, graph.vertices(), [(0, 1), (1, 2), (2, 3)])
    subgraph.set_boundary_vertices({0, 3})
    index = SubgraphIndex(subgraph, xi=1).build()
    graph.update_weight(0, 1, 1e16)
    reprice_updates(index, [WeightUpdate(0, 1, 1e16)])
    assert graph.path_distance((0, 1, 2, 3)) == 1e16  # 1e16 + 1.0 rounds back
    assert index.bounding_paths(0, 3)[0].distance == 1e16


def within_subgraph_distance(partition, u, v):
    best = None
    for subgraph_id in partition.subgraphs_containing_pair(u, v):
        distances, _ = dijkstra(partition.subgraph(subgraph_id), u, target=v)
        if v in distances and (best is None or distances[v] < best):
            best = distances[v]
    return best


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_late_attach_catches_up_before_it_serves(seed) -> None:
    graph = road_network(8, 8, seed=seed)
    dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
    rng = random.Random(seed)
    edges = [(u, v) for u, v, _ in graph.edges()]
    graph.apply_updates([
        # Cut, so stale prices overestimate; deeper cuts drift the unit
        # weights far enough apart that KSP-DG's iteration count explodes.
        WeightUpdate(u, v, graph.weight(u, v) * rng.uniform(0.5, 0.8))
        for u, v in rng.sample(edges, len(edges) // 2)
    ])
    dtlp.attach()
    for u, v, weight in dtlp.skeleton_graph.edges():
        assert weight <= within_subgraph_distance(dtlp.partition, u, v)
    vertices = sorted(graph.vertices())
    engine = KSPDG(dtlp)
    for _ in range(8):
        source, target = rng.sample(vertices, 2)
        expected = [p.distance for p in yen_k_shortest_paths(graph, source, target, 2)]
        assert engine.query(source, target, 2).distances == pytest.approx(expected)


@pytest.mark.parametrize("entry", ["never-attached", "detached", "topology"])
def test_unattached_index_catches_up_before_it_answers(entry) -> None:
    """Regression: an index the graph moved past without it answered from
    the prices of the version it last saw — 10 of these 60 answers were
    wrong before ``KSPDG.query`` and the topology's batch entry caught the
    index up; attached, 0 of 60."""
    wrong = []
    for seed in range(6):
        graph = road_network(6, 6, seed=seed)
        dtlp = DTLP(graph, DTLPConfig(z=8, xi=2)).build()
        if entry == "detached":
            dtlp.attach()
            dtlp.detach()
        rng = random.Random(seed)
        edges = [(u, v) for u, v, _ in graph.edges()]
        graph.apply_updates([
            WeightUpdate(u, v, graph.weight(u, v) * rng.uniform(0.5, 0.9))
            for u, v in rng.sample(edges, len(edges) // 4)
        ])
        if entry == "topology":
            engine = KSPDGEngine.local(dtlp, num_workers=2)
            answer = lambda s, t: engine.answer(KSPQuery(0, s, t, 2)).paths
        else:
            answer = KSPDG(dtlp).query
            answer = lambda s, t, query=answer: query(s, t, 2).paths
        vertices = sorted(graph.vertices())
        for _ in range(10):
            source, target = rng.sample(vertices, 2)
            expected = [p.distance for p in yen_k_shortest_paths(graph, source, target, 2)]
            if [p.distance for p in answer(source, target)] != pytest.approx(expected):
                wrong.append((seed, source, target))
        assert not dtlp.attached
    assert wrong == []
