"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.core import DTLP, DTLPConfig
from repro.graph import DynamicGraph, road_network
from repro.graph.graph import edge_key
from repro.kernel import CSRSnapshot


class LooseLowerBounds:
    """Admissible but inexact lower bounds: the adversary of ``bounds=`` consumers.

    Speaks the ``bounds_to(target)`` protocol of ``LazyYen(heuristic=...)``:
    the exact distance-to-target (``CSRSnapshot.bounds_to``) times a
    seeded per-vertex factor in [0, 1], so some vertices carry the exact
    distance, some carry no information at all and the rest anything in
    between.  Unreachable vertices keep ``inf``.
    """

    def __init__(self, snapshot: CSRSnapshot, seed: int) -> None:
        self._snapshot = snapshot
        self._seed = seed

    def bounds_to(self, target: int) -> List[float]:
        exact = self._snapshot.bounds_to(target)
        rng = random.Random(self._seed)
        return [
            distance
            if distance == float("inf")
            else distance * rng.choice((0.0, 1.0, rng.random()))
            for distance in exact
        ]


@pytest.fixture(scope="session")
def small_road_network() -> DynamicGraph:
    """An 8x8 synthetic road network shared by read-only tests."""
    return road_network(8, 8, seed=1)


@pytest.fixture(scope="session")
def medium_road_network() -> DynamicGraph:
    """A 12x12 synthetic road network shared by read-only tests."""
    return road_network(12, 12, seed=4)


@pytest.fixture(scope="session")
def small_dtlp(small_road_network: DynamicGraph) -> DTLP:
    """A built DTLP index over the small road network (read-only)."""
    return DTLP(small_road_network, DTLPConfig(z=20, xi=3)).build()


@pytest.fixture()
def diamond_graph() -> DynamicGraph:
    """A tiny graph with two equal-cost routes between 0 and 3.

    Layout::

        0 --1-- 1 --1-- 3
         \\             /
          2-- 2 --... (0-2 weight 2, 2-3 weight 2)
    """
    graph = DynamicGraph()
    graph.add_edge(0, 1, 1.0)
    graph.add_edge(1, 3, 1.0)
    graph.add_edge(0, 2, 2.0)
    graph.add_edge(2, 3, 2.0)
    return graph


@pytest.fixture()
def sg4_graph() -> DynamicGraph:
    """The subgraph SG4 of the paper's running example (Figure 5a).

    Vertices are v13, v14, v16, v17, v18, v19 with integer travel times::

        (13,16)=5  (16,14)=3  (13,18)=3  (18,17)=2  (17,16)=2  (17,19)=3
    """
    graph = DynamicGraph()
    graph.add_edge(13, 16, 5.0)
    graph.add_edge(16, 14, 3.0)
    graph.add_edge(13, 18, 3.0)
    graph.add_edge(18, 17, 2.0)
    graph.add_edge(17, 16, 2.0)
    graph.add_edge(17, 19, 3.0)
    return graph


def apply_sg4_change(graph: DynamicGraph) -> None:
    """Apply the SG4 -> SG'4 weight change of Figure 5b / Example 4.

    After the change the unit-weight profile of the subgraph is
    ``[(1/3, 3), (1/2, 4), (1, 8), (2, 3)]`` exactly as Example 4 states.
    """
    graph.update_weight(13, 18, 1.0)
    graph.update_weight(18, 17, 1.0)
    graph.update_weight(17, 16, 1.0)
    graph.update_weight(17, 19, 6.0)


def reprice_updates(index, updates) -> List[int]:
    """Re-price one undirected subgraph index for ``updates`` through its
    ``edge_ids`` — the owner's share of a ``DTLP.handle_updates`` round.
    Returns the numbers of the re-priced bounding paths."""
    edge_ids = index.edge_ids
    return index.reprice(
        [(edge_ids[edge_key(update.u, update.v)], update.new_weight) for update in updates]
    )


@pytest.fixture()
def theorem1_graphs():
    """The two graphs of Figure 6 used to illustrate Theorem 1.

    Returns ``(graph_b, graph_d)``: the three-chain graph after the weight
    change of Figure 6b, and the four-chain graph after the change of
    Figure 6d.  Vertex ids: source=0, target=100, chain vertices numbered
    per chain.
    """
    source, target = 0, 100

    def build(chains, weights_after):
        graph = DynamicGraph()
        for chain, initial in chains:
            previous = source
            for vertex in chain:
                graph.add_edge(previous, vertex, initial)
                previous = vertex
            graph.add_edge(previous, target, initial)
        for (chain, _), new_weight in zip(chains, weights_after):
            previous = source
            for vertex in chain:
                graph.update_weight(previous, vertex, new_weight)
                previous = vertex
            graph.update_weight(previous, target, new_weight)
        return graph

    # Figure 6a/6b: chains of 2, 3 and 4 edges, all initial weights 1,
    # changed to 8, 4 and 2 respectively.
    graph_b = build(
        chains=[((1,), 1.0), ((2, 3), 1.0), ((4, 5, 6), 1.0)],
        weights_after=[8.0, 4.0, 2.0],
    )
    # Figure 6c/6d: same plus a fourth chain of 5 edges staying at weight 1.
    graph_d = build(
        chains=[((1,), 1.0), ((2, 3), 1.0), ((4, 5, 6), 1.0), ((7, 8, 9, 10), 1.0)],
        weights_after=[8.0, 4.0, 2.0, 1.0],
    )
    return graph_b, graph_d
