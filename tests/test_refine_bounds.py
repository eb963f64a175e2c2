"""Subgraph Yen that bounds itself, and the join that remembers its prefixes.

Three contracts of the refine step (``ARCHITECTURE.md``, "Goal-directed
search & pruning"):

* a pruned Yen on a snapshot prunes against distance-to-target bounds it
  computes for itself — they must follow the snapshot through
  ``apply_changes`` (a maintained subgraph snapshot, a refreshed stand-alone
  one), survive ``inf`` entries (a target some vertices cannot reach) and an
  ``allowed_vertices`` restriction, and never change a path;
* the answers of three pinned query sequences on the benchmark's two
  networks are the ones the commit *before* self-bounding gave, to the byte
  (sha256 over ``repr`` of every distance and vertex tuple);
* ``KSPDGQuery._candidates`` with its per-query table of joined prefixes
  returns, for every reference path of those sequences, what the plain
  left-to-right fold of ``join_paths`` returns.
"""

from __future__ import annotations

import hashlib
import random
from typing import List

import pytest

from repro.algorithms.dijkstra import dijkstra
from repro.algorithms.yen import yen_k_shortest_paths
from repro.core import DTLP, DTLPConfig, KSPDG
from repro.core.ksp_dg import KSPDGQuery, join_paths
from repro.dynamics import TrafficModel
from repro.graph import clustered_road_network, road_network
from repro.graph.errors import PathNotFoundError
from repro.graph.graph import WeightUpdate
from repro.kernel import CSRSnapshot
from repro.workloads import QueryGenerator

INF = float("inf")


def _signature(paths):
    return [(path.distance, path.vertices) for path in paths]


def _yen(graph_like, source, target, k, prune, allowed=None):
    try:
        return _signature(
            yen_k_shortest_paths(
                graph_like, source, target, k, allowed_vertices=allowed, prune=prune
            )
        )
    except PathNotFoundError:
        return None


# ----------------------------------------------------------------------
# (b) self-bounded ≡ unpruned while the weights move
# ----------------------------------------------------------------------
class TestSelfBoundedAcrossRounds:
    def test_maintained_subgraph_snapshots_follow_the_rounds(self):
        graph = road_network(9, 9, seed=41)
        dtlp = DTLP(graph, DTLPConfig(z=20, xi=2)).build().attach()
        model = TrafficModel(graph, alpha=0.35, tau=0.10, direction="increase", seed=42)
        rng = random.Random(43)
        subgraphs = dtlp.partition.subgraphs
        held = {s.subgraph_id: dtlp.subgraph_snapshot(s.subgraph_id) for s in subgraphs}
        for _ in range(4):
            model.advance()
            for subgraph in subgraphs:
                snapshot = dtlp.subgraph_snapshot(subgraph.subgraph_id)
                assert snapshot is held[subgraph.subgraph_id]  # maintained, not rebuilt
                vertices = sorted(subgraph.vertices)
                source, target = rng.sample(vertices, 2)
                # The bounds are priced on the weights apply_changes left.
                assert snapshot.bounds_to(target) == CSRSnapshot(subgraph).bounds_to(target)
                allowed = set(rng.sample(vertices, max(2, 2 * len(vertices) // 3)))
                allowed.update((source, target))
                for k in (2, 4):
                    expected = _yen(subgraph, source, target, k, prune=False)
                    assert _yen(snapshot, source, target, k, prune=True) == expected
                    restricted = _yen(subgraph, source, target, k, False, allowed)
                    assert _yen(snapshot, source, target, k, True, allowed) == restricted

    def test_bounds_are_the_exact_distances_to_the_target(self):
        graph = road_network(6, 6, seed=44, directed=True)
        snapshot = CSRSnapshot(graph)
        for target in (0, 17, 35):
            bounds = snapshot.bounds_to(target)
            for vertex in graph.vertices():
                distances, _ = dijkstra(graph, vertex, target=target)
                assert bounds[snapshot.index_of[vertex]] == pytest.approx(
                    distances.get(target, INF), rel=1e-12
                )
        assert snapshot.bounds_to(10_000) is None

    def test_targets_some_vertices_cannot_reach(self):
        """Directed network plus one-way dead ends: their bound is ``inf``."""
        graph = road_network(6, 6, seed=45, directed=True)
        rng = random.Random(46)
        city = sorted(graph.vertices())
        dead_ends = list(range(100, 106))
        for dead_end in dead_ends:
            for entry in rng.sample(city, 3):
                graph.add_edge(entry, dead_end, float(rng.randint(1, 3)))
        graph.add_edge(100, 101, 1.0)  # the dead ends reach each other, never back
        snapshot = CSRSnapshot(graph)
        edges = [(u, v) for u, v, _ in graph.edges()]
        for round_number in range(3):
            for _ in range(12):
                source, target = rng.sample(city, 2)
                bounds = snapshot.bounds_to(target)
                assert all(bounds[snapshot.index_of[v]] == INF for v in dead_ends)
                for k in (3, 5):
                    expected = _yen(graph, source, target, k, prune=False)
                    assert _yen(snapshot, source, target, k, prune=True) == expected
            # into a dead end: every city vertex may reach it, it reaches nothing
            assert _yen(snapshot, city[0], 100, 3, True) == _yen(graph, city[0], 100, 3, False)
            assert _yen(snapshot, 100, city[0], 3, True) is None
            graph.apply_updates(
                [
                    WeightUpdate(u, v, round(graph.weight(u, v) * (1 + rng.uniform(0, 0.1)), 6))
                    for u, v in rng.sample(edges, len(edges) // 3)
                ]
            )
            assert snapshot.refresh() > 0

    def test_unpruned_yen_never_computes_a_bound(self, monkeypatch):
        calls: List[int] = []
        bounds_to = CSRSnapshot.bounds_to

        def counted(self, target):
            calls.append(target)
            return bounds_to(self, target)

        monkeypatch.setattr(CSRSnapshot, "bounds_to", counted)
        snapshot = CSRSnapshot(road_network(6, 6, seed=47))
        yen_k_shortest_paths(snapshot, 0, 35, 4, prune=False)
        assert calls == []
        yen_k_shortest_paths(snapshot, 0, 35, 4, prune=True)
        assert calls == [35]  # once per enumeration, when the bound turns finite
        yen_k_shortest_paths(snapshot, 0, 35, 1, prune=True)
        assert calls == [35]  # k=1 never deviates: nothing to prune


# ----------------------------------------------------------------------
# (c) + (d) pinned sequences on the benchmark's networks
# ----------------------------------------------------------------------
#: perf/stack.py's networks and index configuration.
NETWORKS = {
    "M": dict(clusters_per_side=6, cluster_rows=8, cluster_cols=8, seed=7),
    "L": dict(clusters_per_side=9, cluster_rows=8, cluster_cols=8, seed=7),
}
#: sha256 of the answers, captured on the commit before pruned Yen bounded
#: itself (PR 22, 550f7cd) with this file's own helpers.
PINNED_DIGESTS = {
    "M-cold": "b3d5074fec50ea16eee5bf567e29307c5e5b7bf2f853c3a8fb5995d2c2282d56",
    "L-cold": "7b697879ee6fd2e938fc5c106e1525aeeba98e23809159bd11b7766c8740cce7",
    "M-traffic": "f6b1ebd95ba39ea832b3d542bc09890117596f7f26e84c36cfd37a7c217c2b08",
}


def _pinned_engine(network: str):
    graph = clustered_road_network(**NETWORKS[network])
    dtlp = DTLP(graph, DTLPConfig(z=64, xi=3, partitioner="mincut")).build().attach()
    return graph, KSPDG(dtlp)


def _cold_answers(network: str):
    """100 distinct long-range queries, k=3, on a fresh index."""
    graph, engine = _pinned_engine(network)
    queries = QueryGenerator(graph, seed=23, min_hops=6).generate(100, k=3)
    return [engine.query(q.source, q.target, q.k) for q in queries]


def _traffic_answers():
    """5 rounds of the benchmark's traffic, 10 queries after each, k=3."""
    graph, engine = _pinned_engine("M")
    generator = QueryGenerator(graph, seed=23, min_hops=6)
    model = TrafficModel(graph, alpha=0.35, tau=0.10, direction="increase", seed=23)
    results = []
    for round_number in range(5):
        model.advance()
        for index in range(10):
            q = generator.generate_one(round_number * 10 + index, 3)
            results.append(engine.query(q.source, q.target, q.k))
    return results


SEQUENCES = {
    "M-cold": lambda: _cold_answers("M"),
    "L-cold": lambda: _cold_answers("L"),
    "M-traffic": _traffic_answers,
}


def _digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr(_signature(result.paths)).encode())
    return digest.hexdigest()


def _fold_join(pairs, partial_cache, k):
    """``_candidates`` as it was before the table: one fold, nothing kept."""
    merged = []
    for index, pair in enumerate(pairs):
        partials = partial_cache.get(pair)
        if not partials:
            return []
        merged = join_paths(merged, partials, k) if index else list(partials)
        if not merged:
            return []
    return merged


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_pinned_sequences_answer_as_before_and_join_as_the_fold(name, monkeypatch):
    candidates = KSPDGQuery._candidates
    compared = {"reference_paths": 0, "resumed": 0}

    def checked(self, pairs, partial_cache):
        resumed = any(pairs[:done] in self._joined_prefixes for done in range(1, len(pairs)))
        merged = candidates(self, pairs, partial_cache)
        assert _signature(merged) == _signature(_fold_join(pairs, partial_cache, self._k))
        compared["reference_paths"] += 1
        compared["resumed"] += resumed
        return merged

    monkeypatch.setattr(KSPDGQuery, "_candidates", checked)
    results = SEQUENCES[name]()
    assert _digest(results) == PINNED_DIGESTS[name]
    assert compared["reference_paths"] == sum(result.iterations for result in results)
    # The table is exercised, not merely harmless: later reference paths of a
    # query do resume from a prefix an earlier one joined.
    assert compared["resumed"] > len(results) // 4
