"""Unit tests for the goal-directed kernel: bounded searches, one-to-many
runs, weight epochs and the partial-KSP memo.
"""

from __future__ import annotations

import random

import pytest
from conftest import LooseLowerBounds

from repro.algorithms.dijkstra import dijkstra
from repro.core import DTLP, DTLPConfig
from repro.graph import DynamicGraph, road_network
from repro.kernel import CSRSnapshot
from repro.kernel.primitives import bounded_dijkstra_arrays, dijkstra_arrays, dijkstra_arrays_multi

INF = float("inf")


class TestBoundedDijkstra:
    def test_matches_unpruned_paths_exactly_with_ties(self):
        # Integer base weights make distance ties common: the bound-pruned
        # search must still return the identical predecessor chain.
        rng = random.Random(21)
        graph = road_network(10, 10, seed=4)
        snapshot = CSRSnapshot(graph)
        n = snapshot.num_vertices
        provider = LooseLowerBounds(snapshot, seed=21)
        for _ in range(50):
            s, t = rng.randrange(n), rng.randrange(n)
            if s == t:
                continue
            dist, pred, _ = dijkstra_arrays(
                snapshot.rows, n, s, target=t, track_touched=False
            )
            bounds = provider.bounds_to(snapshot.ids[t])
            bdist, bpred, found, _ = bounded_dijkstra_arrays(
                snapshot.rows, n, s, t, bounds=bounds, cutoff=dist[t]
            )
            assert found and bdist[t] == dist[t]
            chain = [t]
            while chain[-1] != s:
                chain.append(pred[chain[-1]])
            bchain = [t]
            while bchain[-1] != s:
                bchain.append(bpred[bchain[-1]])
            assert bchain == chain

    def test_cutoff_is_inclusive(self):
        graph = DynamicGraph()
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(1, 2, 3.0)
        snapshot = CSRSnapshot(graph)
        _, _, found, _ = bounded_dijkstra_arrays(
            snapshot.rows, 3, snapshot.index_of[0], snapshot.index_of[2], cutoff=5.0
        )
        assert found
        _, _, found, _ = bounded_dijkstra_arrays(
            snapshot.rows, 3, snapshot.index_of[0], snapshot.index_of[2], cutoff=4.999
        )
        assert not found


class TestOneToMany:
    def test_settled_targets_match_full_dijkstra(self):
        rng = random.Random(41)
        graph = road_network(9, 9, seed=14)
        snapshot = CSRSnapshot(graph)
        n = snapshot.num_vertices
        for _ in range(20):
            source = rng.randrange(n)
            targets = {rng.randrange(n) for _ in range(6)}
            full, _, _ = dijkstra_arrays(snapshot.rows, n, source, track_touched=False)
            dist, _, settled, touched = dijkstra_arrays_multi(
                snapshot.rows, n, source, targets
            )
            assert set(settled) <= set(touched)
            for target in targets:
                assert dist[target] == full[target]
                assert (target in settled) == (full[target] != INF)

    def test_generic_dijkstra_targets_early_exit(self):
        # Path graph: searching towards nearby targets must never label the
        # far end of the path.
        graph = DynamicGraph()
        for i in range(29):
            graph.add_edge(i, i + 1, 1.0)
        distances, _ = dijkstra(graph, 0, targets={3, 5})
        assert distances[3] == 3.0 and distances[5] == 5.0
        assert max(distances) <= 6
        snapshot = CSRSnapshot(graph)
        distances, _ = dijkstra(snapshot, 0, targets={3, 5})
        assert distances[3] == 3.0 and distances[5] == 5.0
        assert max(distances) <= 6

    def test_target_and_targets_are_mutually_exclusive(self):
        graph = DynamicGraph()
        graph.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            dijkstra(graph, 0, target=1, targets={1})

    def test_snapshot_honours_every_parameter_combination(self):
        # Combinations outside the kernel fast paths (targets with bans,
        # cutoff without a resolvable target) must fall back to the generic
        # loop — never silently drop a parameter — and stay bit-identical
        # to the dict path.
        graph = road_network(7, 7, seed=18)
        snapshot = CSRSnapshot(graph)
        combos = [
            dict(targets={5, 11, 17}, banned_vertices={3}),
            dict(targets={5, 11}, allowed_vertices=set(range(30))),
            dict(targets={5, 11}, cutoff=9.0),
            dict(target=10_000, cutoff=6.0),  # absent target, cutoff kept
            dict(cutoff=7.5),
        ]
        for kwargs in combos:
            assert dijkstra(snapshot, 0, **kwargs) == dijkstra(graph, 0, **kwargs), kwargs


class TestEarlyExitWithBans:
    """Regression coverage for the spur-search configuration: a target plus
    ban sets must stop at target settlement, never flooding the graph."""

    def _path_graph(self):
        graph = DynamicGraph()
        for i in range(29):
            graph.add_edge(i, i + 1, 1.0)
        return graph

    def test_kernel_stops_at_target_with_ban_sets(self):
        graph = self._path_graph()
        snapshot = CSRSnapshot(graph)
        index_of = snapshot.index_of
        dist, pred, touched = dijkstra_arrays(
            snapshot.rows,
            snapshot.num_vertices,
            index_of[0],
            target=index_of[10],
            banned_vertices={index_of[20]},
        )
        assert dist[index_of[10]] == 10.0
        # Early exit: nothing beyond the target's frontier was labelled —
        # the ban at vertex 20 must never even be reached.
        labelled_ids = {snapshot.ids[i] for i in touched}
        assert max(labelled_ids) <= 11
        # Same with banned edge pairs.
        dist, _, touched = dijkstra_arrays(
            snapshot.rows,
            snapshot.num_vertices,
            index_of[0],
            target=index_of[10],
            banned_pairs={(index_of[20], index_of[21])},
        )
        assert dist[index_of[10]] == 10.0
        assert max(snapshot.ids[i] for i in touched) <= 11

    def test_kernel_honors_track_touched_false_with_bans(self):
        graph = self._path_graph()
        snapshot = CSRSnapshot(graph)
        index_of = snapshot.index_of
        dist, pred, touched = dijkstra_arrays(
            snapshot.rows,
            snapshot.num_vertices,
            index_of[0],
            target=index_of[10],
            banned_vertices={index_of[20]},
            track_touched=False,
        )
        assert touched is None
        assert dist[index_of[10]] == 10.0

    def test_generic_dijkstra_stops_at_target_with_bans(self):
        graph = self._path_graph()
        distances, _ = dijkstra(graph, 0, target=10, banned_vertices={20})
        assert distances[10] == 10.0
        assert max(distances) <= 11
        distances, _ = dijkstra(
            graph, 0, target=10, banned_edges={(20, 21), (21, 20)}
        )
        assert distances[10] == 10.0
        assert max(distances) <= 11

    def test_bounded_kernel_stops_at_target_with_bans(self):
        graph = self._path_graph()
        snapshot = CSRSnapshot(graph)
        index_of = snapshot.index_of
        dist, _, found, touched = bounded_dijkstra_arrays(
            snapshot.rows,
            snapshot.num_vertices,
            index_of[0],
            index_of[10],
            bounds=LooseLowerBounds(snapshot, seed=10).bounds_to(10),
            cutoff=15.0,
            banned_vertices={index_of[20]},
            track_touched=True,
        )
        assert found and dist[index_of[10]] == 10.0
        assert sum(1 for value in dist if value != INF) <= 12
        # The tracked labelled set matches the dense labels exactly.
        assert touched is not None
        assert sorted(touched) == [
            i for i, value in enumerate(dist) if value != INF
        ]


class TestWeightEpochsAndMemo:
    def test_epoch_bumps_only_for_touched_subgraphs(self):
        from repro.graph.paths import Path

        graph = road_network(8, 8, seed=15)
        dtlp = DTLP(graph, DTLPConfig(z=16, xi=2)).build()
        subgraph_ids = list(dtlp.subgraph_indexes())
        for sid in subgraph_ids:
            dtlp.partial_memo_put(sid, (0, 1), 1, [Path(1.0, (0, 1))])
        # Update one edge owned by one subgraph.
        target_sid = subgraph_ids[0]
        subgraph = dtlp.partition.subgraph(target_sid)
        u, v = next(iter(subgraph.edge_set))
        graph.update_weight(u, v, graph.weight(u, v) + 1.0)
        touched = {
            sid
            for sid in subgraph_ids
            if dtlp.partial_memo_get(sid, (0, 1), 1) is None
        }
        assert target_sid in touched
        # Only subgraphs containing the changed pair are invalidated.
        containing = set(dtlp.partition.subgraphs_containing_pair(u, v))
        assert touched <= containing

    def test_partial_memo_roundtrip_and_invalidation(self):
        from repro.graph.paths import Path

        graph = road_network(6, 6, seed=16)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        sid = next(iter(dtlp.subgraph_indexes()))
        pair = (0, 1)
        paths = [Path(3.0, (0, 7, 1))]
        assert dtlp.partial_memo_get(sid, pair, 2) is None
        dtlp.partial_memo_put(sid, pair, 2, paths)
        assert dtlp.partial_memo_get(sid, pair, 2) == paths
        assert dtlp.partial_memo_get(sid, pair, 3) is None  # k is part of the key
        # A weight change inside the subgraph invalidates the entry.
        subgraph = dtlp.partition.subgraph(sid)
        u, v = next(iter(subgraph.edge_set))
        graph.update_weight(u, v, graph.weight(u, v) + 2.0)
        assert dtlp.partial_memo_get(sid, pair, 2) is None

    def test_memo_survives_pickling_empty(self):
        import pickle

        graph = road_network(5, 5, seed=17)
        dtlp = DTLP(graph, DTLPConfig(z=10, xi=2)).build()
        from repro.graph.paths import Path

        sid = next(iter(dtlp.subgraph_indexes()))
        dtlp.partial_memo_put(sid, (0, 1), 2, [Path(1.0, (0, 1))])
        clone = pickle.loads(pickle.dumps(dtlp))
        # Caches are dropped across the pipe (cheap to rebuild); the clone
        # must still answer memo queries (cold) and keep new entries.
        assert clone.partial_memo_get(sid, (0, 1), 2) is None
        clone.partial_memo_put(sid, (0, 1), 2, [Path(1.0, (0, 1))])
        assert clone.partial_memo_get(sid, (0, 1), 2) == [Path(1.0, (0, 1))]
