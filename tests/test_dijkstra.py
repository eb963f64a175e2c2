"""Tests for repro.algorithms.dijkstra (SSSP primitives and vfrag label search)."""

from __future__ import annotations

import heapq
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import shortest_path
from repro.algorithms.dijkstra import dijkstra, shortest_distance
from repro.algorithms.dijkstra import vfrag_label_search, vfrag_rows
from repro.graph import DynamicGraph, random_graph, road_network
from repro.graph.errors import PathNotFoundError
from repro.graph.generators import grid_graph
from repro.graph.subgraph import Subgraph


def brute_force_shortest(graph, source, target):
    """Exhaustive shortest path by enumerating all simple paths (tiny graphs only)."""
    best = None
    vertices = list(graph.vertices())

    def extend(path, distance):
        nonlocal best
        last = path[-1]
        if last == target:
            if best is None or distance < best:
                best = distance
            return
        for neighbor, weight in graph.neighbors(last).items():
            if neighbor in path:
                continue
            extend(path + [neighbor], distance + weight)

    extend([source], 0.0)
    return best


class TestDijkstra:
    def test_simple_chain(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 2.0)
        graph.add_edge(2, 3, 3.0)
        distances, predecessors = dijkstra(graph, 1)
        assert distances[3] == pytest.approx(5.0)
        assert predecessors[3] == 2

    def test_early_exit_at_target(self):
        graph = grid_graph(5, 5)
        distances, _ = dijkstra(graph, 0, target=1)
        assert 1 in distances

    def test_matches_brute_force_on_small_graphs(self):
        graph = road_network(4, 4, seed=8)
        for source, target in [(0, 15), (3, 12), (5, 10)]:
            expected = brute_force_shortest(graph, source, target)
            assert shortest_distance(graph, source, target) == pytest.approx(expected)

    def test_banned_vertices(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(2, 3, 1.0)
        graph.add_edge(1, 3, 10.0)
        distances, _ = dijkstra(graph, 1, banned_vertices={2})
        assert distances[3] == pytest.approx(10.0)

    def test_banned_edges(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(2, 3, 1.0)
        graph.add_edge(1, 3, 10.0)
        distances, _ = dijkstra(graph, 1, banned_edges={(1, 2), (2, 1)})
        assert distances[3] == pytest.approx(10.0)

    def test_allowed_vertices_restricts_search(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(2, 3, 1.0)
        graph.add_edge(1, 4, 1.0)
        graph.add_edge(4, 3, 1.0)
        distances, _ = dijkstra(graph, 1, allowed_vertices={1, 2, 3})
        assert 4 not in distances
        assert distances[3] == pytest.approx(2.0)

    def test_banned_source_returns_empty(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        distances, predecessors = dijkstra(graph, 1, banned_vertices={1})
        assert distances == {}
        assert predecessors == {}


class TestShortestPath:
    def test_path_reconstruction(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(2, 3, 1.0)
        path = shortest_path(graph, 1, 3)
        assert path.vertices == (1, 2, 3)
        assert path.distance == pytest.approx(2.0)

    def test_source_equals_target(self):
        graph = DynamicGraph()
        graph.add_vertex(7)
        path = shortest_path(graph, 7, 7)
        assert path.vertices == (7,)
        assert path.distance == 0.0

    def test_unreachable_raises(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_vertex(9)
        with pytest.raises(PathNotFoundError):
            shortest_path(graph, 1, 9)

    def test_works_on_subgraph_objects(self):
        graph = road_network(5, 5, seed=1)
        edges = [(u, v) for u, v, _ in graph.edges()]
        subgraph = Subgraph(0, graph, graph.vertices(), edges)
        direct = shortest_path(graph, 0, 24)
        via_subgraph = shortest_path(subgraph, 0, 24)
        assert via_subgraph.distance == pytest.approx(direct.distance)


def label_search(subgraph, source, xi, max_expansions=500_000, targets=None):
    """``vfrag_label_search`` from one source, with vertex ids in and out."""
    ids, rows = vfrag_rows(subgraph, (source,))
    index_of = {vertex: index for index, vertex in enumerate(ids)}
    wanted = None if targets is None else [index_of[v] for v in targets if v in index_of]
    results, _ = vfrag_label_search(
        ids, rows, 0, xi, wanted=wanted, max_expansions=max_expansions
    )
    return results


class TestVfragLabelSearch:
    def make_subgraph(self, graph):
        edges = [(u, v) for u, v, _ in graph.edges()]
        return Subgraph(0, graph, graph.vertices(), edges)

    def test_minimum_count_is_vfrag_shortest(self, sg4_graph):
        subgraph = self.make_subgraph(sg4_graph)
        results = label_search(subgraph, 13, 2, targets=[14])[14]
        assert results, "expected at least one bounding path"
        counts = [count for count, _ in results]
        # The fewest-vfrag path between 13 and 14 is <13,16,14> with 8 vfrags
        assert counts[0] == 8
        assert results[0][1] == (13, 16, 14)

    def test_second_distinct_count_matches_paper_example3(self, sg4_graph):
        subgraph = self.make_subgraph(sg4_graph)
        results = label_search(subgraph, 13, 2, targets=[14])[14]
        assert len(results) == 2
        # Example 3: the second bounding path is <13,18,17,16,14> with 10 vfrags
        assert results[1][0] == 10
        assert results[1][1] == (13, 18, 17, 16, 14)

    def test_xi_one_keeps_single_count(self, sg4_graph):
        subgraph = self.make_subgraph(sg4_graph)
        assert len(label_search(subgraph, 13, 1, targets=[14])[14]) == 1

    def test_source_equals_target(self, sg4_graph):
        # The source is never recorded, even when it is a wanted vertex.
        subgraph = self.make_subgraph(sg4_graph)
        assert 13 not in label_search(subgraph, 13, 3)
        assert label_search(subgraph, 13, 3, targets=[13]) == {}

    def test_counts_strictly_increasing_and_simple(self):
        graph = road_network(5, 5, seed=6)
        subgraph = self.make_subgraph(graph)
        results = label_search(subgraph, 0, 4, targets=[24])[24]
        counts = [count for count, _ in results]
        assert counts == sorted(set(counts))
        for _, vertices in results:
            assert len(set(vertices)) == len(vertices)

    def test_from_source_covers_all_reachable_targets(self):
        graph = road_network(4, 4, seed=6)
        subgraph = self.make_subgraph(graph)
        per_target = label_search(subgraph, 0, 2)
        assert set(per_target) == set(graph.vertices()) - {0}

    def test_from_source_counts_match_pairwise(self):
        graph = road_network(4, 4, seed=6)
        subgraph = self.make_subgraph(graph)
        per_target = label_search(subgraph, 0, 3)
        for target in [5, 10, 15]:
            pairwise = label_search(subgraph, 0, 3, targets=[target])[target]
            assert per_target[target][0][0] == pairwise[0][0]

    def test_invalid_xi_rejected(self, sg4_graph):
        ids, rows = vfrag_rows(self.make_subgraph(sg4_graph), (13,))
        with pytest.raises(ValueError):
            vfrag_label_search(ids, rows, 0, max_distinct_counts=0)

    def test_path_counts_equal_sum_of_edge_vfrags(self, sg4_graph):
        subgraph = self.make_subgraph(sg4_graph)
        results = label_search(subgraph, 13, 3, targets=[19])[19]
        for count, vertices in results:
            expected = sum(
                subgraph.vfrag_count(vertices[index], vertices[index + 1])
                for index in range(len(vertices) - 1)
            )
            assert count == expected


def reference_label_search(subgraph, source, xi, max_expansions=500_000):
    """The id-space search ``vfrag_label_search`` replaced, kept as the oracle:
    labels carry their whole vertex tuple, every vertex is recorded and the
    search floods until the heap or the cap runs out."""
    labels_per_vertex, labels_per_count = xi + 2, 2
    accepted, results, recorded = {}, {}, {}
    counter = itertools.count()
    heap = [(0, next(counter), (source,))]
    expansions = 0
    while heap and expansions < max_expansions:
        vfrags, _, vertices = heapq.heappop(heap)
        expansions += 1
        vertex = vertices[-1]
        counts = accepted.setdefault(vertex, {})
        if counts.get(vfrags, 0) >= labels_per_count:
            continue
        if vfrags not in counts and len(counts) >= labels_per_vertex:
            continue
        counts[vfrags] = counts.get(vfrags, 0) + 1
        if vertex != source:
            seen = recorded.setdefault(vertex, set())
            if vfrags not in seen and len(seen) < xi:
                seen.add(vfrags)
                results.setdefault(vertex, []).append((vfrags, vertices))
        for neighbor, _ in subgraph.neighbors(vertex):
            if neighbor in vertices:
                continue
            next_count = vfrags + subgraph.vfrag_count(vertex, neighbor)
            known = accepted.get(neighbor)
            if known is not None:
                if known.get(next_count, 0) >= labels_per_count:
                    continue
                if next_count not in known and len(known) >= labels_per_vertex:
                    continue
            heapq.heappush(heap, (next_count, next(counter), vertices + (neighbor,)))
    return results


@st.composite
def sparse_subgraph_and_search(draw):
    """A subgraph over a random part of a small graph's edges (so some
    vertices are unreachable, or reachable one way only), a source, ``xi``
    and an expansion cap that sometimes fires after a handful of pops."""
    num_vertices = draw(st.integers(min_value=3, max_value=7))
    extra_edges = draw(st.integers(min_value=0, max_value=num_vertices))
    directed = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    graph = random_graph(
        num_vertices, num_vertices - 1 + extra_edges, seed=seed, directed=directed
    )
    edges = sorted((u, v) for u, v, _ in graph.edges())
    kept = random.Random(seed).sample(edges, max(1, (len(edges) * 3) // 4))
    subgraph = Subgraph(0, graph, graph.vertices(), kept)
    source = draw(st.sampled_from(sorted(graph.vertices())))
    xi = draw(st.integers(min_value=1, max_value=3))
    max_expansions = draw(st.sampled_from([3, 8, 500_000]))
    return subgraph, source, xi, max_expansions


class TestVfragSearchTargets:
    @given(case=sparse_subgraph_and_search())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        derandomize=True,
        database=None,
    )
    def test_targets_restrict_the_full_result_and_paths_are_well_formed(self, case):
        subgraph, source, xi, max_expansions = case
        full = label_search(subgraph, source, xi, max_expansions)
        reference = reference_label_search(subgraph, source, xi, max_expansions)
        assert list(full.items()) == list(reference.items())

        for target, paths in full.items():
            assert 1 <= len(paths) <= xi
            counts = [count for count, _ in paths]
            assert counts == sorted(set(counts))
            for count, vertices in paths:
                assert vertices[0] == source and vertices[-1] == target
                assert len(set(vertices)) == len(vertices)
                assert count == sum(
                    subgraph.vfrag_count(u, v) for u, v in zip(vertices, vertices[1:])
                )

        # Every subset of the vertices plus one id the subgraph does not
        # have: unreachable and unknown targets must not end the search
        # early for the reachable ones.
        candidates = sorted(subgraph.vertices) + [max(subgraph.vertices) + 1]
        for size in range(len(candidates) + 1):
            for targets in itertools.combinations(candidates, size):
                restricted = label_search(
                    subgraph, source, xi, max_expansions, targets=targets
                )
                expected = [item for item in full.items() if item[0] in targets]
                assert list(restricted.items()) == expected
