"""Tests for repro.service.cache: the LRU result cache, and the rule that
every applied weight round empties it, checked end to end against
whole-graph Yen through :class:`KSPService`."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms import yen_k_shortest_paths
from repro.graph import DynamicGraph, WeightUpdate
from repro.graph.errors import PathNotFoundError
from repro.graph.graph import DirectedDynamicGraph, edge_key
from repro.graph.paths import Path
from repro.service import KSPService, ResultCache
from repro.workloads import KSPQuery, YenEngine


def make_paths(*vertex_lists):
    return [Path(float(len(vertices) - 1), tuple(vertices)) for vertices in vertex_lists]


class TestLookups:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get((0, 3, 2)) is None
        cache.put((0, 3, 2), make_paths([0, 1, 3]))
        entry = cache.get((0, 3, 2))
        assert entry is not None
        assert entry.paths[0].vertices == (0, 1, 3)
        assert cache.hits.value == 1
        assert cache.misses.value == 1

    def test_put_replaces_existing_entry(self):
        cache = ResultCache(capacity=4)
        cache.put((0, 3, 2), make_paths([0, 1, 3]))
        cache.put((0, 3, 2), make_paths([0, 2, 3]))
        entry = cache.get((0, 3, 2))
        assert entry.paths[0].vertices == (0, 2, 3)
        assert len(cache) == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put((0, 1, 1), make_paths([0, 1]))
        cache.put((1, 2, 1), make_paths([1, 2]))
        cache.get((0, 1, 1))  # refresh LRU position
        cache.put((2, 3, 1), make_paths([2, 3]))
        assert (0, 1, 1) in cache
        assert (1, 2, 1) not in cache
        assert cache.evictions.value == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestScopedInvalidation:
    """A round's scope is the whole cache: any applied round empties it."""

    def test_a_round_off_every_cached_path_empties_the_cache(self):
        cache = ResultCache(capacity=8)
        cache.put((0, 3, 2), make_paths([0, 1, 3], [0, 2, 3]))
        cache.put((4, 6, 1), make_paths([4, 5, 6]))
        # (8, 9) is on no cached path, yet a drop there could open a
        # shorter path for either key.
        assert cache.invalidate([WeightUpdate(8, 9, 0.5)]) == 2
        assert len(cache) == 0
        assert cache.invalidations.value == 2
        assert cache.full_flushes.value == 1
        # A round that finds the cache empty is not counted as a flush.
        assert cache.invalidate([WeightUpdate(8, 9, 0.7)]) == 0
        assert cache.full_flushes.value == 1

    def test_update_on_any_of_the_k_paths_evicts(self):
        # The second-ranked path's edge changing must also evict the entry.
        cache = ResultCache(capacity=8)
        cache.put((0, 3, 2), make_paths([0, 1, 3], [0, 2, 3]))
        cache.invalidate([WeightUpdate(2, 3, 7.0)])
        assert (0, 3, 2) not in cache

    def test_invalidate_noop_on_empty_inputs(self):
        cache = ResultCache(capacity=8)
        assert cache.invalidate([]) == 0
        cache.put((0, 1, 1), make_paths([0, 1]))
        assert cache.invalidate([]) == 0
        assert (0, 1, 1) in cache


# ----------------------------------------------------------------------
# every served answer, hit or miss, is the current top k
# ----------------------------------------------------------------------
@st.composite
def _serving_sessions(draw):
    """A small graph with integer weights (so ties abound), a pool of keys
    to repeat, and a session of query waves and weight rounds."""
    directed = draw(st.booleans())
    num_vertices = draw(st.integers(6, 12))
    vertex = st.integers(0, num_vertices - 1)
    arcs = draw(
        st.lists(
            st.tuples(vertex, vertex).filter(lambda arc: arc[0] != arc[1]),
            min_size=num_vertices,
            max_size=3 * num_vertices,
            unique_by=(lambda arc: arc) if directed else (lambda arc: edge_key(*arc)),
        )
    )
    weight = st.integers(1, 6)
    edges = [(u, v, draw(weight)) for u, v in arcs]
    keys = draw(
        st.lists(
            st.tuples(vertex, vertex, st.integers(1, 3)).filter(lambda key: key[0] != key[1]),
            min_size=1,
            max_size=4,
        )
    )
    step = st.one_of(
        st.tuples(st.just("queries"), st.lists(st.sampled_from(keys), min_size=1, max_size=4)),
        # Rises and drops alike: a new weight is drawn without regard to
        # the current one.
        st.tuples(
            st.sampled_from(["maintenance", "graph"]),
            st.lists(st.tuples(st.integers(0, len(edges) - 1), weight), min_size=1, max_size=4),
        ),
    )
    return directed, num_vertices, edges, draw(st.lists(step, min_size=2, max_size=12))


def _top_k_distances(graph, source, target, k):
    try:
        return [path.distance for path in yen_k_shortest_paths(graph, source, target, k)]
    except PathNotFoundError:
        return []


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(session=_serving_sessions())
# Found against the old rule, which kept entries whose paths a round
# missed: 0-1-7 is cached at 2, then a drop of the 0-7 edge from 3 to 1
# makes the direct edge shorter, and the kept entry served 2 as the best.
@example(
    session=(
        False,
        10,
        [(0, v, 1) for v in (1, 2, 3, 4, 5, 6, 8, 9)]
        + [(1, v, 1) for v in (2, 3, 4, 5, 6, 7)]
        + [(2, 3, 1), (0, 7, 3)],
        [("queries", [(0, 7, 1)]), ("maintenance", [(15, 1)]), ("queries", [(0, 7, 1)])],
    )
)
def test_every_served_answer_is_the_current_top_k(session):
    directed, num_vertices, edges, steps = session
    graph = DirectedDynamicGraph() if directed else DynamicGraph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex)
    for u, v, weight in edges:
        graph.add_edge(u, v, float(weight))
    service = KSPService(graph, YenEngine(graph, executor="serial"), owns_engine=True)
    query_id = 0
    try:
        for kind, payload in steps:
            if kind == "queries":
                for source, target, k in payload:
                    service.submit(KSPQuery(query_id=query_id, source=source, target=target, k=k))
                    query_id += 1
                for answer in service.drain():
                    query = answer.query
                    assert [path.distance for path in answer.paths] == _top_k_distances(
                        graph, query.source, query.target, query.k
                    ), f"from_cache={answer.from_cache}"
                    for path in answer.paths:
                        assert graph.path_distance(path.vertices) == path.distance
                continue
            updates = [
                WeightUpdate(edges[index][0], edges[index][1], float(new_weight))
                for index, new_weight in payload
            ]
            if kind == "maintenance":
                service.maintenance_step(updates)
            else:
                graph.apply_updates(updates)
    finally:
        service.close()


class TestRetainedBytes:
    """The per-answer footprint of ``put``: a serving window keeps every
    entry, so bytes per entry is what ``peak_rss_mb`` grows by per answer."""

    ENTRIES = 200
    #: Measured 0.3 KB on CPython 3.11 (a list, a slotted entry and the
    #: LRU slot); an edge -> keys index, which this cache no longer keeps,
    #: put it at 3.0 KB, and a stored per-entry edge set at 8.8 KB.
    CEILING_BYTES_PER_ENTRY = 4096

    @staticmethod
    def _three_paths_of_sixty_vertices():
        # Three near-identical 60-vertex paths, like a k=3 answer, shared by
        # every entry: only what ``put`` itself retains is left to measure.
        first = tuple(range(1000, 1060))
        second = first[:30] + (1070,) + first[31:]
        third = first[:40] + (1080,) + first[41:]
        return [Path(59.0, first), Path(60.0, second), Path(61.0, third)]

    def test_bytes_per_entry_stay_under_the_ceiling(self):
        import gc
        import tracemalloc

        paths = self._three_paths_of_sixty_vertices()
        keys = [(source, source + 1, 3) for source in range(self.ENTRIES)]
        cache = ResultCache(capacity=2 * self.ENTRIES)
        cache.put((-1, -1, 3), paths)
        gc.collect()
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            for key in keys:
                cache.put(key, paths)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - baseline
            assert retained / self.ENTRIES <= self.CEILING_BYTES_PER_ENTRY
            cache.flush()
            gc.collect()
            after_flush = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert len(cache) == 0
        assert after_flush <= self.CEILING_BYTES_PER_ENTRY  # nothing per entry left
