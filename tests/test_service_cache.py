"""Tests for repro.service.cache (ResultCache, scoped invalidation)."""

from __future__ import annotations

import pytest

from repro.graph import DynamicGraph, WeightUpdate
from repro.graph.paths import Path
from repro.service import ResultCache


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
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_put_replaces_existing_entry(self):
        cache = ResultCache(capacity=4)
        cache.put((0, 3, 2), make_paths([0, 1, 3]))
        cache.put((0, 3, 2), make_paths([0, 2, 3]))
        entry = cache.get((0, 3, 2))
        assert entry.paths[0].vertices == (0, 2, 3)
        assert len(cache) == 1
        # The old path's edges must no longer invalidate the new entry.
        cache.invalidate([WeightUpdate(0, 1, 9.0)])
        assert (0, 3, 2) in cache

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put((0, 1, 1), make_paths([0, 1]))
        cache.put((1, 2, 1), make_paths([1, 2]))
        cache.get((0, 1, 1))  # refresh LRU position
        cache.put((2, 3, 1), make_paths([2, 3]))
        assert (0, 1, 1) in cache
        assert (1, 2, 1) not in cache
        assert cache.stats.evictions == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(mode="sometimes")


class TestScopedInvalidation:
    def test_only_entries_on_updated_edges_evicted(self):
        cache = ResultCache(capacity=8)
        cache.put((0, 3, 2), make_paths([0, 1, 3], [0, 2, 3]))
        cache.put((4, 6, 1), make_paths([4, 5, 6]))
        evicted = cache.invalidate([WeightUpdate(1, 3, 7.0)])
        assert evicted == 1
        assert (0, 3, 2) not in cache
        assert (4, 6, 1) in cache
        assert cache.stats.invalidations == 1

    def test_update_on_any_of_the_k_paths_evicts(self):
        # The second-ranked path's edge changing must also evict the entry.
        cache = ResultCache(capacity=8)
        cache.put((0, 3, 2), make_paths([0, 1, 3], [0, 2, 3]))
        cache.invalidate([WeightUpdate(2, 3, 7.0)])
        assert (0, 3, 2) not in cache

    def test_undirected_edge_key_normalisation(self):
        # The update arrives with the opposite vertex order than the path.
        cache = ResultCache(capacity=8, directed=False)
        cache.put((0, 3, 2), make_paths([0, 1, 3]))
        cache.invalidate([WeightUpdate(3, 1, 7.0)])
        assert (0, 3, 2) not in cache

    def test_directed_edge_keys_are_directional(self):
        cache = ResultCache(capacity=8, directed=True)
        cache.put((0, 3, 2), make_paths([0, 1, 3]))
        cache.invalidate([WeightUpdate(3, 1, 7.0)])  # opposite arc
        assert (0, 3, 2) in cache
        cache.invalidate([WeightUpdate(1, 3, 7.0)])
        assert (0, 3, 2) not in cache

    def test_surviving_entries_stay_distance_exact(self):
        graph = DynamicGraph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 3, 1.0)
        graph.add_edge(0, 2, 2.0)
        graph.add_edge(2, 3, 2.0)
        cache = ResultCache(capacity=8)
        cache.put((0, 3, 1), make_paths([0, 1, 3]))
        graph.update_weight(0, 2, 10.0)  # off-path edge
        cache.invalidate([WeightUpdate(0, 2, 10.0)])
        entry = cache.get((0, 3, 1))
        assert entry is not None
        path = entry.paths[0]
        assert graph.path_distance(path.vertices) == pytest.approx(path.distance)

    def test_full_eviction_past_threshold(self):
        cache = ResultCache(capacity=8, full_eviction_threshold=2)
        cache.put((0, 1, 1), make_paths([0, 1]))
        cache.put((4, 5, 1), make_paths([4, 5]))
        # Three distinct edges updated > threshold of 2: everything goes,
        # including entries whose paths were untouched.
        cache.invalidate(
            [WeightUpdate(8, 9, 1.0), WeightUpdate(9, 10, 1.0), WeightUpdate(10, 11, 1.0)]
        )
        assert len(cache) == 0
        assert cache.stats.full_flushes == 1

    def test_full_mode_flushes_on_any_update(self):
        cache = ResultCache(capacity=8, mode="full")
        cache.put((0, 1, 1), make_paths([0, 1]))
        cache.invalidate([WeightUpdate(8, 9, 1.0)])
        assert len(cache) == 0

    def test_invalidate_noop_on_empty_inputs(self):
        cache = ResultCache(capacity=8)
        assert cache.invalidate([]) == 0
        cache.put((0, 1, 1), make_paths([0, 1]))
        assert cache.invalidate([]) == 0
        assert (0, 1, 1) in cache


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
