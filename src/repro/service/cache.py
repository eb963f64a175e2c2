"""Result cache, emptied by every weight round.

The cache stores KSP results keyed by ``(source, target, k)``.  A cached
answer is correct only while it is still the top k at the current weights,
and any applied weight round can end that: a rise on a cached path changes
its distance, and a *drop* anywhere else can open a shorter path the entry
does not hold.  So the rule is the simplest exact one: every applied round
that finds the cache non-empty empties it (:meth:`ResultCache.invalidate`).

Keeping the entries whose paths avoid the changed edges ("scoped"
invalidation, the rule this replaced) served answers that were no longer
the top k.  On a 10 x 10 road network with ``TrafficModel(alpha=0.05,
tau=0.3)``, 500 queries at k = 2 and 50 rounds, it served 51, 62 and 56
hits at seeds 5, 6 and 7, of which 1, 2 and 1 were not whole-graph Yen's
top k; flushing serves 2, 3 and 2 hits there, every one exact.  Under
heavy traffic the old rule flushed anyway: a round of the ``dynamic-traffic``
benchmark workload changes about 1,450 edges, past its 512-edge threshold.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence, Tuple

from ..graph.graph import WeightUpdate
from ..graph.paths import Path
from ..obs.metrics import MetricsRegistry

__all__ = ["CacheEntry", "ResultCache"]

QueryKey = Tuple[int, int, int]


class CacheEntry:
    """One cached KSP result."""

    __slots__ = ("paths",)

    def __init__(self, paths: Sequence[Path]) -> None:
        self.paths = list(paths)


class ResultCache:
    """LRU cache of KSP results, emptied by every weight round.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is evicted
        first.

    Lookups, evictions, invalidated entries and full flushes are counted
    in ``metrics``, the cache's own registry, as they happen.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self._capacity = capacity
        self._entries: "OrderedDict[QueryKey, CacheEntry]" = OrderedDict()
        self.metrics = MetricsRegistry()
        self.hits = self.metrics.counter("service_cache_hits_total")
        self.misses = self.metrics.counter("service_cache_misses_total")
        self.evictions = self.metrics.counter("service_cache_evictions_total")
        self.invalidations = self.metrics.counter("service_cache_invalidations_total")
        self.full_flushes = self.metrics.counter("service_cache_full_flushes_total")

    # ------------------------------------------------------------------
    # lookups and insertion
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def get(self, key: QueryKey) -> Optional[CacheEntry]:
        """Return the live entry for ``key``, updating LRU order and counts."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses.inc()
            return None
        self._entries.move_to_end(key)
        self.hits.inc()
        return entry

    def put(self, key: QueryKey, paths: Sequence[Path]) -> CacheEntry:
        """Insert (or replace) the result for ``key``."""
        entries = self._entries
        entries.pop(key, None)
        entry = entries[key] = CacheEntry(paths)
        while len(entries) > self._capacity:
            entries.popitem(last=False)
            self.evictions.inc()
        return entry

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self, updates: Sequence[WeightUpdate]) -> int:
        """Empty the cache for one applied round; returns the eviction count.

        Registered by :class:`~repro.service.server.KSPService` as a graph
        listener, so after any weight change applied through the graph — the
        maintenance loop or an out-of-band update — no answer computed at
        older weights is served.
        """
        if not updates or not self._entries:
            return 0
        return self.flush()

    def flush(self) -> int:
        """Drop every entry; returns the number of entries dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations.inc(dropped)
        self.full_flushes.inc()
        return dropped
