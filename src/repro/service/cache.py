"""Result cache with update-scoped invalidation.

The cache stores KSP results keyed by ``(source, target, k)`` together with
the graph version they were computed at.  Invalidation is driven by the
stream of :class:`~repro.graph.graph.WeightUpdate` batches:

* **scoped** (default): only entries whose cached paths traverse an updated
  edge are evicted.  Entries that survive are *distance-exact* — every
  returned path's distance still equals the sum of current edge weights —
  because no edge on any of their paths has changed.  The top-k *set* may
  become slightly conservative when a weight decrease elsewhere opens a new
  shorter alternative; latency-critical serving accepts this (the paths
  served are real paths with true current distances), and the
  ``full_eviction_threshold`` bounds how long entries can linger under heavy
  churn.
* **full**: every update batch flushes the whole cache, trading hit rate for
  strict top-k freshness.

Scoped invalidation is implemented with an inverted index from canonical
edge key to the set of cache keys whose paths use that edge, so the cost of
an update batch is proportional to the number of touched entries, not to
the cache size.  When one batch updates more than
``full_eviction_threshold`` distinct edges the cache flushes wholesale
instead of walking the index (a snapshot changing 35% of all edges — the
paper's default traffic model — would otherwise touch nearly every entry
one by one).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from ..graph.graph import WeightUpdate, edge_key
from ..graph.paths import Path, path_edges

__all__ = ["CacheEntry", "CacheStats", "ResultCache"]

QueryKey = Tuple[int, int, int]
EdgeKey = Tuple[int, int]


class CacheEntry:
    """One cached KSP result."""

    __slots__ = ("paths", "version")

    def __init__(self, paths: Sequence[Path], version: int) -> None:
        self.paths = list(paths)
        self.version = version


class CacheStats:
    """Counters exposed through :class:`~repro.service.telemetry.ServiceReport`."""

    __slots__ = (
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "full_flushes",
        "stale_rejections",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.full_flushes = 0
        self.stale_rejections = 0

    def reclassify_stale_hit(self) -> None:
        """Turn the latest hit into a miss after a freshness check failed.

        Used by the server's belt-and-braces re-validation: an entry that
        slipped past invalidation (e.g. updates applied while the service's
        listener was unregistered) is rejected at read time and recounted.
        """
        self.hits -= 1
        self.misses += 1
        self.stale_rejections += 1

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """LRU cache of KSP results with scoped invalidation.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is evicted
        first.
    directed:
        Whether edge keys are directional.  Must match the graph the results
        were computed on, otherwise scoped invalidation would miss updates
        arriving with the opposite vertex order.
    mode:
        ``"scoped"`` or ``"full"`` — see the module docstring.
    full_eviction_threshold:
        In scoped mode, an update batch touching more than this many
        distinct edges flushes the whole cache instead of consulting the
        inverted index.
    """

    def __init__(
        self,
        capacity: int = 4096,
        directed: bool = False,
        mode: str = "scoped",
        full_eviction_threshold: int = 512,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        if mode not in ("scoped", "full"):
            raise ValueError(f"mode must be 'scoped' or 'full', got {mode!r}")
        self._capacity = capacity
        self._directed = directed
        self._mode = mode
        self._full_eviction_threshold = full_eviction_threshold
        self._entries: "OrderedDict[QueryKey, CacheEntry]" = OrderedDict()
        self._edge_index: Dict[EdgeKey, Set[QueryKey]] = {}
        self.stats = CacheStats()

    def _edge_key(self, u: int, v: int) -> EdgeKey:
        return (u, v) if self._directed else edge_key(u, v)

    def _entry_edges(self, entry: CacheEntry) -> Iterator[EdgeKey]:
        """Edge keys the entry's paths traverse (repeats included).

        Derived from the paths on demand rather than stored per entry: the
        inverted index's own keys are then the only per-edge objects the
        cache retains.
        """
        for path in entry.paths:
            for u, v in path_edges(path.vertices):
                yield self._edge_key(u, v)

    # ------------------------------------------------------------------
    # lookups and insertion
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def get(self, key: QueryKey) -> Optional[CacheEntry]:
        """Return the live entry for ``key``, updating LRU order and stats."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def peek(self, key: QueryKey) -> Optional[CacheEntry]:
        """Return the entry for ``key`` without touching LRU order or stats."""
        return self._entries.get(key)

    def put(self, key: QueryKey, paths: Sequence[Path], version: int) -> CacheEntry:
        """Insert (or replace) the result for ``key`` computed at ``version``."""
        if key in self._entries:
            self._remove(key)
        entry = CacheEntry(paths, version)
        self._entries[key] = entry
        edge_index = self._edge_index
        for edge in self._entry_edges(entry):
            keys = edge_index.get(edge)
            if keys is None:
                edge_index[edge] = {key}
            else:
                keys.add(key)
        while len(self._entries) > self._capacity:
            oldest_key = next(iter(self._entries))
            self._remove(oldest_key)
            self.stats.evictions += 1
        return entry

    def _remove(self, key: QueryKey) -> None:
        entry = self._entries.pop(key)
        for edge in self._entry_edges(entry):
            keys = self._edge_index.get(edge)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._edge_index[edge]

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self, updates: Sequence[WeightUpdate]) -> int:
        """Evict entries affected by ``updates``; returns the eviction count.

        Registered by :class:`~repro.service.server.KSPService` as a graph
        listener, so any weight change applied through the graph — the
        maintenance loop or an out-of-band update — keeps the cache honest.
        """
        if not updates or not self._entries:
            return 0
        changed = {self._edge_key(update.u, update.v) for update in updates}
        if self._mode == "full" or len(changed) > self._full_eviction_threshold:
            return self.flush()
        stale_keys: Set[QueryKey] = set()
        for edge in changed:
            stale_keys.update(self._edge_index.get(edge, ()))
        for key in stale_keys:
            self._remove(key)
        self.stats.invalidations += len(stale_keys)
        return len(stale_keys)

    def flush(self) -> int:
        """Drop every entry; returns the number of entries dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._edge_index.clear()
        self.stats.invalidations += dropped
        self.stats.full_flushes += 1
        return dropped
