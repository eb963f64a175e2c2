"""Last-known-answer cache backing graceful degradation.

When every route to a live replica is exhausted — breakers open, retries
spent, deadline nearly gone — the front door can still do better than an
error: serve the *last answer it ever produced* for this query key,
clearly flagged ``degraded: true`` and stamped with the graph version the
answer was computed at.  For a navigation workload a seconds-stale route
is almost always more useful than a 503; callers that disagree run the
front door in strict mode, which never consults this cache.

This cache is deliberately different from the service-layer
:class:`~repro.service.cache.ResultCache`:

* it is **never invalidated** — staleness is its entire purpose; the
  stored ``graph_version`` makes the staleness inspectable instead of
  silent;
* it stores the answer's immutable ``Path`` tuples — the very objects the
  replica's result cache holds, so a remembered answer costs one small
  tuple — and the front door renders the JSON body only when a degraded
  answer is actually served;
* it is bounded LRU, sized to the working set of hot keys — eviction only
  narrows degraded coverage, never correctness.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..graph.paths import Path

__all__ = ["StaleCache"]

QueryKey = Tuple[int, int, int]


class StaleCache:
    """Bounded LRU of last-known answer paths, keyed by query key."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._capacity = capacity
        self._entries: "OrderedDict[QueryKey, Tuple[Tuple[Path, ...], int]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        """Maximum number of retained keys."""
        return self._capacity

    def put(self, key: QueryKey, paths: Tuple[Path, ...], graph_version: int) -> None:
        """Remember the latest good answer for ``key`` (LRU insert)."""
        if key in self._entries:
            self._entries.pop(key)
        elif len(self._entries) >= self._capacity:
            self._entries.popitem(last=False)
        self._entries[key] = (paths, graph_version)

    def get(self, key: QueryKey) -> Optional[Tuple[Tuple[Path, ...], int]]:
        """Last ``(paths, graph_version)`` for ``key``, or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry
