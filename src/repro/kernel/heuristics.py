"""Admissible lower-bound providers for goal-directed snapshot searches.

The query stack prunes its searches with two kinds of bound (see
``ARCHITECTURE.md``, "Goal-directed search & pruning"):

* an **upper bound** on the acceptable source→target distance (the current
  k-th best candidate of a Yen enumeration), and
* a per-vertex **lower bound** ``h(v) <= dist(v, target)`` used to discard
  relaxations whose best possible total ``g(v) + h(v)`` already exceeds the
  upper bound.

This module supplies the lower bounds.  The provider operates purely in a
:class:`~repro.kernel.snapshot.CSRSnapshot`'s index space — ``bounds_to``
returns a dense array aligned with the snapshot's vertex indices, ready for
the kernel primitive
:func:`~repro.kernel.primitives.bounded_dijkstra_arrays`:

* :class:`LandmarkLowerBounds` — classic ALT: full Dijkstra distance tables
  from a handful of deterministically chosen, farthest-point-spread
  landmarks; ``h(v) = max_l |d(l, v) - d(l, t)|`` (the directed variant uses
  forward and reverse tables).  Works on any snapshot.

The provider self-invalidates against the snapshot's
:attr:`~repro.kernel.snapshot.CSRSnapshot.weights_epoch`: the first
``bounds_to`` call after the snapshot's weights changed rebuilds the tables
and drops the per-target cache.  Admissibility is **asserted, not assumed**,
by the test suite (``tests/test_heuristics.py`` checks ``h(v) <= dist(v, t)``
against exact Dijkstra on randomized graphs, across update rounds).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..graph.errors import QueryError
from ..obs.profile import kernel_counters
from .primitives import dijkstra_arrays
from .snapshot import CSRSnapshot
from .wavefront import WAVEFRONT_MIN_VERTICES
from .wavefront import np as _np
from .wavefront import numpy_available, wavefront_sssp

__all__ = [
    "HEURISTICS",
    "validate_heuristic",
    "LandmarkLowerBounds",
]

#: Heuristic modes accepted across the query/serving stack: ``"none"``
#: (no lower bounds — upper-bound pruning only) and ``"landmark"`` (ALT),
#: which requires the array-backed kernel: bounds are dense index-space
#: arrays that have no dict-path equivalent.
HEURISTICS = ("none", "landmark")

_INF = float("inf")

#: Cap on cached per-target bound arrays per provider.  Each entry is a
#: dense O(num_vertices) float list and epochs can span many queries on a
#: quiet graph, so an uncapped cache would grow with every distinct query
#: target.  Eviction is FIFO (dicts preserve insertion order); 256 arrays
#: comfortably cover a serving batch's working set while bounding a
#: 1k-vertex skeleton provider to a few MB.
_BOUNDS_CACHE_LIMIT = 256

#: Snapshot size at which landmark-table SSSPs switch from the heap kernel
#: to the wavefront kernel (:func:`~repro.kernel.wavefront.wavefront_sssp`).
#: Both produce bitwise-identical distance tables (the float-fixpoint
#: argument in :mod:`repro.kernel.wavefront`), so the switch is purely a
#: build-cost decision: below the shared single-source crossover the heap
#: loop's small constant wins, above it the numpy sweeps do.
_BULK_BUILD_MIN_VERTICES = WAVEFRONT_MIN_VERTICES


def _cache_bounds(cache: Dict[int, List[float]], key: int, bounds: List[float]) -> None:
    """Insert into a per-target bounds cache with FIFO eviction.

    Concurrent inserts happen under the thread executor (shared providers,
    identical values), so the eviction pop tolerates another thread having
    already evicted the same oldest key.
    """
    if len(cache) >= _BOUNDS_CACHE_LIMIT:
        try:
            cache.pop(next(iter(cache)), None)
        except (StopIteration, RuntimeError):  # racing eviction/clear
            pass
    cache[key] = bounds


def validate_heuristic(heuristic: str) -> str:
    """Validate a heuristic mode string, returning it unchanged."""
    if heuristic not in HEURISTICS:
        raise QueryError(
            f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}"
        )
    return heuristic


class LandmarkLowerBounds:
    """ALT landmark tables over one snapshot.

    Parameters
    ----------
    snapshot:
        The snapshot the searches will run on.  Tables are index-space
        distance arrays from each landmark; directed snapshots additionally
        carry reverse tables (distances *to* each landmark).
    num_landmarks:
        How many landmarks to select (clamped to the vertex count).  Four
        is the classic sweet spot for road networks: more landmarks tighten
        the bound but every relaxation pays one table lookup per landmark.

    Notes
    -----
    Landmark selection is deterministic (farthest-point traversal seeded at
    the smallest vertex index, ties broken by index), so two processes
    holding equal snapshots build identical tables — a requirement for the
    cross-backend identity guarantees of the execution layer.
    """

    def __init__(self, snapshot: CSRSnapshot, num_landmarks: int = 4) -> None:
        if num_landmarks <= 0:
            raise ValueError(f"num_landmarks must be positive, got {num_landmarks}")
        self._snapshot = snapshot
        self._num_landmarks = num_landmarks
        self._landmarks: List[int] = []
        self._forward: List[List[float]] = []
        self._reverse: List[List[float]] = []
        self._bounds_cache: Dict[int, List[float]] = {}
        self._built_epoch = -1
        self._ensure_current()

    @property
    def snapshot(self) -> CSRSnapshot:
        """The snapshot the tables were built from."""
        return self._snapshot

    @property
    def landmarks(self) -> List[int]:
        """Selected landmark vertex *ids* (not indices)."""
        self._ensure_current()
        return [self._snapshot.ids[index] for index in self._landmarks]

    # ------------------------------------------------------------------
    # table construction
    # ------------------------------------------------------------------
    def _ensure_current(self) -> None:
        """Rebuild tables when the snapshot's weights changed underneath."""
        epoch = self._snapshot.weights_epoch
        if epoch == self._built_epoch:
            return
        self._build_tables()
        self._bounds_cache.clear()
        self._built_epoch = epoch

    def _build_tables(self) -> None:
        snapshot = self._snapshot
        n = snapshot.num_vertices
        self._landmarks = []
        self._forward = []
        self._reverse = []
        if n == 0:
            return
        count = min(self._num_landmarks, n)
        reversed_snapshot = snapshot.reverse() if snapshot.directed else None
        # Farthest-point traversal: the first landmark is the vertex
        # farthest from index 0; every further landmark maximises the
        # minimum distance to the already-selected set.  Unreachable
        # vertices count as infinitely far, so additional components get
        # their own landmark before a component is covered twice.
        seed_dist = self._table_sssp(snapshot, 0)
        first = self._argmax_distance([seed_dist], n, exclude=set())
        self._add_landmark(first, reversed_snapshot)
        while len(self._landmarks) < count:
            candidate = self._argmax_distance(
                self._forward, n, exclude=set(self._landmarks)
            )
            if candidate is None:
                break
            self._add_landmark(candidate, reversed_snapshot)

    @staticmethod
    def _table_sssp(snapshot: CSRSnapshot, index: int):
        """One full distance table (bitwise identical across both kernels).

        Large snapshots build through the wavefront kernel — the numpy-bulk
        path — and return a float64 ndarray; small ones keep the heap loop
        (lower constant) and are converted so every stored table is an
        ndarray whenever numpy is importable.  Without numpy the heap list
        is stored as-is and the pure-Python fallbacks below take over.
        """
        n = snapshot.num_vertices
        if numpy_available() and n >= _BULK_BUILD_MIN_VERTICES:
            dist, _pred = wavefront_sssp(snapshot, index)
            return dist
        dist, _, _ = dijkstra_arrays(snapshot.rows, n, index, track_touched=False)
        if _np is not None:
            return _np.asarray(dist, dtype=_np.float64)
        return dist

    def _add_landmark(self, index: int, reversed_snapshot) -> None:
        snapshot = self._snapshot
        self._landmarks.append(index)
        self._forward.append(self._table_sssp(snapshot, index))
        if reversed_snapshot is not None:
            self._reverse.append(self._table_sssp(reversed_snapshot, index))

    @staticmethod
    def _argmax_distance(
        tables: Sequence[Sequence[float]], n: int, exclude
    ) -> Optional[int]:
        """Vertex index maximising the min distance to the table sources.

        ``inf`` (unreachable) ranks above every finite distance; ties break
        towards the smallest index.  Returns ``None`` when every vertex is
        excluded.
        """
        if _np is not None:
            # Vectorised variant of the loop below: excluded vertices are
            # forced below every real distance (distances are >= 0), and
            # ``argmax`` takes the first occurrence of the maximum — the
            # same smallest-index tie-break as the strict ``>`` scan.
            merged = _np.minimum.reduce([_np.asarray(table) for table in tables])
            if exclude:
                merged = merged.copy()
                merged[
                    _np.fromiter(exclude, dtype=_np.int64, count=len(exclude))
                ] = -1.0
            best = int(_np.argmax(merged))
            if merged[best] < 0.0:
                return None
            return best
        best_index: Optional[int] = None
        best_value = -1.0
        for i in range(n):
            if i in exclude:
                continue
            value = min(table[i] for table in tables)
            if best_index is None or value > best_value:
                best_index = i
                best_value = value
        return best_index

    # ------------------------------------------------------------------
    # bounds
    # ------------------------------------------------------------------
    def bounds_to(self, target: int) -> Optional[List[float]]:
        """Dense per-index lower bounds of the distance to ``target``.

        Returns ``None`` when ``target`` is not in the snapshot.  The array
        is cached per target and shared by reference — callers must not
        mutate it.
        """
        self._ensure_current()
        snapshot = self._snapshot
        target_index = snapshot.index_of.get(target)
        if target_index is None:
            return None
        cached = self._bounds_cache.get(target_index)
        prof = kernel_counters()
        if cached is not None:
            if prof is not None:
                prof.bound_cache_hits += 1
            return cached
        if prof is not None:
            prof.bound_cache_misses += 1
        n = snapshot.num_vertices
        if _np is not None:
            bounds = self._bounds_vectorised(target_index, n)
            bounds[target_index] = 0.0
            _cache_bounds(self._bounds_cache, target_index, bounds)
            return bounds
        bounds = [0.0] * n
        if snapshot.directed:
            for table, rtable in zip(self._forward, self._reverse):
                to_target = table[target_index]
                if to_target != _INF:
                    # d(v, t) >= d(l, t) - d(l, v)
                    for i in range(n):
                        value = to_target - table[i]
                        if value > bounds[i]:
                            bounds[i] = value
                from_target = rtable[target_index]
                if from_target != _INF:
                    # d(v, t) >= d(v, l) - d(t, l)
                    for i in range(n):
                        rv = rtable[i]
                        if rv == _INF:
                            continue
                        value = rv - from_target
                        if value > bounds[i]:
                            bounds[i] = value
        else:
            for table in self._forward:
                to_target = table[target_index]
                if to_target == _INF:
                    continue
                # d(v, t) >= |d(l, v) - d(l, t)| (triangle inequality both
                # ways); vertices the landmark cannot reach get no
                # information from this table.
                for i in range(n):
                    dv = table[i]
                    if dv == _INF:
                        continue
                    value = dv - to_target
                    if value < 0.0:
                        value = -value
                    if value > bounds[i]:
                        bounds[i] = value
        bounds[target_index] = 0.0
        _cache_bounds(self._bounds_cache, target_index, bounds)
        return bounds

    def _bounds_vectorised(self, target_index: int, n: int) -> List[float]:
        """numpy twin of the pure-Python bound scan (bitwise identical).

        Same subtract/abs/max float operations in the same per-table order,
        so the resulting list matches the fallback loop exactly.  Returned
        as a plain list: callers index it from the heap kernel's inner loop
        and compare provider outputs with ``==``.
        """
        best = _np.zeros(n, dtype=_np.float64)
        if self._snapshot.directed:
            for table, rtable in zip(self._forward, self._reverse):
                to_target = table[target_index]
                if to_target != _INF:
                    # d(v, t) >= d(l, t) - d(l, v); unreachable v gives -inf
                    # which the running max ignores.
                    _np.maximum(best, to_target - table, out=best)
                from_target = rtable[target_index]
                if from_target != _INF:
                    # d(v, t) >= d(v, l) - d(t, l); vertices that cannot
                    # reach the landmark contribute nothing.
                    values = _np.where(
                        _np.isfinite(rtable), rtable - from_target, 0.0
                    )
                    _np.maximum(best, values, out=best)
        else:
            for table in self._forward:
                to_target = table[target_index]
                if to_target == _INF:
                    continue
                # d(v, t) >= |d(l, v) - d(l, t)|; vertices the landmark
                # cannot reach get no information from this table.
                values = _np.where(
                    _np.isfinite(table), _np.abs(table - to_target), 0.0
                )
                _np.maximum(best, values, out=best)
        return best.tolist()
