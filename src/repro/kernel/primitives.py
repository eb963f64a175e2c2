"""Array-native shortest-path primitives operating in snapshot index space.

These functions are the hot inner loops of the repository.  They work on
the rows of a :class:`~repro.kernel.snapshot.CSRSnapshot` (``rows[i]``
lists the ``(neighbour_index, weight)`` pairs of vertex ``i``, the
snapshot's one copy of its arcs) — no neighbour-adapter dispatch, no
per-edge dictionary probing — and every identifier they touch is a dense
``0..n-1`` index, so tentative distances and predecessors are plain lists.

Settled-vertex bookkeeping uses the classic stale-entry test (``d >
dist[u]``) instead of a visited set: with non-negative weights a vertex's
distance is final when it first pops fresh, and any later heap entry for it
carries a strictly larger key, so no separate flag array is needed.

Determinism contract: given rows in the same order as the reference graph's
``neighbors`` iteration and an order-isomorphic id → index mapping (both
guaranteed by :class:`CSRSnapshot`), the relaxation sequence — and therefore
distances *and* predecessor choices on ties — is identical to the
dict-based reference in :mod:`repro.algorithms.dijkstra`.  The property
suite (``tests/test_kernel_properties.py``) pins this down.

See ``ARCHITECTURE.md`` for how the layers fit together.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..obs.profile import kernel_counters

__all__ = [
    "dijkstra_arrays",
    "dijkstra_arrays_multi",
    "bounded_dijkstra_arrays",
    "reconstruct_indices",
    "ResumableSearch",
]

_INF = float("inf")

# Profiling contract: each primitive pays exactly one thread-local lookup
# (kernel_counters()) per call.  When a collector is active the call is
# forwarded to the one counting loop (_counting_search below), which replays
# the identical relaxation sequence while counting; when not, the lean
# loops run with zero added per-relaxation work.  The counting loop
# accumulates into locals and folds once at the end, so even the enabled
# path adds no attribute access inside the inner loop.  A ResumableSearch
# pays the lookup once when created (that is when it counts as a search)
# and once per extend, which forwards to the same counting loop.


def dijkstra_arrays(
    rows: Sequence[Sequence[Tuple[int, float]]],
    num_vertices: int,
    source: int,
    target: int = -1,
    allowed: Optional[Set[int]] = None,
    banned_vertices: Optional[Set[int]] = None,
    banned_pairs: Optional[Set[Tuple[int, int]]] = None,
    track_touched: bool = True,
) -> Tuple[List[float], List[int], Optional[List[int]]]:
    """Dijkstra over snapshot rows; everything is in index space.

    Parameters
    ----------
    rows:
        Per-vertex adjacency rows of ``(neighbour_index, weight)`` pairs
        (:attr:`CSRSnapshot.rows`).
    num_vertices:
        Number of vertices (``len(rows)``).
    source:
        Source vertex index.
    target:
        Optional target index; ``-1`` disables early exit.
    allowed:
        When given, the search never expands outside this index set.
    banned_vertices:
        Vertex indices that may not be visited (Yen spur searches).
    banned_pairs:
        Directed index pairs ``(u, v)`` that may not be traversed.
    track_touched:
        When ``True`` the third return value lists exactly the labelled
        indices (source first), letting callers build id-space dictionaries
        in O(labelled); pass ``False`` when only ``dist[target]`` and the
        predecessor walk are needed (the ``shortest_path`` / Yen fast
        paths) to keep the inner loop minimal.

    Returns
    -------
    (dist, pred, touched)
        ``dist``/``pred`` are dense lists over all vertex indices
        (``inf`` / ``-1`` when unlabelled); ``touched`` is ``None`` when
        ``track_touched`` is ``False``.
    """
    if allowed is None and banned_vertices is None and banned_pairs is None:
        prof = kernel_counters()
        if prof is not None:
            dist, pred, _found, touched, _settled = _counting_search(
                prof, rows, num_vertices, source, target,
                track_touched=track_touched,
            )
            return dist, pred, touched
        dist: List[float] = [_INF] * num_vertices
        pred: List[int] = [-1] * num_vertices
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        if not track_touched:
            # Leanest loop: full-path queries need only the target label
            # and the predecessor chain.
            while heap:
                d, u = heappop(heap)
                if d > dist[u]:
                    continue
                if u == target:
                    break
                for v, w in rows[u]:
                    nd = d + w
                    if nd < dist[v]:
                        dist[v] = nd
                        pred[v] = u
                        heappush(heap, (nd, v))
            return dist, pred, None
        touched: List[int] = [source]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            if u == target:
                break
            for v, w in rows[u]:
                nd = d + w
                if nd < dist[v]:
                    if dist[v] == _INF:
                        touched.append(v)
                    dist[v] = nd
                    pred[v] = u
                    heappush(heap, (nd, v))
        return dist, pred, touched

    # Constrained variant (``allowed`` restrictions, ban sets): the
    # cutoff-free case of the bound-pruned loop, whose ban tests mirror the
    # reference implementation's order so the relaxation sequence stays
    # identical.  Early exit at target settlement applies there exactly as
    # in the unconstrained loops above.
    dist, pred, _found, touched = bounded_dijkstra_arrays(
        rows, num_vertices, source, target,
        allowed=allowed, banned_vertices=banned_vertices,
        banned_pairs=banned_pairs, track_touched=track_touched,
    )
    return dist, pred, touched


def dijkstra_arrays_multi(
    rows: Sequence[Sequence[Tuple[int, float]]],
    num_vertices: int,
    source: int,
    targets: Iterable[int],
) -> Tuple[List[float], List[int], List[int], List[int]]:
    """One-to-many Dijkstra: settle until *every* target is settled.

    Single source, a set of targets: the search runs exactly like the
    unconstrained :func:`dijkstra_arrays` loop but stops as soon as the last
    target pops fresh, collapsing ``len(targets)`` point-to-point searches
    into one run.  Relaxation order is a prefix of the full run's, so the
    distances and predecessors of every *settled* vertex — in particular of
    every reachable target — are bit-identical to a full single-source
    Dijkstra.

    Returns ``(dist, pred, settled_targets, touched)`` where
    ``settled_targets`` lists the target indices that were settled
    (reachable from the source), in settle order, and ``touched`` lists
    every labelled index (source first) so callers can rebuild id-space
    dictionaries in O(labelled).  Entries of ``dist``/``pred`` for
    labelled-but-unsettled vertices are tentative; callers must only rely
    on settled targets and the predecessor chains leading to them (every
    vertex on a shortest path to a settled target is itself settled).
    """
    prof = kernel_counters()
    if prof is not None:
        dist, pred, _found, touched, settled_targets = _counting_search(
            prof, rows, num_vertices, source, targets=targets
        )
        return dist, pred, settled_targets, touched
    dist: List[float] = [_INF] * num_vertices
    pred: List[int] = [-1] * num_vertices
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    remaining = set(targets)
    settled_targets: List[int] = []
    touched: List[int] = [source]
    if source in remaining:
        remaining.discard(source)
        settled_targets.append(source)
    if not remaining:
        return dist, pred, settled_targets, touched
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        if u in remaining:
            remaining.discard(u)
            settled_targets.append(u)
            if not remaining:
                break
        for v, w in rows[u]:
            nd = d + w
            if nd < dist[v]:
                if dist[v] == _INF:
                    touched.append(v)
                dist[v] = nd
                pred[v] = u
                heappush(heap, (nd, v))
    return dist, pred, settled_targets, touched


def bounded_dijkstra_arrays(
    rows: Sequence[Sequence[Tuple[int, float]]],
    num_vertices: int,
    source: int,
    target: int,
    bounds: Optional[Sequence[float]] = None,
    cutoff: float = _INF,
    allowed: Optional[Set[int]] = None,
    banned_vertices: Optional[Set[int]] = None,
    banned_pairs: Optional[Set[Tuple[int, int]]] = None,
    track_touched: bool = False,
) -> Tuple[List[float], List[int], bool, Optional[List[int]]]:
    """Goal-directed *bound-pruned* Dijkstra (order-preserving, exact paths).

    The pruned counterpart of the spur-search configuration of
    :func:`dijkstra_arrays`: an admissible per-vertex lower bound to the
    target (``bounds[v] <= dist(v, target)``, with ``bounds[target] == 0``)
    plus an upper bound ``cutoff`` on the acceptable source→target distance.
    A relaxation is *discarded at push time* when its best possible total,
    ``g(v) + bounds[v]``, strictly exceeds ``cutoff`` — it provably cannot
    lie on a source→target path of distance ``<= cutoff``.

    Unlike classical A*, the heap keys stay plain ``(g, v)``: the bounds
    prune but never *reorder* the search.  That is what makes the result
    bit-identical to the unpruned search even on graphs with distance ties
    (this repository's road networks have integer base weights): every
    vertex on the unpruned run's returned path satisfies
    ``g(v) + bounds(v) <= g(v) + dist(v, target) <= dist(source, target)
    <= cutoff`` and therefore survives pruning with its exact ``g`` and
    predecessor, and the relative pop order of surviving heap entries is
    unchanged because their keys are unchanged.  (Classical f-ordered A*
    settles fewer vertices but may return a different — equally short —
    path on ties, which is why this repository does not use it.)

    With ``cutoff`` left at ``inf`` nothing is ever discarded and this is
    plain constrained Dijkstra — the loop constrained
    :func:`dijkstra_arrays` calls and Yen's first-round spur searches run.

    Returns ``(dist, pred, found, touched)``; ``found`` is ``True`` iff the
    target was settled, in which case ``dist[target]`` is its exact
    distance (necessarily ``<= cutoff`` up to the pruning rule: a target
    whose true distance exceeds ``cutoff`` is reported unreachable).
    ``touched`` lists the labelled indices (source first) when
    ``track_touched`` is ``True`` — callers rebuilding id-space
    dictionaries stay O(labelled) instead of O(V) — and is ``None``
    otherwise (the lean spur-search configuration).
    """
    prof = kernel_counters()
    if prof is not None:
        dist, pred, found, touched, _settled = _counting_search(
            prof, rows, num_vertices, source, target,
            bounds=bounds, cutoff=cutoff, allowed=allowed,
            banned_vertices=banned_vertices, banned_pairs=banned_pairs,
            track_touched=track_touched,
        )
        return dist, pred, found, touched
    dist: List[float] = [_INF] * num_vertices
    pred: List[int] = [-1] * num_vertices
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    banned_v = banned_vertices if banned_vertices is not None else ()
    banned_p = banned_pairs if banned_pairs is not None else ()
    touched: Optional[List[int]] = [source] if track_touched else None
    found = False
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        if u == target:
            found = True
            break
        for v, w in rows[u]:
            if v in banned_v:
                continue
            if allowed is not None and v not in allowed:
                continue
            if banned_p and (u, v) in banned_p:
                continue
            nd = d + w
            if nd < dist[v]:
                if bounds is None:
                    if nd > cutoff:
                        continue
                elif nd + bounds[v] > cutoff:
                    continue
                if touched is not None and dist[v] == _INF:
                    touched.append(v)
                dist[v] = nd
                pred[v] = u
                heappush(heap, (nd, v))
    return dist, pred, found, touched


class ResumableSearch:
    """A Dijkstra from one vertex that settles on demand, ring by ring.

    :meth:`extend` settles every vertex whose distance is at most a radius
    and keeps the rest of the frontier for the next call, so a consumer
    whose question only grows — a pruned Yen whose prune bound is fixed
    after the search started — pays for each vertex once.  ``settled[i]``
    is the exact distance of every settled index and ``inf`` for every
    other one; ``extend(inf)`` completes the search, and ``settled`` is
    then the full search's distance array
    (:meth:`~repro.kernel.snapshot.CSRSnapshot.bounds_to`).  Pausing never
    reorders the heap, so every settled distance is bit-identical to the
    one an uninterrupted search computes.
    """

    __slots__ = ("settled", "_rows", "_dist", "_heap", "_frontier")

    def __init__(self, rows: Sequence[Sequence[Tuple[int, float]]], source: int) -> None:
        num_vertices = len(rows)
        self._rows = rows
        self.settled: List[float] = [_INF] * num_vertices
        self._dist: List[float] = [_INF] * num_vertices
        self._dist[source] = 0.0
        self._heap: List[Tuple[float, int]] = [(0.0, source)]
        # Distance of the nearest unsettled vertex (inf once exhausted).
        self._frontier = 0.0
        prof = kernel_counters()
        if prof is not None:
            prof.searches += 1

    def extend(self, radius: float, stop: int = -1) -> float:
        """Settle every vertex within ``radius``; returns the nearest distance
        left unsettled (``inf`` when nothing is left).

        With ``stop`` the search also halts the moment ``stop`` is the
        nearest unsettled vertex, without settling it: the return value is
        then ``stop``'s exact distance.  Halting puts the popped entry back,
        so the next call resumes exactly where this one ended.
        """
        if stop < 0 and radius < self._frontier:
            return self._frontier
        heap = self._heap
        prof = kernel_counters()
        if prof is not None:
            _counting_search(
                prof, self._rows, len(self._rows), -1, stop,
                track_touched=False, frontier=self, radius=radius,
            )
        else:
            dist = self._dist
            settled = self.settled
            rows = self._rows
            while heap:
                d, u = heappop(heap)
                if d > dist[u]:
                    continue
                if d > radius or u == stop:
                    heappush(heap, (d, u))
                    break
                settled[u] = d
                for v, w in rows[u]:
                    nd = d + w
                    if nd < dist[v]:
                        dist[v] = nd
                        heappush(heap, (nd, v))
        self._frontier = heap[0][0] if heap else _INF
        return self._frontier


def _counting_search(
    prof,
    rows: Sequence[Sequence[Tuple[int, float]]],
    num_vertices: int,
    source: int,
    target: int = -1,
    targets: Optional[Iterable[int]] = None,
    bounds: Optional[Sequence[float]] = None,
    cutoff: float = _INF,
    allowed: Optional[Set[int]] = None,
    banned_vertices: Optional[Set[int]] = None,
    banned_pairs: Optional[Set[Tuple[int, int]]] = None,
    track_touched: bool = True,
    frontier: Optional[ResumableSearch] = None,
    radius: float = _INF,
) -> Tuple[List[float], List[int], bool, Optional[List[int]], List[int]]:
    """The one counting loop: any search above, replayed into ``prof``.

    General over the four lean loops and the resumable search.  With no
    ban sets, no ``allowed`` restriction, no ``targets``, an infinite
    ``cutoff`` and no ``frontier`` every extra test is a constant-false, so
    the relaxation sequence — and the returned dist/pred/touched — is
    bit-identical to whichever specialised loop would have run; the
    counters observe, never steer.  ``pruned`` counts relaxations
    discarded by the bound test — the push-time pruning the paper's
    Theorem-3 cutoff enables.  Every successful relaxation is exactly one
    heap push, so one local feeds both ``relaxed`` and ``heap_pushes``.

    With ``frontier`` the loop runs one :meth:`ResumableSearch.extend` on
    that search's own labels and heap (``source`` is ignored; the search
    was counted when it was created): ``radius`` and ``target`` then halt
    it *before* settling, the popped entry going back onto the heap, and
    each settled distance is written to ``frontier.settled``.

    Returns ``(dist, pred, found, touched, settled_targets)``; each public
    primitive keeps the members of its own return contract.
    """
    final: Optional[List[float]] = None
    if frontier is None:
        dist: List[float] = [_INF] * num_vertices
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        prof.searches += 1
    else:
        dist, heap, final = frontier._dist, frontier._heap, frontier.settled
    pred: List[int] = [-1] * num_vertices
    banned_v = banned_vertices if banned_vertices is not None else ()
    banned_p = banned_pairs if banned_pairs is not None else ()
    touched: Optional[List[int]] = [source] if track_touched else None
    settled_targets: List[int] = []
    found = False
    remaining: Optional[Set[int]] = None
    if targets is not None:
        remaining = set(targets)
        if source in remaining:
            remaining.discard(source)
            settled_targets.append(source)
        if not remaining:
            return dist, pred, found, touched, settled_targets
    settled = relaxed = pruned = 0
    peak = len(heap)
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        if final is not None:
            if d > radius or u == target:
                heappush(heap, (d, u))
                break
            final[u] = d
        settled += 1
        if u == target:
            found = True
            break
        if remaining and u in remaining:
            remaining.discard(u)
            settled_targets.append(u)
            if not remaining:
                break
        for v, w in rows[u]:
            if banned_v and v in banned_v:
                continue
            if allowed is not None and v not in allowed:
                continue
            if banned_p and (u, v) in banned_p:
                continue
            nd = d + w
            if nd < dist[v]:
                if (nd if bounds is None else nd + bounds[v]) > cutoff:
                    pruned += 1
                    continue
                if touched is not None and dist[v] == _INF:
                    touched.append(v)
                dist[v] = nd
                pred[v] = u
                heappush(heap, (nd, v))
                relaxed += 1
                if len(heap) > peak:
                    peak = len(heap)
    prof.settled += settled
    prof.relaxed += relaxed
    prof.pruned += pruned
    prof.heap_pushes += relaxed
    if peak > prof.heap_peak:
        prof.heap_peak = peak
    return dist, pred, found, touched, settled_targets


def reconstruct_indices(pred: Sequence[int], source: int, target: int) -> List[int]:
    """Rebuild the index-space vertex sequence from ``source`` to ``target``."""
    sequence = [target]
    while sequence[-1] != source:
        sequence.append(pred[sequence[-1]])
    sequence.reverse()
    return sequence
