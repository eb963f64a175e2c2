"""Frontier-at-a-time (wavefront / delta-stepping) and batched searches.

The heap primitives in :mod:`repro.kernel.primitives` settle one vertex per
pop; every relaxation is a Python bytecode round-trip.  This module relaxes
*whole frontiers per step* with numpy scatter operations over the flat CSR
arrays of a :class:`~repro.kernel.snapshot.CSRSnapshot`
(:meth:`~repro.kernel.snapshot.CSRSnapshot.array_view`):

* :func:`wavefront_sssp` — one-to-all chaotic-relaxation search (optionally
  bucketed by a delta-stepping distance window) honouring the same
  vertex/edge ban sets, ``allowed`` restriction, cutoffs, admissible lower
  bounds and target early-exit as the heap kernel;
* :func:`dijkstra_arrays_batch` — multi-source search sharing one flat
  distance/frontier structure across a micro-batch of sources, amortising
  the per-sweep numpy overhead over the whole batch;
* :func:`batch_shortest_paths` — the id-space convenience on top of the
  batch kernel (micro-batched point-to-point queries).

No option selects these kernels.  The code picks :func:`wavefront_sssp` from
input size — the numpy-bulk landmark builds in :mod:`repro.kernel.heuristics`
above :data:`WAVEFRONT_MIN_VERTICES` — and the batch kernel is kept, with
its tests, for the refine step's batched spur searches (ROADMAP).

Identity contract: **distance-identical, tie-order free**.  With
non-negative weights the final label vector is the unique fixpoint of the
float Bellman equations ``dist[v] = min_u fl(dist[u] +
w(u, v))``; heap Dijkstra and the wavefront both converge to that same
fixpoint, accumulating each shortest path's weights left to right, so the
*distances* they produce are bitwise equal (the property suite asserts
this).  Predecessors, however, are whichever candidate won the scatter —
on ties the returned *path* may legitimately differ from the heap kernel's,
which is why only distance consumers may call them and the heap kernel
answers every path-returning search (see ``ARCHITECTURE.md``, "Batched
kernel & identity tiers").

numpy is an optional dependency: every consumer gates on
:func:`numpy_available` and falls back to the heap kernel (identical
distances, by the same argument) when it is missing.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..graph.paths import Path
from ..obs.profile import kernel_counters
from .snapshot import CSRSnapshot

try:  # pragma: no cover - exercised implicitly by every caller
    import numpy as np
except ImportError:  # pragma: no cover - numpy-less environments
    np = None  # type: ignore[assignment]

__all__ = [
    "numpy_available",
    "wavefront_sssp",
    "dijkstra_arrays_batch",
    "batch_shortest_paths",
    "WAVEFRONT_MIN_VERTICES",
]

_INF = float("inf")

#: Crossover size for *single-source* wavefront use: below a few thousand
#: vertices the heap kernel's small constant beats the fixed numpy overhead
#: a sweep pays, above it the scatter relaxations win.  Batched multi-source
#: searches amortise the sweep overhead over the whole batch and profit at
#: every size, so only single-source call sites (landmark table builds)
#: consult this.  Distances are identical either way — the constant is
#: purely a cost decision.
WAVEFRONT_MIN_VERTICES = 4096

#: ``delta="auto"`` multiplier: the bucket width is this many mean edge
#: weights.  Wide buckets keep the sweep count (fixed numpy overhead per
#: sweep) low while still bounding how far ahead of the settled wave a
#: label can be relaxed — the sweet spot for the road-network weight
#: distributions this repository generates sits at a few mean weights.
_AUTO_DELTA_FACTOR = 4.0


def numpy_available() -> bool:
    """Whether the vectorised kernels can run (numpy importable)."""
    return np is not None


def _resolve_delta(delta, weights) -> Optional[float]:
    """Turn the ``delta`` argument into a concrete bucket width or ``None``."""
    if delta is None:
        return None
    if delta == "auto":
        if weights.size == 0:
            return None
        mean = float(weights.mean())
        return _AUTO_DELTA_FACTOR * mean if mean > 0.0 else None
    return float(delta)


def _vertex_mask(
    n: int,
    allowed: Optional[Set[int]],
    banned_vertices: Optional[Set[int]],
):
    """Boolean per-vertex relax-permission mask, or ``None`` when trivial."""
    if allowed is None and not banned_vertices:
        return None
    ok = np.ones(n, dtype=bool)
    if allowed is not None:
        ok[:] = False
        if allowed:
            ok[np.fromiter(allowed, dtype=np.int64, count=len(allowed))] = True
    if banned_vertices:
        ok[np.fromiter(banned_vertices, dtype=np.int64, count=len(banned_vertices))] = False
    return ok


def _edge_mask(snapshot: CSRSnapshot, banned_pairs: Optional[Set[Tuple[int, int]]]):
    """Boolean per-arc-position mask from an index-space edge-ban set."""
    if not banned_pairs:
        return None
    positions = snapshot.arc_index_positions(banned_pairs)
    if not positions:
        return None
    ok = np.ones(len(snapshot.indices), dtype=bool)
    ok[np.asarray(positions, dtype=np.int64)] = False
    return ok


def wavefront_sssp(
    snapshot: CSRSnapshot,
    source: int,
    target: int = -1,
    allowed: Optional[Set[int]] = None,
    banned_vertices: Optional[Set[int]] = None,
    banned_pairs: Optional[Set[Tuple[int, int]]] = None,
    cutoff: float = _INF,
    bounds: Optional[Sequence[float]] = None,
    delta="auto",
):
    """One-to-all wavefront search in index space.

    Parameters mirror :func:`~repro.kernel.primitives.dijkstra_arrays` /
    :func:`~repro.kernel.primitives.bounded_dijkstra_arrays`: ``source`` and
    ``target`` are snapshot indices (``-1`` disables the early exit),
    ``allowed`` / ``banned_vertices`` / ``banned_pairs`` are index-space
    constraint sets, ``cutoff`` discards candidates whose best possible
    total (``cand + bounds[v]`` when an admissible ``bounds`` array is
    given) exceeds it.  ``delta`` selects the bucketing discipline:
    ``None`` is the pure wavefront (every pending vertex expands each
    sweep), a number is the delta-stepping window width (each sweep only
    expands pending vertices inside the lowest open distance window, which
    prevents far-ahead labels from being relaxed long before their inputs
    are final), and ``"auto"`` (default) derives the width from the mean
    edge weight — on weighted road networks it cuts scatter relaxations by
    roughly an order of magnitude over the pure wavefront.

    Returns ``(dist, pred)`` numpy arrays over all vertex indices.  Without
    a target every finite ``dist`` entry is exact; with a target only
    ``dist[target]`` and the predecessor chain leading to it are
    guaranteed (everything the early exit promises), exactly like the heap
    kernel.  Distances are bitwise equal to the heap kernel's; predecessor
    choice on equal-length paths is not (tie-order freedom).
    """
    indptr, indices, weights = snapshot.array_view()
    n = snapshot.num_vertices
    dist = np.full(n, _INF, dtype=np.float64)
    pred = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    vertex_ok = _vertex_mask(n, allowed, banned_vertices)
    edge_ok = _edge_mask(snapshot, banned_pairs)
    bounds_arr = None
    if bounds is not None and cutoff != _INF:
        bounds_arr = np.asarray(bounds, dtype=np.float64)
    delta = _resolve_delta(delta, weights)
    pending = np.zeros(n, dtype=bool)
    pending[source] = True
    buckets = relaxations = peak = 0
    while True:
        pend = np.nonzero(pending)[0]
        if pend.size == 0:
            break
        if target >= 0:
            ub = dist[target]
            if ub < _INF:
                # Vertices at or beyond the target's tentative distance can
                # never improve it (non-negative weights): drop them.
                pend = pend[dist[pend] < ub]
                pending[:] = False
                pending[pend] = True
                if pend.size == 0:
                    break
        if delta is None:
            active = pend
        else:
            # Delta-stepping window: expand only the lowest open bucket.
            low = float(dist[pend].min())
            limit = (low // delta + 1.0) * delta
            active = pend[dist[pend] < limit]
            if active.size == 0:  # float boundary guard
                active = pend
        buckets += 1
        if active.size > peak:
            peak = int(active.size)
        pending[active] = False
        starts = indptr[active]
        counts = indptr[active + 1] - starts
        total = int(counts.sum())
        if total == 0:
            continue
        src = np.repeat(active, counts)
        prefix = np.cumsum(counts) - counts
        eidx = np.arange(total, dtype=np.int64) + np.repeat(starts - prefix, counts)
        tgt = indices[eidx]
        cand = dist[src] + weights[eidx]
        keep = cand < dist[tgt]
        if edge_ok is not None:
            keep &= edge_ok[eidx]
        if vertex_ok is not None:
            keep &= vertex_ok[tgt]
        if cutoff != _INF:
            if bounds_arr is None:
                keep &= cand <= cutoff
            else:
                keep &= cand + bounds_arr[tgt] <= cutoff
        if target >= 0:
            ub = dist[target]
            if ub < _INF:
                keep &= cand < ub
        if not keep.any():
            continue
        tgt = tgt[keep]
        cand = cand[keep]
        src = src[keep]
        # Scatter-min; every kept candidate strictly improved on the
        # sweep-start label, so each kept target vertex changed and
        # re-enters the pending set.  Winner detection by value equality:
        # any candidate matching the post-scatter minimum is a valid
        # predecessor (the fixpoint argument in the module docstring).
        np.minimum.at(dist, tgt, cand)
        winners = cand == dist[tgt]
        pred[tgt[winners]] = src[winners]
        pending[tgt] = True
        relaxations += int(tgt.size)
    prof = kernel_counters()
    if prof is not None:
        prof.searches += 1
        prof.buckets += buckets
        prof.scatter_relaxations += relaxations
        if peak > prof.frontier_peak:
            prof.frontier_peak = peak
    return dist, pred


def dijkstra_arrays_batch(
    snapshot: CSRSnapshot,
    sources: Sequence[int],
    targets: Optional[Sequence[int]] = None,
    cutoff: float = _INF,
    delta="auto",
):
    """Multi-source wavefront sharing one flat distance/frontier structure.

    ``sources`` (and the optional parallel ``targets``) are snapshot
    indices.  The batch runs as ``B`` disjoint copies of the graph inside
    one flat array of ``B * n`` labels — every sweep expands the union of
    all per-source frontiers, so the numpy call overhead of a sweep is paid
    once for the whole micro-batch instead of once per source.  With
    ``targets``, each source additionally prunes its own frontier against
    its target's tentative distance (per-source early exit).  ``delta`` is
    the delta-stepping window shared by all sources (see
    :func:`wavefront_sssp`); distances from different sources are
    commensurable (same weight scale), so one global window is effective.

    Returns ``(dist, pred)`` of shape ``(B, n)``; ``pred`` entries are
    per-source local indices (``-1`` where unlabelled).  The same identity
    contract as :func:`wavefront_sssp` applies per source: with ``targets``
    only each source's target label and predecessor chain are guaranteed.
    """
    indptr, indices, weights = snapshot.array_view()
    n = snapshot.num_vertices
    b = len(sources)
    if b == 0:
        empty = np.zeros((0, n))
        return empty, empty.astype(np.int64)
    src0 = np.asarray(sources, dtype=np.int64)
    base = np.arange(b, dtype=np.int64) * n
    flat_sources = base + src0
    dist = np.full(b * n, _INF, dtype=np.float64)
    pred = np.full(b * n, -1, dtype=np.int64)
    dist[flat_sources] = 0.0
    tgt_flat = base + np.asarray(targets, dtype=np.int64) if targets is not None else None
    delta = _resolve_delta(delta, weights)
    pending = np.zeros(b * n, dtype=bool)
    pending[flat_sources] = True
    buckets = relaxations = peak = 0
    while True:
        pend = np.nonzero(pending)[0]
        if pend.size == 0:
            break
        ub = None
        if tgt_flat is not None:
            ub = dist[tgt_flat]
            if bool((ub < _INF).any()):
                pend = pend[dist[pend] < ub[pend // n]]
                pending[:] = False
                pending[pend] = True
                if pend.size == 0:
                    break
        if delta is None:
            active = pend
        else:
            low = float(dist[pend].min())
            limit = (low // delta + 1.0) * delta
            active = pend[dist[pend] < limit]
            if active.size == 0:  # float boundary guard
                active = pend
        buckets += 1
        if active.size > peak:
            peak = int(active.size)
        pending[active] = False
        local = active % n
        starts = indptr[local]
        counts = indptr[local + 1] - starts
        total = int(counts.sum())
        if total == 0:
            continue
        src = np.repeat(active, counts)
        prefix = np.cumsum(counts) - counts
        eidx = np.arange(total, dtype=np.int64) + np.repeat(starts - prefix, counts)
        tgt = indices[eidx] + np.repeat(active - local, counts)
        cand = dist[src] + weights[eidx]
        keep = cand < dist[tgt]
        if cutoff != _INF:
            keep &= cand <= cutoff
        if ub is not None:
            keep &= cand < ub[tgt // n]
        if not keep.any():
            continue
        tgt = tgt[keep]
        cand = cand[keep]
        src = src[keep]
        np.minimum.at(dist, tgt, cand)
        winners = cand == dist[tgt]
        pred[tgt[winners]] = src[winners]
        pending[tgt] = True
        relaxations += int(tgt.size)
    prof = kernel_counters()
    if prof is not None:
        prof.searches += b
        prof.buckets += buckets
        prof.scatter_relaxations += relaxations
        if peak > prof.frontier_peak:
            prof.frontier_peak = peak
    dist2 = dist.reshape(b, n)
    pred2 = pred.reshape(b, n)
    pred2 = np.where(pred2 >= 0, pred2 % n, -1)
    return dist2, pred2


def _walk(pred_row, source_index: int, target_index: int) -> Optional[List[int]]:
    """Index-space path from the local predecessor row, or ``None``."""
    if target_index != source_index and pred_row[target_index] < 0:
        return None
    sequence = [target_index]
    while sequence[-1] != source_index:
        sequence.append(int(pred_row[sequence[-1]]))
    sequence.reverse()
    return sequence


def batch_shortest_paths(
    snapshot: CSRSnapshot,
    pairs: Sequence[Tuple[int, int]],
) -> List[Optional[Path]]:
    """Answer a micro-batch of id-space point-to-point queries in one run.

    Returns one :class:`~repro.graph.paths.Path` per pair (``None`` where
    the endpoints are missing or disconnected).  Distances are identical to
    per-pair :func:`~repro.algorithms.dijkstra.shortest_path` calls; the
    returned vertex sequences are tie-order free (module contract).
    """
    index_of = snapshot.index_of
    ids = snapshot.ids
    results: List[Optional[Path]] = [None] * len(pairs)
    sources: List[int] = []
    targets: List[int] = []
    slots: List[int] = []
    for slot, (source, target) in enumerate(pairs):
        si = index_of.get(source)
        ti = index_of.get(target)
        if si is None or ti is None:
            continue
        if si == ti:
            results[slot] = Path(0.0, (source,))
            continue
        sources.append(si)
        targets.append(ti)
        slots.append(slot)
    if not sources:
        return results
    dist, pred = dijkstra_arrays_batch(snapshot, sources, targets=targets)
    get_id = ids.__getitem__
    for row, slot in enumerate(slots):
        sequence = _walk(pred[row], sources[row], targets[row])
        if sequence is None:
            continue
        results[slot] = Path(
            float(dist[row][targets[row]]), tuple(map(get_id, sequence))
        )
    return results
