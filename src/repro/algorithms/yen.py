"""Yen's k-shortest simple paths algorithm.

Yen's algorithm is both a baseline in the paper's evaluation and the
subroutine KSP-DG uses to compute partial k shortest paths inside a subgraph
(Algorithm 4, line 6) and reference paths on the skeleton graph.

The implementation follows the classical deviation scheme: the (i+1)-th
shortest path is found by considering, for every prefix ("root") of the i-th
shortest path, the best "spur" path that leaves the root at its last vertex
while avoiding the edges used by previously found paths sharing that root.

Two interfaces are provided:

* :func:`yen_k_shortest_paths` — compute the k shortest simple paths at once.
* :class:`LazyYen` — an iterator that produces successive shortest paths on
  demand; KSP-DG uses it to enumerate reference paths one per iteration
  without fixing ``k`` in advance.

Both interfaces accept either a plain graph-like object or a
:class:`~repro.kernel.snapshot.CSRSnapshot`; with a snapshot, every spur
search runs on the array kernel (see ``ARCHITECTURE.md``) while the
deviation bookkeeping — and therefore the exact output — stays identical.

Both interfaces additionally support *upper-bound pruning* (see
``ARCHITECTURE.md``, "Goal-directed search & pruning"): when the number of
paths the caller will consume is known (``prune_k`` / the ``k`` of
:func:`yen_k_shortest_paths`), any spur search whose best possible total
distance strictly exceeds the current k-th best known path can be abandoned
— it provably cannot contribute to the output.  On a snapshot a pruned
enumeration *bounds itself* with one resumable search from the target
(:meth:`~repro.kernel.snapshot.CSRSnapshot.reverse_search`) that it owns
for its lifetime: the search settles only the vertices within the loosened
prune bound — everything farther away stays ``inf``, which every cutoff at
or below that radius prunes anyway — and grows when the bound does; the
test tightens from "root distance" to "root distance + distance left".  An
enumeration that promises to be bounded (``prune_k >= 2``, or ``bounded``
— the filter step's reference paths) finds even its first path under a
bound: the search runs until it reaches the source, settles on to
h(source)·(1 + :data:`PRUNE_SLACK`), and the bounded kernel searches from
the source under that cutoff instead of an unbounded Dijkstra.  The pruned
enumeration returns **bit-identical** paths: bounds only ever discard
candidates strictly worse than the k-th best (:data:`PRUNE_SLACK` keeps
rounding from turning a tie into "worse"), and the pruned kernel searches
preserve relaxation order (ties included).
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from ..graph.errors import PathNotFoundError, QueryError
from ..graph.paths import Path
from ..kernel.primitives import (
    ResumableSearch,
    bounded_dijkstra_arrays,
    reconstruct_indices,
)
from ..kernel.snapshot import CSRSnapshot
from .dijkstra import dijkstra, prefix_weights, shortest_path

__all__ = ["yen_k_shortest_paths", "LazyYen", "PRUNE_SLACK"]

_INF = float("inf")

#: Relative slack of every pruning test: a deviation is abandoned only when
#: its best possible total exceeds ``bound * (1 + PRUNE_SLACK)``.  The bound
#: is a sum of edge weights and so is what it is compared with, but the two
#: add the same weights in different orders (root left to right, spur from
#: its own zero, the distance left backwards from the target), so a
#: candidate that *ties* the k-th best can come out an ulp above it — and be
#: discarded where the unpruned run keeps it and lets ``(distance,
#: vertices)`` order decide.  Rounding moves a sum of n weights by at most
#: n * 2**-53 of itself; 1e-12 covers paths of thousands of edges.  A looser
#: cutoff is always sound: pruning only ever *discards*, so loosening it can
#: only keep more candidates, and a candidate above the true bound sorts
#: after the ``prune_k`` paths the caller consumes and is never popped.
PRUNE_SLACK = 1e-12


class LazyYen:
    """Lazily enumerate the shortest simple paths between two vertices.

    Each call to :meth:`next_path` returns the next shortest simple path, or
    raises :class:`StopIteration` when no further simple path exists.  The
    enumerator is deterministic: ties are broken by vertex sequence.

    Parameters
    ----------
    graph:
        Graph-like object (``DynamicGraph``, ``Subgraph``, ``SkeletonGraph``)
        or a ``CSRSnapshot`` (spur searches then use the array kernel).
    source, target:
        Query endpoints.
    allowed_vertices:
        Optional vertex set the paths must stay within.
    prune_k:
        Promise that the caller will request at most ``prune_k`` paths.
        Enables upper-bound pruning of the spur searches: deviations whose
        best possible distance strictly exceeds the current ``prune_k``-th
        best known path are skipped.  The produced paths are bit-identical
        to the unpruned enumeration — but only the first ``prune_k`` of
        them exist; requesting more is a contract violation.
    heuristic:
        Optional override of the lower bounds a pruned enumeration on a
        snapshot otherwise computes for itself: an object exposing
        ``bounds_to(target)``, a dense per-index array with ``h(v) <=
        dist(v, target)`` — the test suite passes adversaries with
        admissible but loose bounds.  Honoured only when ``graph`` is a
        snapshot; bounds tighten both the per-spur skip test and the
        in-search pruning.  Admissibility keeps results exact; the test
        suite asserts it rather than assuming it.
    bounded:
        Promise that the enumeration will be bounded even without a
        ``prune_k`` — the filter step installs a finite
        :meth:`set_upper_bound` after its first merge — so that on a
        snapshot the first path is searched under a bound too (see the
        module docstring).  ``prune_k >= 2`` implies it; ``k = 1`` never
        deviates and has nothing to gain from a bound.

    Without ``prune_k`` and without :meth:`set_upper_bound` nothing is ever
    pruned and no bound is ever computed.
    """

    def __init__(
        self,
        graph,
        source: int,
        target: int,
        allowed_vertices: Optional[Set[int]] = None,
        prune_k: Optional[int] = None,
        heuristic=None,
        bounded: bool = False,
    ) -> None:
        self._graph = graph
        self._source = source
        self._target = target
        self._allowed = allowed_vertices
        self._prune_k = prune_k
        # External upper bound (see set_upper_bound); -inf is never used,
        # inf disables it.
        self._upper_bound = _INF
        # Snapshot fast path: spur searches run on the array kernel without
        # converting labelled sets back to dictionaries.  The deviation
        # bookkeeping (and therefore the produced paths) is identical.
        self._snapshot = graph if isinstance(graph, CSRSnapshot) else None
        self._allowed_idx: Optional[Set[int]] = None
        if self._snapshot is not None and allowed_vertices is not None:
            index_of = self._snapshot.index_of
            self._allowed_idx = {
                index_of[v] for v in allowed_vertices if v in index_of
            }
        # Per-index lower bounds to the target (snapshot only): the
        # override's now, or the ``settled`` array of the enumerator's own
        # reverse search, created the first time a bound is needed and
        # extended to every loosened prune bound after that (_prune_bound).
        self._bounds: Optional[Sequence[float]] = None
        self._reverse: Optional[ResumableSearch] = None
        self._self_bounding = self._snapshot is not None and heuristic is None
        if self._snapshot is not None and heuristic is not None:
            self._bounds = heuristic.bounds_to(target)
        # An ``allowed`` restriction can make the first path longer than
        # the reverse search's h(source), so it keeps the unbounded search.
        self._bound_first = (
            self._self_bounding
            and allowed_vertices is None
            and (bounded or (prune_k or 0) >= 2)
        )
        self._found: List[Path] = []
        self._candidates: List[Tuple[float, Tuple[int, ...]]] = []
        self._candidate_set: Set[Tuple[int, ...]] = set()
        # Lawler's optimisation: remember at which prefix index each found
        # path deviated from its parent, so new deviations only need to be
        # generated from that index onwards.
        self._deviation_index: dict = {}
        self._exhausted = False

    @property
    def found_paths(self) -> List[Path]:
        """Paths produced so far, in increasing distance order."""
        return list(self._found)

    def set_upper_bound(self, bound: float) -> None:
        """Install an external upper bound on useful path distances.

        Contract: the caller promises that paths with distance **strictly
        greater** than ``bound`` will never be consumed — the enumerator is
        then free to never generate them (``next_path`` may raise
        :class:`StopIteration` earlier than the unpruned enumeration
        would).  KSP-DG uses the distance of its current k-th best complete
        candidate: by Theorem 3 the iteration stops at the first reference
        path at least that long, so longer reference paths are dead weight.
        Pass ``float("inf")`` to lift the bound.
        """
        self._upper_bound = bound

    def __iter__(self) -> Iterator[Path]:
        return self

    def __next__(self) -> Path:
        return self.next_path()

    def next_path(self) -> Path:
        """Return the next shortest simple path.

        Raises
        ------
        StopIteration
            When every simple path between the endpoints has been produced.
        PathNotFoundError
            When the endpoints are disconnected (only on the first call).
        """
        if self._exhausted:
            raise StopIteration
        if not self._found:
            first = self._first_path()
            self._found.append(first)
            return first

        previous = self._found[-1]
        self._generate_candidates_from(previous)
        found_vertices = {path.vertices for path in self._found}
        while self._candidates:
            distance, vertices = heapq.heappop(self._candidates)
            if vertices in found_vertices:
                continue
            path = Path(distance, vertices)
            self._found.append(path)
            return path
        self._exhausted = True
        raise StopIteration

    def _first_path(self) -> Path:
        """The shortest path, under a bound when the enumeration promised one.

        The bounded kernel keeps plain Dijkstra's relaxation order, so it
        returns the path :func:`~repro.algorithms.dijkstra.shortest_path`
        returns while settling only what can lie on a shortest path.
        """
        if not self._bound_first or self._source not in self._snapshot.index_of:
            return shortest_path(
                self._graph, self._source, self._target, allowed_vertices=self._allowed
            )
        search = self._reverse_search()
        distance = _INF
        if search is not None:
            distance = search.extend(_INF, stop=self._snapshot.index_of[self._source])
        if distance == _INF:
            raise PathNotFoundError(self._source, self._target)
        radius = distance + distance * PRUNE_SLACK
        search.extend(radius)
        distance, vertices = self._spur_search(self._source, set(), set(), radius)
        return Path(distance, tuple(vertices))

    def _reverse_search(self) -> Optional[ResumableSearch]:
        """The enumerator's own search from the target (``None`` when the
        target is not in the snapshot), created on first use."""
        if self._reverse is None:
            self._reverse = self._snapshot.reverse_search(self._target)
            if self._reverse is not None:
                self._bounds = self._reverse.settled
        return self._reverse

    def _prune_bound(self) -> float:
        """Current upper bound on the distance of a *useful* new candidate.

        Combines the external bound (:meth:`set_upper_bound`) with the
        ``prune_k`` bound: once found-plus-candidates hold at least
        ``prune_k`` distinct paths, the ``prune_k``-th best distance among
        them bounds everything the caller can still consume.  Candidates
        duplicating an already-found path are excluded (they will be
        skipped on pop), so the bound is never too tight.  Ties survive:
        every pruning test downstream uses *strictly greater than*, with
        :data:`PRUNE_SLACK` to spare.

        On a snapshot the enumerator's reverse search is extended to the
        loosened bound here, so every vertex a cutoff derived from it could
        keep carries its exact distance left; the first finite bound is when
        a search not started for the first path starts.
        """
        bound = self._upper_bound
        k = self._prune_k
        remaining = 0 if k is None else k - len(self._found)
        # remaining <= 0 with a prune_k is a contract violation (more paths
        # requested than promised): stop tightening rather than over-prune.
        if remaining > 0:
            found_vertices = {path.vertices for path in self._found}
            fresh = [
                distance
                for distance, vertices in self._candidates
                if vertices not in found_vertices
            ]
            if len(fresh) >= remaining:
                kth = heapq.nsmallest(remaining, fresh)[-1]
                if kth < bound:
                    bound = kth
        if bound != _INF and self._self_bounding:
            search = self._reverse_search()
            if search is not None:
                search.extend(bound + bound * PRUNE_SLACK)
        return bound

    def _bound_at(self, vertex: int) -> float:
        """Admissible lower bound of the distance from ``vertex`` to the target."""
        if self._bounds is None or self._snapshot is None:
            return 0.0
        index = self._snapshot.index_of.get(vertex)
        if index is None:
            return 0.0
        return self._bounds[index]

    def _generate_candidates_from(self, previous: Path) -> None:
        """Generate deviation candidates from the most recent result path.

        Applies Lawler's optimisation: deviations at prefix indexes before the
        point where ``previous`` itself deviated from its parent were already
        generated when the parent was expanded, so they are skipped.  With a
        finite prune bound, deviations that provably cannot beat the current
        k-th best path are skipped entirely, and the remaining spur searches
        run with an upper-bound cutoff.  The bound is re-derived inside the
        round whenever a pushed candidate can lower it — it lands below the
        bound, or it completes the first ``prune_k`` known paths — so the
        very first round stops being cutoff-free as soon as it can.
        """
        previous_vertices = previous.vertices
        first_spur_index = self._deviation_index.get(previous.vertices, 0)
        root_distances = prefix_weights(self._graph, previous_vertices)
        tightens = self._prune_k is not None
        bound = self._prune_bound()
        for spur_index in range(first_spur_index, len(previous_vertices) - 1):
            root = previous_vertices[: spur_index + 1]
            spur_vertex = previous_vertices[spur_index]
            root_distance = root_distances[spur_index]
            cutoff = _INF
            if bound != _INF:
                loosened = bound + bound * PRUNE_SLACK
                if root_distance + self._bound_at(spur_vertex) > loosened:
                    continue
                cutoff = loosened - root_distance
            banned_edges: Set[Tuple[int, int]] = set()
            for path in self._found:
                if path.vertices[: spur_index + 1] == root and len(path.vertices) > spur_index + 1:
                    u, v = path.vertices[spur_index], path.vertices[spur_index + 1]
                    banned_edges.add((u, v))
                    banned_edges.add((v, u))
            banned_vertices = set(root[:-1])
            spur = self._spur_search(spur_vertex, banned_vertices, banned_edges, cutoff)
            if spur is None:
                continue
            spur_distance, spur_vertices = spur
            total_vertices = root[:-1] + tuple(spur_vertices)
            if len(set(total_vertices)) != len(total_vertices):
                continue
            if total_vertices in self._candidate_set:
                continue
            total_distance = root_distance + spur_distance
            self._candidate_set.add(total_vertices)
            self._deviation_index.setdefault(total_vertices, spur_index)
            heapq.heappush(self._candidates, (total_distance, total_vertices))
            if tightens and total_distance < bound:
                bound = self._prune_bound()

    def _spur_search(
        self,
        spur_vertex: int,
        banned_vertices: Set[int],
        banned_edges: Set[Tuple[int, int]],
        cutoff: float = _INF,
    ) -> Optional[Tuple[float, List[int]]]:
        """Best spur path from ``spur_vertex`` to the target, or ``None``.

        Returns ``(spur_distance, spur_vertex_sequence)``.  On a snapshot
        the search stays in index space end to end; otherwise the generic
        :func:`~repro.algorithms.dijkstra.dijkstra` runs and the result
        dictionaries are walked as before.  Under a finite ``cutoff`` spur
        paths longer than it are reported as missing, which is exactly how
        the caller treats them.
        """
        snapshot = self._snapshot
        if snapshot is None:
            distances, predecessors = dijkstra(
                self._graph,
                spur_vertex,
                target=self._target,
                allowed_vertices=self._allowed,
                banned_vertices=banned_vertices,
                banned_edges=banned_edges,
                cutoff=None if cutoff == _INF else cutoff,
            )
            if self._target not in distances:
                return None
            spur_vertices = [self._target]
            while spur_vertices[-1] != spur_vertex:
                spur_vertices.append(predecessors[spur_vertices[-1]])
            spur_vertices.reverse()
            return distances[self._target], spur_vertices
        index_of = snapshot.index_of
        target_index = index_of.get(self._target)
        if target_index is None:
            return None
        spur_index_pos = index_of[spur_vertex]
        banned_idx = {index_of[v] for v in banned_vertices if v in index_of}
        banned_pairs = {
            (index_of[u], index_of[v])
            for u, v in banned_edges
            if u in index_of and v in index_of
        }
        dist, pred, found, _ = bounded_dijkstra_arrays(
            snapshot.rows,
            len(snapshot.ids),
            spur_index_pos,
            target_index,
            bounds=self._bounds,
            cutoff=cutoff,
            allowed=self._allowed_idx,
            banned_vertices=banned_idx or None,
            banned_pairs=banned_pairs or None,
        )
        if not found:
            return None
        sequence = reconstruct_indices(pred, spur_index_pos, target_index)
        get_id = snapshot.ids.__getitem__
        return dist[target_index], list(map(get_id, sequence))


def yen_k_shortest_paths(
    graph,
    source: int,
    target: int,
    k: int,
    allowed_vertices: Optional[Set[int]] = None,
    prune: bool = True,
) -> List[Path]:
    """Compute the ``k`` shortest simple paths from ``source`` to ``target``.

    Fewer than ``k`` paths are returned when the graph does not contain ``k``
    distinct simple paths between the endpoints.  Raises
    :class:`~repro.graph.errors.PathNotFoundError` when the endpoints are
    disconnected and :class:`~repro.graph.errors.QueryError` for ``k <= 0``.

    ``prune`` (default on) enables upper-bound pruning of the spur searches
    — on a snapshot with the distance-to-target bounds the enumerator
    computes for itself, first path included (see :class:`LazyYen`);
    output is bit-identical either way, and ``prune=False``, which never
    computes a bound, exists for benchmarking the unpruned baseline.
    """
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    enumerator = LazyYen(
        graph,
        source,
        target,
        allowed_vertices=allowed_vertices,
        prune_k=k if prune else None,
    )
    paths: List[Path] = []
    for _ in range(k):
        try:
            paths.append(enumerator.next_path())
        except StopIteration:
            break
    return paths
