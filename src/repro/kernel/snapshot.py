"""Compact array-backed graph snapshots (the ``CSR`` kernel representation).

A :class:`CSRSnapshot` freezes the *topology* of a graph-like object into
flat arrays while keeping the *weights* cheaply refreshable:

* ``ids`` — sorted vertex-id interning table (index → original id).  Sorting
  makes the id → index mapping order-isomorphic, so heap tie-breaking inside
  the kernel primitives matches the dict-based reference algorithms exactly
  and both produce bit-identical results.
* ``indptr`` / ``indices`` / ``weights`` — standard CSR adjacency: the
  neighbours of interned vertex ``i`` are
  ``indices[indptr[i]:indptr[i+1]]`` with parallel arc weights.  Row order
  preserves the source object's ``neighbors`` iteration order, which keeps
  relaxation order (and therefore predecessor choice on ties) identical to
  the reference implementation.
* no per-arc map: a directed ``(u, v) →`` weight lookup (Yen's root
  pricing, edge-ban translation, weight refresh) finds ``v`` in ``u``'s
  row with ``list.index`` — a C-speed scan of a road vertex's handful of
  arcs, where a dict of every arc cost 46% of a subgraph snapshot.

Snapshots model the paper's dynamics: topology is fixed, weights change.
:meth:`CSRSnapshot.refresh` pulls in weight changes incrementally, keyed off
the per-edge version counters of :class:`~repro.graph.graph.DynamicGraph`
(``edges_changed_since``), so a long-lived consumer (the serving loop)
refreshes in O(changed edges) instead of rebuilding in O(V + E); the DTLP
hands each of its per-subgraph snapshots its own share of that list through
:meth:`CSRSnapshot.apply_changes`.  Sources without version counters (the
skeleton graph) fall back to a full weight re-read, which is still cheap
because no structure is rebuilt.  See ``ARCHITECTURE.md`` for where
snapshots sit in the layer stack and when to prefer them over the
dict-based reference path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..graph.errors import EdgeNotFoundError, StaleStructureError, VertexNotFoundError
from ..graph.graph import DynamicGraph
from ..graph.subgraph import Subgraph
from .primitives import ResumableSearch

__all__ = ["CSRSnapshot"]


def _neighbor_pairs(source, vertex: int) -> Iterator[Tuple[int, float]]:
    """Neighbour pairs of ``vertex`` in the source's own iteration order."""
    result = source.neighbors(vertex)
    if isinstance(result, Mapping):
        return iter(result.items())
    return iter(result)


def _vertex_iterable(source) -> Iterator[int]:
    """Vertices of any graph-like (``vertices`` may be a method or property)."""
    vertices = source.vertices
    return iter(vertices() if callable(vertices) else vertices)


class CSRSnapshot:
    """A flat-array view of a graph-like object for the kernel primitives.

    Parameters
    ----------
    source:
        Any object exposing ``vertices`` (method or iterable property) and
        ``neighbors(vertex)`` (mapping or iterable of pairs):
        :class:`~repro.graph.graph.DynamicGraph`,
        :class:`~repro.graph.subgraph.Subgraph`,
        :class:`~repro.core.skeleton.SkeletonGraph`, …

    Notes
    -----
    The snapshot exposes the same ``neighbors`` protocol as the graph
    classes, so generic (non-kernel) code also runs on it unchanged; the
    point of the class, however, is that :func:`repro.algorithms.dijkstra.dijkstra`
    and Yen's algorithm recognise it and dispatch to the array kernel.
    It is also where a pruned Yen gets its lower bounds:
    :meth:`reverse_search` prices the exact distance of vertices to a
    target under the current weights, ring by ring and without keeping it.
    """

    __slots__ = (
        "ids",
        "index_of",
        "indptr",
        "indices",
        "weights",
        "rows",
        "directed",
        "_source",
        "_version_source",
        "_built_version",
        "_built_structure_version",
        "_weights_epoch",
    )

    def __init__(self, source) -> None:
        self._source = source
        self.directed: bool = bool(getattr(source, "directed", False))
        ids: List[int] = sorted(_vertex_iterable(source))
        self.ids = ids
        index_of: Dict[int, int] = {vid: i for i, vid in enumerate(ids)}
        self.index_of = index_of
        indptr: List[int] = [0]
        indices: List[int] = []
        weights: List[float] = []
        for vid in ids:
            for neighbor, weight in _neighbor_pairs(source, vid):
                indices.append(index_of[neighbor])
                weights.append(float(weight))
            indptr.append(len(indices))
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        # Derived per-vertex row view consumed by the kernel's inner loop:
        # rows[i] is a tuple of (neighbour_index, weight) pairs in CSR row
        # order.  Rebuilt per-vertex on refresh (tuples are immutable).
        self.rows: List[Tuple[Tuple[int, float], ...]] = [
            tuple(zip(indices[indptr[i]:indptr[i + 1]], weights[indptr[i]:indptr[i + 1]]))
            for i in range(len(ids))
        ]
        # Weight-refresh bookkeeping: incremental when the source carries
        # version counters (DynamicGraph directly, Subgraph via its parent),
        # full re-read otherwise (SkeletonGraph).
        if isinstance(source, Subgraph):
            self._version_source: Optional[DynamicGraph] = source.parent
        elif isinstance(source, DynamicGraph):
            self._version_source = source
        else:
            self._version_source = None
        self._built_version: int = (
            self._version_source.version if self._version_source is not None else 0
        )
        self._built_structure_version: int = (
            self._version_source.structure_version
            if self._version_source is not None
            else 0
        )
        self._weights_epoch: int = 0

    # ------------------------------------------------------------------
    # structure accessors
    # ------------------------------------------------------------------
    @property
    def source(self):
        """The graph-like object this snapshot was built from."""
        return self._source

    @property
    def version(self) -> int:
        """Source-graph version the current weights correspond to."""
        return self._built_version

    @property
    def weights_epoch(self) -> int:
        """Counter advanced every time :meth:`refresh` rewrote any weight.

        Unlike :attr:`version` (which tracks the *source graph's* version
        and advances even when none of the changed edges belong to this
        snapshot), the epoch moves only when this snapshot's weights
        actually changed — the invalidation key used by derived caches
        (the skeleton search image, partial-KSP memos).
        """
        return self._weights_epoch

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the snapshot."""
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        """Number of edges (arcs for directed snapshots)."""
        return len(self.indices) if self.directed else len(self.indices) // 2

    def vertices(self) -> Iterator[int]:
        """Iterate over the original vertex ids."""
        return iter(self.ids)

    def has_vertex(self, vertex: int) -> bool:
        """Return ``True`` when ``vertex`` is in the snapshot."""
        return vertex in self.index_of

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the arc ``(u, v)`` is in the snapshot."""
        return self.arc_position(u, v) is not None

    def arc_position(self, u: int, v: int) -> Optional[int]:
        """Flat-array position of the directed arc ``(u, v)``, or ``None``."""
        index_of = self.index_of
        ui = index_of.get(u)
        vi = index_of.get(v)
        if ui is None or vi is None:
            return None
        return self._find_arc(ui, vi)

    def _find_arc(self, ui: int, vi: int) -> Optional[int]:
        """Position of arc ``(ui, vi)`` in index space: ``vi`` in row ``ui``."""
        try:
            return self.indices.index(vi, self.indptr[ui], self.indptr[ui + 1])
        except ValueError:
            return None

    def neighbors(self, vertex: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(neighbour_id, weight)`` pairs (graph-like protocol)."""
        try:
            i = self.index_of[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        ids = self.ids
        indices = self.indices
        weights = self.weights
        for e in range(self.indptr[i], self.indptr[i + 1]):
            yield ids[indices[e]], weights[e]

    def degree(self, vertex: int) -> int:
        """Number of outgoing arcs of ``vertex``."""
        try:
            i = self.index_of[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        return self.indptr[i + 1] - self.indptr[i]

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def weight(self, u: int, v: int) -> float:
        """Current snapshot weight of arc ``(u, v)``, found in ``u``'s row."""
        pos = self.arc_position(u, v)
        if pos is None:
            raise EdgeNotFoundError(u, v)
        return self.weights[pos]

    def path_distance(self, vertices) -> float:
        """Distance of a path under the snapshot's current weights."""
        total = 0.0
        for index in range(len(vertices) - 1):
            total += self.weight(vertices[index], vertices[index + 1])
        return total

    # ------------------------------------------------------------------
    # refresh
    # ------------------------------------------------------------------
    def is_current(self) -> bool:
        """Whether the snapshot weights match the source's current version.

        Always ``False`` for unversioned sources (skeleton graphs), whose
        staleness cannot be detected cheaply.
        """
        if self._version_source is None:
            return False
        return self._version_source.version == self._built_version

    def refresh(self) -> int:
        """Pull weight changes from the source; returns arcs rewritten.

        A no-op when a versioned source did not move; otherwise one walk of
        the *whole graph's* change list since the snapshot's version, of
        which :meth:`apply_changes` keeps the arcs held here — right for one
        stand-alone snapshot; a set of them should share the walk, as
        :meth:`repro.core.dtlp.DTLP.subgraph_snapshot` does.  Unversioned
        sources re-read every arc weight.  Topology changes are *not*
        picked up: a versioned source that gained a vertex or an edge
        since the build raises :class:`StaleStructureError`.
        """
        versioned = self._version_source
        if versioned is None:
            weights = self.weights
            source_weight = self._source.weight
            ids = self.ids
            indices = self.indices
            indptr = self.indptr
            rewritten = 0
            changed_rows = set()
            for ui, u in enumerate(ids):
                for pos in range(indptr[ui], indptr[ui + 1]):
                    value = source_weight(u, ids[indices[pos]])
                    if value != weights[pos]:
                        weights[pos] = value
                        changed_rows.add(ui)
                        rewritten += 1
            self._rebuild_rows(changed_rows)
            if rewritten:
                self._weights_epoch += 1
            return rewritten
        if versioned.structure_version != self._built_structure_version:
            raise StaleStructureError(
                "vertices or edges were added to the graph after this "
                "CSRSnapshot was built; build a fresh CSRSnapshot"
            )
        current = versioned.version
        if current == self._built_version:
            return 0
        return self.apply_changes(
            versioned.edges_changed_since(self._built_version), current
        )

    def apply_changes(self, changes, version: int) -> int:
        """Rewrite the arcs of ``changes``; returns arcs rewritten.

        The one writer of versioned snapshots.  ``changes`` iterates over
        ``(u, v, weight)`` in the source graph's edge orientation and must
        cover every edge held here that changed up to ``version``, which
        becomes the snapshot's; edges not held are skipped.  Touched rows
        are rebuilt; :attr:`weights_epoch` advances iff an arc was rewritten.
        """
        weights = self.weights
        find_arc = self._find_arc
        index_of = self.index_of
        directed = self.directed
        rewritten = 0
        stale_rows = set()
        for u, v, weight in changes:
            ui = index_of.get(u)
            vi = index_of.get(v)
            if ui is None or vi is None:
                continue
            pos = find_arc(ui, vi)
            if pos is not None:
                weights[pos] = weight
                stale_rows.add(ui)
                rewritten += 1
            if not directed:
                pos = find_arc(vi, ui)
                if pos is not None:
                    weights[pos] = weight
                    stale_rows.add(vi)
                    rewritten += 1
        self._rebuild_rows(stale_rows)
        self._built_version = version
        if rewritten:
            self._weights_epoch += 1
        return rewritten

    def _rebuild_rows(self, row_indices) -> None:
        """Re-derive the row view of the given vertex indices from the CSR arrays."""
        indptr = self.indptr
        indices = self.indices
        weights = self.weights
        rows = self.rows
        for i in row_indices:
            rows[i] = tuple(
                zip(indices[indptr[i]:indptr[i + 1]], weights[indptr[i]:indptr[i + 1]])
            )

    # ------------------------------------------------------------------
    # lower bounds
    # ------------------------------------------------------------------
    def reverse_search(self, target: int) -> Optional[ResumableSearch]:
        """A resumable search from ``target`` against the arcs, or ``None``.

        Over the transposed rows when directed, so what it settles is each
        vertex's exact distance *to* ``target`` under the current weights —
        the tightest admissible lower bound, and one that stays admissible
        under Yen's bans and an ``allowed`` set because removing vertices
        or arcs only lengthens paths.  The search belongs to the caller (one
        pruned :class:`~repro.algorithms.yen.LazyYen`, which extends it only
        as far as its prune bound reaches) and dies with it, so it can never
        outlive the weights it was priced on.
        """
        target_index = self.index_of.get(target)
        if target_index is None:
            return None
        return ResumableSearch(self._rows_towards(), target_index)

    def bounds_to(self, target: int) -> Optional[List[float]]:
        """Exact per-index distances to ``target`` (``inf`` when unreachable).

        :meth:`reverse_search` run to completion; ``None`` when ``target``
        is not in the snapshot.
        """
        search = self.reverse_search(target)
        if search is None:
            return None
        search.extend(float("inf"))
        return search.settled

    def _rows_towards(self) -> Sequence[Sequence[Tuple[int, float]]]:
        """Rows of the transposed graph: ``rows`` itself unless directed."""
        rows = self.rows
        if not self.directed:
            return rows
        transposed: List[List[Tuple[int, float]]] = [[] for _ in rows]
        for ui, row in enumerate(rows):
            for vi, w in row:
                transposed[vi].append((ui, w))
        return transposed

    # ------------------------------------------------------------------
    # directed support
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRSnapshot":
        """Snapshot with every arc reversed (used by FindKSP's SPT build).

        For undirected snapshots the adjacency is symmetric, so ``self`` is
        returned unchanged.
        """
        if not self.directed:
            return self
        return CSRSnapshot(_ReversedView(self))

    def __contains__(self, vertex: object) -> bool:
        return vertex in self.index_of

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        return (
            f"<CSRSnapshot {kind} |V|={self.num_vertices} "
            f"|E|={self.num_edges} v{self._built_version}>"
        )


class _ReversedView:
    """Minimal graph-like adapter presenting a directed snapshot reversed."""

    def __init__(self, snapshot: CSRSnapshot) -> None:
        self._snapshot = snapshot
        self.directed = True
        reversed_adjacency: Dict[int, List[Tuple[int, float]]] = {
            vid: [] for vid in snapshot.ids
        }
        ids = snapshot.ids
        indptr = snapshot.indptr
        indices = snapshot.indices
        weights = snapshot.weights
        for i, vid in enumerate(ids):
            for e in range(indptr[i], indptr[i + 1]):
                reversed_adjacency[ids[indices[e]]].append((vid, weights[e]))
        self._adjacency = reversed_adjacency

    @property
    def vertices(self):
        return list(self._adjacency)

    def neighbors(self, vertex: int):
        return iter(self._adjacency[vertex])
