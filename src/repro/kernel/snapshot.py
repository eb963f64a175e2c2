"""Compact array-backed graph snapshots (the ``CSR`` kernel representation).

A :class:`CSRSnapshot` freezes the *topology* of a graph-like object into
index space while keeping the *weights* cheaply refreshable:

* ``ids`` — sorted vertex-id interning table (index → original id).  Sorting
  makes the id → index mapping order-isomorphic, so heap tie-breaking inside
  the kernel primitives matches the dict-based reference algorithms exactly
  and both produce bit-identical results.
* ``rows`` — the adjacency, and the one copy of every arc weight: the arcs
  of interned vertex ``i`` are ``rows[i]``, a list of ``(neighbour_index,
  weight)`` pairs in the source object's ``neighbors`` iteration order,
  which keeps relaxation order (and therefore predecessor choice on ties)
  identical to the reference implementation.
* no per-arc map: a directed ``(u, v) →`` weight lookup (Yen's root
  pricing, edge-ban translation, weight refresh) scans ``u``'s row for
  ``v`` — a road vertex's handful of arcs, where a dict of every arc cost
  46% of a subgraph snapshot.

Snapshots model the paper's dynamics: topology is fixed, weights change.
:meth:`CSRSnapshot.apply_changes` is the one writer: it rewrites arcs by
``(row, offset in row)``.  An arc's address is a function of the source's
topology alone (:meth:`CSRSnapshot.arc_positions`), so the DTLP computes
every arc's once per built index and hands each of its subgraph snapshots
the addresses and weights a round moved.  :meth:`CSRSnapshot.refresh` pulls
in weight changes for a stand-alone snapshot, keyed off the per-edge
version counters of :class:`~repro.graph.graph.DynamicGraph`
(``edges_changed_since``), so a long-lived consumer (the serving loop)
refreshes in O(changed edges) instead of rebuilding in O(V + E).  Sources
without version counters fall back to a full weight re-read.  See
``ARCHITECTURE.md`` for where snapshots sit in the layer stack and when to
prefer them over the dict-based reference path.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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


def _arc_order(source) -> Iterator[Tuple[int, Iterator[Tuple[int, float]]]]:
    """The one arc order of a snapshot: a row per vertex in sorted-id
    order, each row's ``(neighbour, weight)`` pairs in the source's own
    ``neighbors`` order.  An arc's ``(row, offset)`` counts in this order,
    for the constructor and for :meth:`CSRSnapshot.arc_positions` alike."""
    for vid in sorted(_vertex_iterable(source)):
        yield vid, _neighbor_pairs(source, vid)


class CSRSnapshot:
    """An index-space view of a graph-like object for the kernel primitives.

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
        ids: List[int] = []
        arcs: List[List[Tuple[int, float]]] = []
        for vid, pairs in _arc_order(source):
            ids.append(vid)
            arcs.append([(neighbor, float(weight)) for neighbor, weight in pairs])
        self.ids = ids
        index_of: Dict[int, int] = {vid: i for i, vid in enumerate(ids)}
        self.index_of = index_of
        # The kernel's inner loop reads rows[i]: the (neighbour_index,
        # weight) pairs of vertex i; a weight write replaces its one pair.
        self.rows: List[List[Tuple[int, float]]] = [
            [(index_of[neighbor], weight) for neighbor, weight in row] for row in arcs
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

    @staticmethod
    def arc_positions(source) -> Iterator[Tuple[int, int, int, int]]:
        """``(u, v, row, offset in row)`` of every arc of the snapshot of
        ``source``, without building it: the constructor's walk
        (:func:`_arc_order`), keeping nothing."""
        for row, (u, pairs) in enumerate(_arc_order(source)):
            for offset, (v, _) in enumerate(pairs):
                yield u, v, row, offset

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
    def num_vertices(self) -> int:
        """Number of vertices in the snapshot."""
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        """Number of edges (arcs for directed snapshots)."""
        arcs = sum(map(len, self.rows))
        return arcs if self.directed else arcs // 2

    def vertices(self) -> Iterator[int]:
        """Iterate over the original vertex ids."""
        return iter(self.ids)

    def has_vertex(self, vertex: int) -> bool:
        """Return ``True`` when ``vertex`` is in the snapshot."""
        return vertex in self.index_of

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the arc ``(u, v)`` is in the snapshot."""
        return self._arc(u, v) is not None

    def _arc(self, u: int, v: int) -> Optional[Tuple[int, int]]:
        """``(row, offset)`` of the directed arc ``(u, v)``: ``v`` found in
        ``u``'s row, or ``None``."""
        index_of = self.index_of
        ui = index_of.get(u)
        vi = index_of.get(v)
        if ui is None or vi is None:
            return None
        for offset, (j, _) in enumerate(self.rows[ui]):
            if j == vi:
                return ui, offset
        return None

    def neighbors(self, vertex: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(neighbour_id, weight)`` pairs (graph-like protocol)."""
        try:
            row = self.rows[self.index_of[vertex]]
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        ids = self.ids
        for j, w in row:
            yield ids[j], w

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def weight(self, u: int, v: int) -> float:
        """Current snapshot weight of arc ``(u, v)``, found in ``u``'s row."""
        arc = self._arc(u, v)
        if arc is None:
            raise EdgeNotFoundError(u, v)
        row, offset = arc
        return self.rows[row][offset][1]

    def path_distance(self, vertices) -> float:
        """Distance of a path under the snapshot's current weights."""
        total = 0.0
        for index in range(len(vertices) - 1):
            total += self.weight(vertices[index], vertices[index + 1])
        return total

    # ------------------------------------------------------------------
    # refresh
    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Pull weight changes from the source; returns arcs rewritten.

        A no-op when a versioned source did not move; otherwise one walk of
        the *whole graph's* change list since the snapshot's version, of
        which the arcs held here are rewritten — right for one stand-alone
        snapshot; a set of them should share the walk, as the DTLP does for
        its subgraph snapshots.  Unversioned sources re-read every arc
        weight.  Topology changes are *not* picked up: a versioned source
        that gained a vertex or an edge since the build raises
        :class:`StaleStructureError`.
        """
        versioned = self._version_source
        if versioned is None:
            source_weight = self._source.weight
            ids = self.ids
            changes = []
            for ui, row in enumerate(self.rows):
                u = ids[ui]
                for offset, (vi, weight) in enumerate(row):
                    value = source_weight(u, ids[vi])
                    if value != weight:
                        changes.append((ui, offset, value))
            return self.apply_changes(changes, self._built_version)
        if versioned.structure_version != self._built_structure_version:
            raise StaleStructureError(
                "vertices or edges were added to the graph after this "
                "CSRSnapshot was built; build a fresh CSRSnapshot"
            )
        current = versioned.version
        if current == self._built_version:
            return 0
        return self.apply_changes(
            self._addressed(versioned.edges_changed_since(self._built_version)),
            current,
        )

    def _addressed(
        self, changes: Iterable[Tuple[int, int, float]]
    ) -> Iterator[Tuple[int, int, float]]:
        """``(row, offset, weight)`` of the held arcs of ``(u, v, weight)``
        changes: ``v`` found in ``u``'s row, and ``u`` in ``v``'s when
        undirected."""
        find = self._arc
        for u, v, weight in changes:
            arc = find(u, v)
            if arc is not None:
                yield arc[0], arc[1], weight
            if not self.directed:
                arc = find(v, u)
                if arc is not None:
                    yield arc[0], arc[1], weight

    def apply_changes(self, changes: Iterable[Tuple[int, int, float]], version: int) -> int:
        """Rewrite arcs by address; returns arcs rewritten.

        The one writer of snapshot weights.  ``changes`` iterates over
        ``(row, offset in row, weight)``; for a versioned source it must
        cover every arc held here that changed up to ``version``, which
        becomes the snapshot's.  Each arc's pair in its row is replaced in
        place; ``_weights_epoch`` advances iff an arc was rewritten.
        """
        rows = self.rows
        rewritten = 0
        for row, offset, weight in changes:
            arcs = rows[row]
            arcs[offset] = (arcs[offset][0], weight)
            rewritten += 1
        self._built_version = version
        if rewritten:
            self._weights_epoch += 1
        return rewritten

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
        return CSRSnapshot(ReversedView(self))

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


class ReversedView:
    """Minimal graph-like adapter presenting any graph-like source with every
    arc reversed: ``neighbors(v)`` lists the arcs into ``v``, by source
    vertex in sorted-id order and then in that vertex's ``neighbors``
    order — the order of :meth:`CSRSnapshot.reverse_search`'s transposed
    rows, so a search over either relaxes alike."""

    def __init__(self, source) -> None:
        self.directed = True
        reversed_adjacency: Dict[int, List[Tuple[int, float]]] = {
            vid: [] for vid in sorted(_vertex_iterable(source))
        }
        for vid, pairs in _arc_order(source):
            for neighbor, weight in pairs:
                reversed_adjacency[neighbor].append((vid, weight))
        self._adjacency = reversed_adjacency

    @property
    def vertices(self):
        return list(self._adjacency)

    def neighbors(self, vertex: int):
        return iter(self._adjacency[vertex])
