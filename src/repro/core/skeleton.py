"""Skeleton graph: the second level of the DTLP index.

The skeleton graph ``G_lambda`` (Section 3.6) contains every boundary vertex
of every subgraph.  Two boundary vertices are connected by an edge if and
only if they co-occur in at least one subgraph; the edge weight is the
*minimum lower bound distance* over those subgraphs.  The skeleton graph is
small relative to the original graph and is replicated to every worker;
KSP-DG uses it to compute reference paths that guide the search.

The class supports *augmentation* for query processing (Section 5.3): when a
query's source or destination is not a boundary vertex, a temporary copy of
the skeleton graph is created with the endpoint attached to the boundary
vertices of its subgraph.  :meth:`SkeletonGraph.augmented` returns such a
copy without mutating the shared instance; it is the reference tier.

:class:`SkeletonSearchView` is the array-kernel counterpart: an image of the
shared skeleton snapshot built once per weight epoch, over which each query
lays its endpoints in O(|V|) pointer copies instead of copying and
re-flattening every skeleton edge, and which prices the exact distance to
the query target as the lower bound of the reference-path searches.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..graph.errors import EdgeNotFoundError, VertexNotFoundError
from ..graph.graph import edge_key
from ..kernel.snapshot import CSRSnapshot

__all__ = ["SkeletonGraph", "SkeletonSearchView"]


class SkeletonGraph:
    """A small weighted graph over boundary vertices.

    The interface intentionally mirrors the ``neighbors`` protocol of
    :class:`~repro.graph.graph.DynamicGraph` so the generic shortest-path
    algorithms (Dijkstra, Yen) run on it unchanged.

    Parameters
    ----------
    directed:
        When ``True`` edges keep their orientation (used for directed road
        networks, Section 5.3).
    """

    def __init__(self, directed: bool = False) -> None:
        self._directed = directed
        self._adjacency: Dict[int, Dict[int, float]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def directed(self) -> bool:
        """Whether the skeleton graph is directed."""
        return self._directed

    def add_vertex(self, vertex: int) -> None:
        """Insert an isolated vertex (no-op when present)."""
        self._adjacency.setdefault(vertex, {})

    def set_edge(self, u: int, v: int, weight: float) -> None:
        """Insert or overwrite the edge ``(u, v)`` with ``weight``."""
        self.add_vertex(u)
        self.add_vertex(v)
        self._adjacency[u][v] = weight
        if not self._directed:
            self._adjacency[v][u] = weight

    def update_edge_minimum(self, u: int, v: int, weight: float) -> None:
        """Set the edge weight to the minimum of the current and new value.

        Used when aggregating lower bound distances across subgraphs: the
        skeleton edge weight is the *minimum* lower bound distance over all
        subgraphs containing both endpoints.
        """
        current = self._adjacency.get(u, {}).get(v)
        if current is None or weight < current:
            self.set_edge(u, v, weight)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (boundary vertices plus any augmented endpoints)."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        total = sum(len(nbrs) for nbrs in self._adjacency.values())
        return total if self._directed else total // 2

    def vertices(self) -> Iterator[int]:
        """Iterate over all vertices."""
        return iter(self._adjacency)

    def has_vertex(self, vertex: int) -> bool:
        """Return ``True`` when ``vertex`` is in the skeleton graph."""
        return vertex in self._adjacency

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the edge ``(u, v)`` exists."""
        return u in self._adjacency and v in self._adjacency[u]

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``."""
        return self._adjacency[u][v]

    def neighbors(self, vertex: int) -> Mapping[int, float]:
        """Neighbour → weight mapping, compatible with the Dijkstra adapter."""
        try:
            return self._adjacency[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over edges as ``(u, v, weight)`` (once per undirected edge)."""
        seen = set()
        for u, nbrs in self._adjacency.items():
            for v, weight in nbrs.items():
                key = (u, v) if self._directed else edge_key(u, v)
                if key in seen:
                    continue
                seen.add(key)
                yield key[0], key[1], weight

    def copy(self) -> "SkeletonGraph":
        """Return a deep copy (used to build per-query augmented skeletons)."""
        clone = SkeletonGraph(directed=self._directed)
        clone._adjacency = {v: dict(nbrs) for v, nbrs in self._adjacency.items()}
        return clone

    def augmented(
        self,
        attachments: Mapping[int, Mapping[int, float]],
    ) -> "SkeletonGraph":
        """Return a copy with extra vertices attached.

        Parameters
        ----------
        attachments:
            Mapping from new vertex to its ``{boundary_vertex: weight}``
            edges.  This is how non-boundary query endpoints are temporarily
            added to the skeleton graph (Section 5.3).  Attaching a vertex
            that already exists simply adds the extra edges.
        """
        clone = self.copy()
        for vertex, edges in attachments.items():
            clone.add_vertex(vertex)
            for boundary, weight in edges.items():
                clone.update_edge_minimum(vertex, boundary, weight)
                if self._directed:
                    clone.update_edge_minimum(boundary, vertex, weight)
        return clone

    def memory_estimate_bytes(self) -> int:
        """Rough memory footprint (24 bytes per directed adjacency entry)."""
        return sum(len(nbrs) for nbrs in self._adjacency.values()) * 24 + len(self._adjacency) * 16

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SkeletonGraph |V|={self.num_vertices} |E|={self.num_edges}>"


#: Index-space stride of the per-epoch skeleton image: the base vertex of
#: rank ``r`` sits at index ``3r + 2``, leaving two free slots below it (and
#: two after the last one) — room for both query endpoints in sorted-id
#: position, even when they fall into the same gap.
_IMAGE_STRIDE = 3

_Row = Tuple[Tuple[int, float], ...]


def _with_arc(row: _Row, neighbor: int, weight: float, exists: bool) -> _Row:
    """``row`` with the arc to ``neighbor`` set the way a dict assignment would:
    an existing arc keeps its position, a new one goes last."""
    if exists:
        return tuple((n, weight if n == neighbor else w) for n, w in row)
    return row + ((neighbor, weight),)


class SkeletonSearchView(CSRSnapshot):
    """Search-only kernel view of a skeleton snapshot plus attached endpoints.

    Built from the shared skeleton snapshot once per weight epoch, spread
    over a gapped index space (see :data:`_IMAGE_STRIDE`); :meth:`overlay`
    then derives the
    per-query view of "skeleton + attached endpoints" by copying the row
    list shallowly and rewriting only the rows the attachments touch.

    Identity contract: an overlay searches exactly like
    ``CSRSnapshot(skeleton.augmented(attachments))`` — index order is id
    order (slots are handed out in sorted-id position) and row order is
    adjacency insertion order (new arcs last, lowered arcs in place) — so
    heap tie-breaks, predecessor choices and therefore reference paths
    repeat bit for bit.  ``tests/test_skeleton_overlay.py`` pins this down.

    Only what the search kernels read is materialised: ``ids`` (``None`` in
    free slots), ``index_of``, ``rows`` and ``weight``; the flat CSR arrays
    of the base class are never built, so ``num_vertices`` / ``len`` report
    the size of the index space, not the vertex count.

    The view doubles as its own lower-bound provider: the inherited
    :meth:`~repro.kernel.snapshot.CSRSnapshot.reverse_search` searches the
    rows above, or the transposed rows each overlay keeps current when
    directed.
    """

    __slots__ = ("_base_ids", "_arcs", "_patch", "_reverse_rows")

    def __init__(self, snapshot: CSRSnapshot) -> None:
        # Deliberately not calling CSRSnapshot.__init__: it would flatten a
        # graph-like source, which is the per-query cost this class removes.
        stride = _IMAGE_STRIDE
        offset = stride - 1
        base_ids = snapshot.ids
        size = stride * len(base_ids) + offset
        self._source = snapshot
        self._weights_epoch = snapshot.weights_epoch
        self.directed = snapshot.directed
        self._base_ids = base_ids
        ids: List[Optional[int]] = [None] * size
        ids[offset::stride] = base_ids
        self.ids = ids
        self.index_of = {
            vid: stride * rank + offset for rank, vid in enumerate(base_ids)
        }
        rows: List[_Row] = [()] * size
        rows[offset::stride] = [
            tuple((stride * j + offset, w) for j, w in row) for row in snapshot.rows
        ]
        self.rows = rows
        # (u_index, v_index) -> weight of every base arc, shared by all
        # overlays of this image; an overlay's own arcs live in ``_patch``.
        self._arcs: Dict[Tuple[int, int], float] = {
            (ui, vi): w for ui, row in enumerate(rows) for vi, w in row
        }
        self._patch: Dict[Tuple[int, int], float] = {}
        self._reverse_rows: Optional[List[_Row]] = None
        if self.directed:
            transposed: List[List[Tuple[int, float]]] = [[] for _ in range(size)]
            for ui, row in enumerate(rows):
                for vi, w in row:
                    transposed[vi].append((ui, w))
            self._reverse_rows = [tuple(row) for row in transposed]

    # ------------------------------------------------------------------
    # per-query overlay (Section 5.3)
    # ------------------------------------------------------------------
    def overlay(
        self,
        attachments: Mapping[int, Mapping[int, float]],
        direct_edge: Optional[Tuple[int, int, float]] = None,
    ) -> Optional["SkeletonSearchView"]:
        """This view with ``attachments`` (and ``direct_edge``) applied.

        Mirrors :meth:`SkeletonGraph.augmented` followed by
        ``update_edge_minimum(*direct_edge)`` operation for operation.
        Returns ``None`` when the vertices to add do not fit the free slots
        of their id gap (more than two between two base vertices); the
        caller then rebuilds instead of approximating.
        """
        mentioned = set(attachments)
        for edges in attachments.values():
            mentioned.update(edges)
        if direct_edge is not None:
            mentioned.update(direct_edge[:2])
        ids = list(self.ids)
        index_of = dict(self.index_of)
        previous_slot = -1
        for vertex in sorted(mentioned.difference(index_of)):
            slot = max(
                _IMAGE_STRIDE * bisect_left(self._base_ids, vertex), previous_slot + 1
            )
            if slot >= len(ids) or ids[slot] is not None:
                return None
            ids[slot] = vertex
            index_of[vertex] = slot
            previous_slot = slot
        view = copy.copy(self)  # shares the per-epoch parts: base ids, arcs
        view.ids = ids
        view.index_of = index_of
        view.rows = list(self.rows)
        view._patch = dict(self._patch)
        if self._reverse_rows is not None:
            view._reverse_rows = list(self._reverse_rows)
        for vertex, edges in attachments.items():
            for boundary, weight in edges.items():
                view._update_minimum(vertex, boundary, weight)
                if view.directed:
                    view._update_minimum(boundary, vertex, weight)
        if direct_edge is not None:
            view._update_minimum(*direct_edge)
        return view

    def _arc_weight(self, key: Tuple[int, int]) -> Optional[float]:
        value = self._patch.get(key)
        return self._arcs.get(key) if value is None else value

    def _update_minimum(self, u: int, v: int, weight: float) -> None:
        """:meth:`SkeletonGraph.update_edge_minimum` on this view's rows."""
        ui, vi = self.index_of[u], self.index_of[v]
        current = self._arc_weight((ui, vi))
        if current is None or weight < current:
            weight = float(weight)
            self._set_arc(ui, vi, weight)
            if not self.directed:
                self._set_arc(vi, ui, weight)

    def _set_arc(self, ui: int, vi: int, weight: float) -> None:
        exists = self._arc_weight((ui, vi)) is not None
        self._patch[(ui, vi)] = weight
        self.rows[ui] = _with_arc(self.rows[ui], vi, weight, exists)
        if self._reverse_rows is not None:
            self._reverse_rows[vi] = _with_arc(
                self._reverse_rows[vi], ui, weight, exists
            )

    # ------------------------------------------------------------------
    # what the search kernels and Yen's bookkeeping read
    # ------------------------------------------------------------------
    def vertices(self) -> Iterator[int]:
        """Iterate over the vertex ids (free slots skipped)."""
        return iter(self.index_of)

    def neighbors(self, vertex: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(neighbour_id, weight)`` pairs (graph-like protocol)."""
        try:
            row = self.rows[self.index_of[vertex]]
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        ids = self.ids
        for j, w in row:
            yield ids[j], w

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the arc ``(u, v)`` is in the view."""
        index_of = self.index_of
        if u not in index_of or v not in index_of:
            return False
        return self._arc_weight((index_of[u], index_of[v])) is not None

    def weight(self, u: int, v: int) -> float:
        """Current weight of arc ``(u, v)`` — O(1)."""
        index_of = self.index_of
        try:
            value = self._arc_weight((index_of[u], index_of[v]))
        except KeyError:
            raise EdgeNotFoundError(u, v) from None
        if value is None:
            raise EdgeNotFoundError(u, v)
        return value

    def _rows_towards(self) -> List[_Row]:
        """The transposed rows every overlay keeps current (directed only)."""
        return self.rows if self._reverse_rows is None else self._reverse_rows
