"""Subgraphs produced by partitioning a dynamic graph.

A :class:`Subgraph` is a restriction of the parent :class:`~repro.graph.graph.DynamicGraph`
to a subset of vertices and edges (Definition 2 in the paper).  Subgraphs
resulting from the BFS partitioning share *boundary vertices* with other
subgraphs but never share edges.  Each subgraph knows:

* its id within the partition,
* the set of vertices and edges assigned to it,
* which of its vertices are boundary vertices,
* the multiset of unit weights of its edges, kept sorted so bound distances
  (sums of the smallest unit weights, Section 3.4) can be computed quickly.

The subgraph does **not** copy weights; it reads them from the parent graph
so that weight updates are visible immediately.  This mirrors the paper's
deployment where each worker holds the live adjacency lists of its
subgraphs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import EdgeNotFoundError, VertexNotFoundError
from .graph import DynamicGraph, edge_key

__all__ = ["Subgraph"]


class Subgraph:
    """A vertex- and edge-subset of a parent dynamic graph.

    Parameters
    ----------
    subgraph_id:
        Identifier of this subgraph within its partition.
    parent:
        The graph the subgraph is carved out of.  Weights are always read
        from the parent, so the subgraph automatically reflects updates.
    vertices:
        Vertices assigned to this subgraph.
    edges:
        Edges assigned to this subgraph, as ``(u, v)`` pairs.  Both endpoints
        must be in ``vertices``.
    """

    def __init__(
        self,
        subgraph_id: int,
        parent: DynamicGraph,
        vertices: Iterable[int],
        edges: Iterable[Tuple[int, int]],
    ) -> None:
        self.subgraph_id = subgraph_id
        self._parent = parent
        self._vertices: Set[int] = set(vertices)
        self._edges: Set[Tuple[int, int]] = set()
        self._adjacency: Dict[int, List[int]] = {v: [] for v in self._vertices}
        for u, v in edges:
            if u not in self._vertices or v not in self._vertices:
                raise VertexNotFoundError(u if u not in self._vertices else v)
            key = (u, v) if parent.directed else edge_key(u, v)
            if key in self._edges:
                continue
            self._edges.add(key)
            self._adjacency[key[0]].append(key[1])
            if not parent.directed:
                self._adjacency[key[1]].append(key[0])
            else:
                # directed arcs keep their orientation only
                pass
        self._boundary: Set[int] = set()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def parent(self) -> DynamicGraph:
        """The graph this subgraph was carved from."""
        return self._parent

    @property
    def directed(self) -> bool:
        """Whether the parent (and therefore this subgraph) is directed."""
        return self._parent.directed

    @property
    def vertices(self) -> FrozenSet[int]:
        """The vertices assigned to this subgraph."""
        return frozenset(self._vertices)

    @property
    def edge_set(self) -> FrozenSet[Tuple[int, int]]:
        """The canonical edge keys assigned to this subgraph."""
        return frozenset(self._edges)

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the subgraph."""
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        """Number of edges in the subgraph."""
        return len(self._edges)

    @property
    def boundary_vertices(self) -> FrozenSet[int]:
        """Vertices shared with at least one other subgraph.

        The set is populated by :class:`~repro.graph.partition.GraphPartition`
        after all subgraphs have been created (a single subgraph cannot know
        on its own which of its vertices are shared).
        """
        return frozenset(self._boundary)

    def set_boundary_vertices(self, boundary: Iterable[int]) -> None:
        """Record which vertices of this subgraph are boundary vertices."""
        boundary_set = set(boundary)
        unknown = boundary_set - self._vertices
        if unknown:
            raise VertexNotFoundError(next(iter(unknown)))
        self._boundary = boundary_set

    def has_vertex(self, vertex: int) -> bool:
        """Return ``True`` when ``vertex`` belongs to this subgraph."""
        return vertex in self._vertices

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the edge ``(u, v)`` belongs to this subgraph."""
        key = (u, v) if self.directed else edge_key(u, v)
        return key in self._edges

    def neighbors(self, vertex: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(neighbour, current_weight)`` for edges inside the subgraph."""
        if vertex not in self._adjacency:
            raise VertexNotFoundError(vertex)
        for other in self._adjacency[vertex]:
            yield other, self._parent.weight(vertex, other)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over edges as ``(u, v, current_weight)``."""
        for u, v in self._edges:
            yield u, v, self._parent.weight(u, v)

    def weight(self, u: int, v: int) -> float:
        """Current weight of an edge of this subgraph."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._parent.weight(u, v)

    def vfrag_count(self, u: int, v: int) -> int:
        """Number of virtual fragments of an edge of this subgraph."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._parent.vfrag_count(u, v)

    def unit_weight(self, u: int, v: int) -> float:
        """Current unit weight (weight per vfrag) of an edge of this subgraph."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._parent.unit_weight(u, v)

    def path_distance(self, vertices: Sequence[int]) -> float:
        """Distance of a path that stays inside this subgraph.

        :meth:`weight` summed left to right, written as one loop; every edge
        is checked to belong to the subgraph.
        """
        edges = self._edges
        directed = self._parent.directed
        parent_weight = self._parent.weight
        total = 0.0
        for index in range(len(vertices) - 1):
            u = vertices[index]
            v = vertices[index + 1]
            if ((u, v) if directed or u <= v else (v, u)) not in edges:
                raise EdgeNotFoundError(u, v)
            total += parent_weight(u, v)
        return total

    # ------------------------------------------------------------------
    # unit-weight machinery for bound distances
    # ------------------------------------------------------------------
    def unit_weight_profile(self) -> List[Tuple[float, int]]:
        """Return the sorted multiset of unit weights as ``(unit_weight, count)``.

        Example 4 in the paper describes this profile: for SG'4 it is
        ``[(1/3, 3), (1/2, 4), (1, 8), (2, 3)]``.  The profile is recomputed
        from the parent's current weights on every call; the DTLP index
        caches it per maintenance batch.
        """
        counts: Dict[float, int] = {}
        for u, v in self._edges:
            unit = self._parent.unit_weight(u, v)
            counts[unit] = counts.get(unit, 0) + self._parent.vfrag_count(u, v)
        return sorted(counts.items())

    def smallest_unit_weight_sum(self, num_vfrags: int) -> float:
        """Sum of the ``num_vfrags`` smallest unit weights in this subgraph.

        This is the *bound distance* primitive of Section 3.4.  When the
        subgraph contains fewer vfrags than requested the sum of all of them
        is returned (the bound can only get looser, never incorrect).
        """
        remaining = num_vfrags
        total = 0.0
        for unit, count in self.unit_weight_profile():
            if remaining <= 0:
                break
            take = min(count, remaining)
            total += take * unit
            remaining -= take
        return total

    def total_vfrags(self) -> int:
        """Total number of virtual fragments across the subgraph's edges."""
        return sum(self._parent.vfrag_count(u, v) for u, v in self._edges)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Subgraph id={self.subgraph_id} |V|={self.num_vertices} "
            f"|E|={self.num_edges} |B|={len(self._boundary)}>"
        )


class SortedUnitWeights:
    """A subgraph's edges in index space, and its smallest unit weights.

    Edge ``i`` is the ``i``-th key of ``sorted(subgraph.edge_set)``, with its
    current weight and vfrag count.  :attr:`prefix` holds the sums of the
    smallest unit weights (one per vfrag) — the bound distances of Section
    3.4 — ``depth`` vfrags deep: a bounding path is simple, so no bound reads
    past the widest one.  :meth:`refresh` sorts per *edge* and adds one vfrag
    at a time: bit for bit the sums of the sorted per-vfrag list.
    """

    def __init__(self, subgraph: Subgraph, depth: Optional[int] = None) -> None:
        self._subgraph = subgraph
        parent = subgraph.parent
        keys = sorted(subgraph.edge_set)
        self.edge_ids: Dict[Tuple[int, int], int] = {key: i for i, key in enumerate(keys)}
        self.weights: List[float] = [parent.weight(u, v) for u, v in keys]
        self.vfrags: List[int] = [parent.vfrag_count(u, v) for u, v in keys]
        total = sum(self.vfrags)
        self.depth = total if depth is None else min(depth, total)
        self.prefix: List[float] = []
        self.refresh()

    def refresh(self) -> None:
        """Re-derive :attr:`prefix` from :attr:`weights`."""
        prefix = [0.0]
        total = 0.0
        need = self.depth
        for unit, count in sorted(
            # DynamicGraph.unit_weight, with the vfrag count at hand.
            (weight / count, count) for weight, count in zip(self.weights, self.vfrags)
        ):
            if need <= 0:
                break
            for _ in range(min(count, need)):
                total += unit
                prefix.append(total)
            need -= count
        self.prefix = prefix

    def update_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Read the current weights of ``edges`` from the parent, then
        :meth:`refresh`."""
        directed = self._subgraph.directed
        parent_weight = self._subgraph.parent.weight
        for u, v in edges:
            eid = self.edge_ids.get((u, v) if directed else edge_key(u, v))
            if eid is None:
                raise EdgeNotFoundError(u, v)
            self.weights[eid] = parent_weight(u, v)
        self.refresh()

    def rebind(self, subgraph: Subgraph) -> None:
        """Re-point at an equivalent subgraph (see ``SubgraphIndex.rebind``)."""
        self._subgraph = subgraph

    def smallest_sum(self, num_vfrags: int) -> float:
        """Sum of the smallest ``num_vfrags`` unit weights (at most
        :attr:`depth` of them)."""
        return self.prefix[max(0, min(num_vfrags, self.depth))]

    def __len__(self) -> int:
        return sum(self.vfrags)


__all__.append("SortedUnitWeights")
