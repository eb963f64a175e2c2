"""Subgraphs produced by partitioning a dynamic graph.

A :class:`Subgraph` is a restriction of the parent :class:`~repro.graph.graph.DynamicGraph`
to a subset of vertices and edges (Definition 2 in the paper).  Subgraphs
resulting from the BFS partitioning share *boundary vertices* with other
subgraphs but never share edges.  Each subgraph knows:

* its id within the partition,
* the set of vertices and edges assigned to it,
* which of its vertices are boundary vertices.

Its vertices, edges, adjacency and boundary vertices form its
:class:`SubgraphTopology`, which never changes once the partition is made;
a :class:`Subgraph` is a view of one topology over one parent graph.

:class:`SortedUnitWeights` keeps the unit weights of a subgraph's edges
sorted, so bound distances (sums of the smallest unit weights, Section 3.4)
are prefix sums.

The subgraph does **not** copy weights; it reads them from the parent graph
so that weight updates are visible immediately.  This mirrors the paper's
deployment where each worker holds the live adjacency lists of its
subgraphs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from .errors import EdgeNotFoundError, VertexNotFoundError
from .graph import DynamicGraph, edge_key

__all__ = ["Subgraph", "SubgraphTopology"]


class SubgraphTopology(NamedTuple):
    """What a subgraph is, fixed at partition time: its vertices, canonical
    edge keys, adjacency (vertex -> neighbours, in the order the edges were
    given) and boundary vertices.

    Never written; :meth:`Subgraph.set_boundary_vertices` swaps in a new
    one.  Copies of a built DTLP in one process share it (see
    :class:`~repro.core.layout.IndexLayout`).
    """

    vertices: FrozenSet[int]
    edges: FrozenSet[Tuple[int, int]]
    adjacency: Dict[int, Tuple[int, ...]]
    boundary: FrozenSet[int] = frozenset()

    @classmethod
    def of(
        cls, directed: bool, vertices: Iterable[int], edges: Iterable[Tuple[int, int]]
    ) -> "SubgraphTopology":
        """The topology of ``edges`` over ``vertices``, without boundary."""
        vertex_set: Set[int] = set(vertices)
        edge_set: Set[Tuple[int, int]] = set()
        adjacency: Dict[int, List[int]] = {v: [] for v in vertex_set}
        for u, v in edges:
            if u not in vertex_set or v not in vertex_set:
                raise VertexNotFoundError(u if u not in vertex_set else v)
            key = (u, v) if directed else edge_key(u, v)
            if key in edge_set:
                continue
            edge_set.add(key)
            adjacency[key[0]].append(key[1])
            if not directed:
                adjacency[key[1]].append(key[0])
        # Frozen from the sets, not from the iterables: set iteration order
        # reaches tie-breaking downstream, and the pinned results assume
        # the order of a frozenset copied from a set built this way.
        return cls(
            frozenset(vertex_set),
            frozenset(edge_set),
            {v: tuple(neighbors) for v, neighbors in adjacency.items()},
        )

    def with_boundary(self, boundary: Iterable[int]) -> "SubgraphTopology":
        """The same topology with ``boundary`` as its boundary vertices."""
        boundary_set = set(boundary)
        unknown = boundary_set - self.vertices
        if unknown:
            raise VertexNotFoundError(next(iter(unknown)))
        return self._replace(boundary=frozenset(boundary_set))


class Subgraph:
    """A vertex- and edge-subset of a parent dynamic graph.

    A thin view: its id, the parent it reads weights from, and a
    :class:`SubgraphTopology`.

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
        self._topology = SubgraphTopology.of(parent.directed, vertices, edges)

    @classmethod
    def view(
        cls, subgraph_id: int, parent: DynamicGraph, topology: SubgraphTopology
    ) -> "Subgraph":
        """A subgraph of ``parent`` over an existing topology (not copied)."""
        subgraph = cls.__new__(cls)
        subgraph.subgraph_id = subgraph_id
        subgraph._parent = parent
        subgraph._topology = topology
        return subgraph

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def parent(self) -> DynamicGraph:
        """The graph this subgraph was carved from."""
        return self._parent

    @property
    def topology(self) -> SubgraphTopology:
        """The subgraph's vertices, edges, adjacency and boundary."""
        return self._topology

    @property
    def directed(self) -> bool:
        """Whether the parent (and therefore this subgraph) is directed."""
        return self._parent.directed

    @property
    def vertices(self) -> FrozenSet[int]:
        """The vertices assigned to this subgraph."""
        return self._topology.vertices

    @property
    def edge_set(self) -> FrozenSet[Tuple[int, int]]:
        """The canonical edge keys assigned to this subgraph."""
        return self._topology.edges

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the subgraph."""
        return len(self._topology.vertices)

    @property
    def num_edges(self) -> int:
        """Number of edges in the subgraph."""
        return len(self._topology.edges)

    @property
    def boundary_vertices(self) -> FrozenSet[int]:
        """Vertices shared with at least one other subgraph.

        The set is populated by :class:`~repro.graph.partition.GraphPartition`
        after all subgraphs have been created (a single subgraph cannot know
        on its own which of its vertices are shared).
        """
        return self._topology.boundary

    def set_boundary_vertices(self, boundary: Iterable[int]) -> None:
        """Record which vertices of this subgraph are boundary vertices."""
        self._topology = self._topology.with_boundary(boundary)

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the edge ``(u, v)`` belongs to this subgraph."""
        key = (u, v) if self.directed else edge_key(u, v)
        return key in self._topology.edges

    def neighbors(self, vertex: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(neighbour, current_weight)`` for edges inside the subgraph."""
        adjacency = self._topology.adjacency
        if vertex not in adjacency:
            raise VertexNotFoundError(vertex)
        weight = self._parent.weight
        for other in adjacency[vertex]:
            yield other, weight(vertex, other)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over edges as ``(u, v, current_weight)``."""
        weight = self._parent.weight
        for u, v in self._topology.edges:
            yield u, v, weight(u, v)

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

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._topology.vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Subgraph id={self.subgraph_id} |V|={self.num_vertices} "
            f"|E|={self.num_edges} |B|={len(self.boundary_vertices)}>"
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
        parent = subgraph.parent
        keys = sorted(subgraph.edge_set)
        self.edge_ids: Dict[Tuple[int, int], int] = {key: i for i, key in enumerate(keys)}
        self.weights: List[float] = [parent.weight(u, v) for u, v in keys]
        self.vfrags: List[int] = [parent.vfrag_count(u, v) for u, v in keys]
        total = sum(self.vfrags)
        self.depth = total if depth is None else min(depth, total)
        self.prefix: List[float] = []
        self.refresh()

    @classmethod
    def over(
        cls,
        edge_ids: Dict[Tuple[int, int], int],
        vfrags: List[int],
        depth: int,
        weights: List[float],
        prefix: List[float],
    ) -> "SortedUnitWeights":
        """Unit weights over another's edge numbering and vfrag counts (not
        copied), with their own ``weights`` and matching ``prefix``."""
        units = cls.__new__(cls)
        units.edge_ids, units.vfrags, units.depth = edge_ids, vfrags, depth
        units.weights, units.prefix = weights, prefix
        return units

    def refresh(self) -> None:
        """Re-derive :attr:`prefix` from :attr:`weights`."""
        prefix = [0.0]
        total = 0.0
        need = self.depth
        for unit, count in sorted(
            # Each edge's unit weight: its weight per vfrag.
            (weight / count, count) for weight, count in zip(self.weights, self.vfrags)
        ):
            if need <= 0:
                break
            for _ in range(min(count, need)):
                total += unit
                prefix.append(total)
            need -= count
        self.prefix = prefix


__all__.append("SortedUnitWeights")
