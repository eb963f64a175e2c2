"""BFS-based graph partitioning and boundary-vertex identification.

Section 3.3 of the paper partitions the graph ``G`` into subgraphs of at most
``z`` vertices by traversing the graph breadth-first from arbitrary start
vertices.  Subgraphs may share vertices (the *boundary vertices*) but never
share edges; together they cover every vertex and every edge of ``G``.

This module implements that scheme in :func:`partition_graph` and wraps the
result in :class:`GraphPartition`, which records

* the list of :class:`~repro.graph.subgraph.Subgraph` objects,
* the boundary-vertex set of the whole partition,
* for every vertex, which subgraphs contain it, and
* for every edge, which subgraph owns it,

all of which the DTLP index and the KSP-DG query algorithm need.

Determinism contract
--------------------
Partition identity must be reproducible — the on-disk partition store
(:mod:`repro.store`) fingerprints partitions, and a partition that varied
from run to run would make every saved store permanently stale.  Both
phases are therefore pinned to sorted iteration orders:

* Phase 1 (vertex blocks) seeds BFS from the *smallest* vertex id, drains
  frontier vertices in FIFO order, and visits neighbours in sorted order;
  exhausted frontiers fall back to the smallest unvisited vertex id.
* Phase 2 (edge assignment) iterates edges sorted by canonical key, so
  cross-edge ownership (and with it the boundary-vertex set) does not
  depend on the order in which edges were inserted into the graph.

Vertex ids are ints and ``hash(int)`` is value-based in CPython, so none of
this depends on ``PYTHONHASHSEED``; ``tests/test_partition.py`` pins the
exact partition of a reference graph as a regression test.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import PartitionError, VertexNotFoundError
from .graph import DynamicGraph, edge_key
from .subgraph import Subgraph, SubgraphTopology

__all__ = ["GraphPartition", "PartitionLayout", "partition_graph", "assemble_partition"]


class PartitionLayout(NamedTuple):
    """What a partition is, fixed once it is made: each subgraph's
    :class:`~repro.graph.subgraph.SubgraphTopology` (by subgraph id), vertex
    -> ids of the subgraphs containing it, canonical edge key -> owning
    subgraph id, and the boundary vertices.

    Never written; copies of a built DTLP in one process share it (see
    :class:`~repro.core.layout.IndexLayout`).
    """

    topologies: Tuple[SubgraphTopology, ...]
    vertex_subgraphs: Dict[int, Tuple[int, ...]]
    edge_owner: Dict[Tuple[int, int], int]
    boundary: FrozenSet[int]

    @classmethod
    def of(cls, subgraphs: Sequence[Subgraph]) -> "PartitionLayout":
        """The layout of ``subgraphs`` (ids ``0..n-1`` in order); records
        each one's boundary vertices on it."""
        if [s.subgraph_id for s in subgraphs] != list(range(len(subgraphs))):
            raise PartitionError("subgraph ids must be 0..n-1 in order")
        vertex_subgraphs: Dict[int, List[int]] = {}
        edge_owner: Dict[Tuple[int, int], int] = {}
        for subgraph in subgraphs:
            for vertex in subgraph.vertices:
                vertex_subgraphs.setdefault(vertex, []).append(subgraph.subgraph_id)
            for key in subgraph.edge_set:
                if key in edge_owner:
                    raise PartitionError(
                        f"edge {key} assigned to more than one subgraph"
                    )
                edge_owner[key] = subgraph.subgraph_id
        boundary = {
            vertex for vertex, owners in vertex_subgraphs.items() if len(owners) > 1
        }
        for subgraph in subgraphs:
            subgraph.set_boundary_vertices(subgraph.vertices & boundary)
        # Frozen from the set, not from an iterable: set iteration order
        # reaches tie-breaking downstream, and the pinned results assume
        # the order of a frozenset copied from a set built this way.
        return cls(
            tuple(subgraph.topology for subgraph in subgraphs),
            {vertex: tuple(owners) for vertex, owners in vertex_subgraphs.items()},
            edge_owner,
            frozenset(boundary),
        )


class GraphPartition:
    """The result of partitioning a dynamic graph into subgraphs.

    Instances are created by :func:`partition_graph`; they can also be built
    directly from explicit vertex/edge assignments (useful in tests).  A
    partition is a view: its graph, a :class:`PartitionLayout` and one
    :class:`~repro.graph.subgraph.Subgraph` view per topology.
    """

    def __init__(self, graph: DynamicGraph, subgraphs: Sequence[Subgraph]) -> None:
        self._graph = graph
        self._subgraphs: List[Subgraph] = list(subgraphs)
        self._layout = PartitionLayout.of(self._subgraphs)
        self._validate_cover()

    @classmethod
    def view(cls, graph: DynamicGraph, layout: PartitionLayout) -> "GraphPartition":
        """A partition of ``graph`` over an existing layout (not copied)."""
        partition = cls.__new__(cls)
        partition._graph = graph
        partition._layout = layout
        partition._subgraphs = [
            Subgraph.view(subgraph_id, graph, topology)
            for subgraph_id, topology in enumerate(layout.topologies)
        ]
        return partition

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate_cover(self) -> None:
        """Check the partition covers every vertex and edge of the graph."""
        graph_vertices = set(self._graph.vertices())
        covered_vertices = set(self._layout.vertex_subgraphs)
        if covered_vertices != graph_vertices:
            missing = graph_vertices - covered_vertices
            extra = covered_vertices - graph_vertices
            raise PartitionError(
                f"partition does not cover the graph's vertices "
                f"(missing={sorted(missing)[:5]}, extra={sorted(extra)[:5]})"
            )
        graph_edges = {
            (u, v) if self._graph.directed else edge_key(u, v)
            for u, v, _ in self._graph.edges()
        }
        covered_edges = set(self._layout.edge_owner)
        if covered_edges != graph_edges:
            missing_edges = graph_edges - covered_edges
            extra_edges = covered_edges - graph_edges
            raise PartitionError(
                f"partition does not cover the graph's edges "
                f"(missing={sorted(missing_edges)[:5]}, extra={sorted(extra_edges)[:5]})"
            )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        """The partitioned graph."""
        return self._graph

    @property
    def layout(self) -> PartitionLayout:
        """The partition's fixed structure."""
        return self._layout

    @property
    def subgraphs(self) -> Sequence[Subgraph]:
        """All subgraphs in id order."""
        return tuple(self._subgraphs)

    @property
    def num_subgraphs(self) -> int:
        """Number of subgraphs in the partition."""
        return len(self._subgraphs)

    @property
    def boundary_vertices(self) -> FrozenSet[int]:
        """Vertices shared by two or more subgraphs (Definition 5)."""
        return self._layout.boundary

    def subgraph(self, subgraph_id: int) -> Subgraph:
        """Return the subgraph with the given id."""
        try:
            return self._subgraphs[subgraph_id]
        except IndexError:
            raise PartitionError(f"no subgraph with id {subgraph_id}") from None

    def subgraphs_of_vertex(self, vertex: int) -> Tuple[int, ...]:
        """Ids of the subgraphs containing ``vertex``."""
        try:
            return self._layout.vertex_subgraphs[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def subgraphs_containing_pair(self, u: int, v: int) -> Tuple[int, ...]:
        """Ids of subgraphs that contain both ``u`` and ``v``.

        This is the set ``U`` in Algorithm 4 (candidateKSP): partial k
        shortest paths between two adjacent boundary vertices of a reference
        path are searched in every subgraph containing both.
        """
        owners_u = set(self.subgraphs_of_vertex(u))
        owners_v = set(self.subgraphs_of_vertex(v))
        return tuple(sorted(owners_u & owners_v))

    def owner_of_edge(self, u: int, v: int) -> int:
        """Id of the unique subgraph owning the edge ``(u, v)``."""
        key = (u, v) if self._graph.directed else edge_key(u, v)
        try:
            return self._layout.edge_owner[key]
        except KeyError:
            raise PartitionError(f"edge ({u}, {v}) not covered by the partition") from None

    def is_boundary(self, vertex: int) -> bool:
        """Return ``True`` when ``vertex`` is a boundary vertex."""
        return vertex in self._layout.boundary

    def subgraphs_with_min_boundary(self, minimum: int) -> int:
        """Count subgraphs having more than ``minimum`` boundary vertices.

        Table 1 of the paper reports, per dataset, the number of subgraphs
        with more than five boundary vertices; this helper regenerates that
        statistic for arbitrary thresholds.
        """
        return sum(
            1
            for subgraph in self._subgraphs
            if len(subgraph.boundary_vertices) > minimum
        )

    def __iter__(self) -> Iterator[Subgraph]:
        return iter(self._subgraphs)

    def __len__(self) -> int:
        return len(self._subgraphs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<GraphPartition n={self.num_subgraphs} "
            f"boundary={len(self._layout.boundary)}>"
        )


def assemble_partition(
    graph: DynamicGraph,
    blocks: Sequence[Sequence[int]],
) -> GraphPartition:
    """Turn disjoint vertex *blocks* into a :class:`GraphPartition`.

    This is the shared "phase 2" of every partitioner (BFS here, the
    multilevel min-cut partitioner in :mod:`repro.graph.partition_ml`):
    given blocks that are pairwise disjoint and cover every vertex, assign
    each edge to exactly one block and adopt foreign endpoints of cross
    edges as boundary vertices.

    * An edge whose endpoints share a block belongs to that block.
    * A *cross* edge is assigned to whichever of the two blocks is
      currently smaller (ties to the first endpoint's block), and the
      foreign endpoint is added to the owner as a shared vertex — the
      boundary vertices of Definition 5.

    Edges are processed in sorted canonical-key order so the assignment —
    and therefore the boundary-vertex set and store fingerprints — is
    independent of graph insertion order (see the module docstring).
    """
    block_of: Dict[int, int] = {}
    for block_id, block in enumerate(blocks):
        for vertex in block:
            if vertex in block_of:
                raise PartitionError(f"vertex {vertex} appears in two blocks")
            block_of[vertex] = block_id

    def canonical(u: int, v: int) -> Tuple[int, int]:
        return (u, v) if graph.directed else edge_key(u, v)

    block_vertices: List[Set[int]] = [set(block) for block in blocks]
    block_edges: List[Set[Tuple[int, int]]] = [set() for _ in blocks]
    for key in sorted({canonical(u, v) for u, v, _ in graph.edges()}):
        home_u, home_v = block_of[key[0]], block_of[key[1]]
        if home_u == home_v:
            block_edges[home_u].add(key)
            continue
        # Assign the cross edge to the currently smaller subgraph so adopted
        # boundary vertices spread evenly, and adopt the foreign endpoint.
        if len(block_vertices[home_u]) <= len(block_vertices[home_v]):
            owner, foreign = home_u, key[1]
        else:
            owner, foreign = home_v, key[0]
        block_edges[owner].add(key)
        block_vertices[owner].add(foreign)

    subgraphs = [
        Subgraph(index, graph, vertices, edges)
        for index, (vertices, edges) in enumerate(zip(block_vertices, block_edges))
    ]
    return GraphPartition(graph, subgraphs)


def partition_graph(
    graph: DynamicGraph,
    max_vertices: int,
    start_vertex: Optional[int] = None,
) -> GraphPartition:
    """Partition ``graph`` into subgraphs of roughly ``max_vertices`` vertices.

    The procedure follows Section 3.3 in two phases:

    1. *Vertex blocks* — the graph is traversed breadth-first from a seed
       vertex; visited vertices are accumulated into the current block until
       it holds ``max_vertices`` vertices, at which point a new block is
       started from the next unvisited vertex on the frontier.  Blocks are
       disjoint and cover every vertex.
    2. *Edge assignment* — every edge whose endpoints share a block belongs
       to that block's subgraph.  A *cross* edge (endpoints in different
       blocks) is assigned to exactly one of the two subgraphs, and the
       foreign endpoint is added to that subgraph as a shared vertex.  The
       shared vertices are exactly the boundary vertices of Definition 5.
       This phase is :func:`assemble_partition`, shared with the min-cut
       partitioner.

    Both phases use sorted iteration orders only (see the module docstring),
    so the same graph always yields the same partition regardless of edge
    insertion order or ``PYTHONHASHSEED``.

    The result satisfies the paper's partition contract: subgraphs may share
    vertices but never edges, and together they cover all vertices and all
    edges.  Each subgraph holds at most ``max_vertices`` home vertices plus
    the boundary vertices adopted through cross edges.

    Parameters
    ----------
    graph:
        The graph to partition.
    max_vertices:
        Target number of home vertices per subgraph (the paper's ``z``).
    start_vertex:
        Optional explicit BFS seed; defaults to the smallest vertex id, which
        makes partitions deterministic and therefore reproducible.

    Returns
    -------
    GraphPartition
        The partition, with boundary vertices already identified.
    """
    if max_vertices < 2:
        raise PartitionError("max_vertices (z) must be at least 2")
    if graph.num_vertices == 0:
        return GraphPartition(graph, [])

    all_vertices = sorted(graph.vertices())
    if start_vertex is None:
        start_vertex = all_vertices[0]
    elif not graph.has_vertex(start_vertex):
        raise VertexNotFoundError(start_vertex)

    # ------------------------------------------------------------------
    # Phase 1: disjoint BFS vertex blocks of at most ``max_vertices``.
    # ------------------------------------------------------------------
    blocks: List[List[int]] = []
    visited: Set[int] = set()
    pending = deque([start_vertex])
    remaining = iter(all_vertices)

    def next_unvisited() -> Optional[int]:
        while pending:
            candidate = pending.popleft()
            if candidate not in visited:
                return candidate
        for candidate in remaining:
            if candidate not in visited:
                return candidate
        return None

    while True:
        seed = next_unvisited()
        if seed is None:
            break
        block: List[int] = []
        queue = deque([seed])
        visited.add(seed)
        while queue and len(block) < max_vertices:
            vertex = queue.popleft()
            block.append(vertex)
            for neighbor in sorted(graph.neighbors(vertex)):
                if neighbor not in visited:
                    if len(block) + len(queue) < max_vertices:
                        visited.add(neighbor)
                        queue.append(neighbor)
                    else:
                        pending.append(neighbor)
        # Vertices left in the queue were reserved for this block; release
        # them so the next block can start from the frontier.
        for vertex in queue:
            visited.discard(vertex)
            pending.appendleft(vertex)
        blocks.append(block)

    # ------------------------------------------------------------------
    # Phase 2: edge assignment and boundary-vertex adoption (shared).
    # ------------------------------------------------------------------
    return assemble_partition(graph, blocks)
