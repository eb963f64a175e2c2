"""CANDS baseline: distributed single-shortest-path over a dynamic partitioned graph.

Yang et al. (VLDB 2014) propose CANDS, a distributed system for continuously
answering single-shortest-path (SSP) queries over a dynamic graph.  The paper
under reproduction uses it as the baseline for the ``k = 1`` comparison
(Figures 40-41).  The relevant characteristics, which this module reproduces,
are:

* the graph is partitioned into subgraphs held by different workers;
* within each subgraph, the *actual shortest path* between every pair of
  boundary vertices is pre-computed and indexed;
* a query is answered by searching over the "boundary graph" whose edge
  weights are those indexed shortest distances, expanding from the source's
  subgraph towards the destination's subgraph (plus direct intra-subgraph
  paths when source and destination share a subgraph);
* when edge weights change, every indexed shortest path that might be
  affected has to be *recomputed*, which is the expensive maintenance the
  paper contrasts with DTLP's stable bounding paths.

The implementation shares the partitioning machinery with DTLP so the
comparison isolates the indexing strategy, exactly as in the paper.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..graph.errors import IndexStateError
from ..graph.graph import WeightUpdate
from ..graph.partition import GraphPartition
from ..graph.paths import Path, merge_paths
from .dijkstra import dijkstra, shortest_path

__all__ = ["CandsIndex"]


class CandsIndex:
    """Per-subgraph all-pairs-of-boundary-vertices shortest-path index.

    Parameters
    ----------
    partition:
        A :class:`~repro.graph.partition.GraphPartition` of the dynamic graph.

    Notes
    -----
    The index stores, for every subgraph and every ordered pair of its
    boundary vertices, the exact shortest path within that subgraph.  That is
    what makes single-shortest-path queries fast and what makes maintenance
    expensive: a weight change inside a subgraph invalidates all indexed
    paths of that subgraph, which must then be recomputed from scratch.
    """

    def __init__(self, partition: GraphPartition) -> None:
        self._partition = partition
        self._graph = partition.graph
        # subgraph id -> {(u, v): Path}
        self._paths: Dict[int, Dict[Tuple[int, int], Path]] = {}
        self._built = False
        self._last_maintenance_seconds = 0.0

    # ------------------------------------------------------------------
    # build & maintain
    # ------------------------------------------------------------------
    def build(self) -> "CandsIndex":
        """Compute the shortest path between every boundary pair in every subgraph."""
        for subgraph in self._partition.subgraphs:
            self._paths[subgraph.subgraph_id] = self._index_subgraph(subgraph.subgraph_id)
        self._built = True
        return self

    def _index_subgraph(self, subgraph_id: int) -> Dict[Tuple[int, int], Path]:
        subgraph = self._partition.subgraph(subgraph_id)
        boundary = sorted(subgraph.boundary_vertices)
        boundary_set = set(boundary)
        indexed: Dict[Tuple[int, int], Path] = {}
        for source in boundary:
            # One-to-many: stop as soon as the last reachable boundary
            # vertex settles instead of flooding the whole subgraph.
            distances, predecessors = dijkstra(subgraph, source, targets=boundary_set)
            for target in boundary:
                if target == source or target not in distances:
                    continue
                vertices = [target]
                while vertices[-1] != source:
                    vertices.append(predecessors[vertices[-1]])
                vertices.reverse()
                indexed[(source, target)] = Path(distances[target], tuple(vertices))
        return indexed

    def handle_updates(self, updates: Sequence[WeightUpdate]) -> float:
        """Re-index every subgraph touched by ``updates``.

        Returns the wall-clock time spent, which the benchmark harness uses
        to reproduce the maintenance-cost comparison of Figure 41.
        """
        if not self._built:
            raise IndexStateError("CandsIndex.build() must be called before updates")
        started = time.perf_counter()
        touched: Set[int] = set()
        for update in updates:
            touched.add(self._partition.owner_of_edge(update.u, update.v))
        for subgraph_id in touched:
            self._paths[subgraph_id] = self._index_subgraph(subgraph_id)
        elapsed = time.perf_counter() - started
        self._last_maintenance_seconds = elapsed
        return elapsed

    @property
    def last_maintenance_seconds(self) -> float:
        """Duration of the most recent :meth:`handle_updates` call."""
        return self._last_maintenance_seconds

    def num_indexed_paths(self) -> int:
        """Total number of indexed boundary-to-boundary shortest paths."""
        return sum(len(paths) for paths in self._paths.values())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def indexed_path(self, subgraph_id: int, source: int, target: int) -> Optional[Path]:
        """Return the indexed shortest path between two boundary vertices."""
        return self._paths.get(subgraph_id, {}).get((source, target))

    def shortest_path(self, source: int, target: int) -> Path:
        """Answer a single-shortest-path query using the boundary index.

        The search runs a Dijkstra over a virtual graph whose vertices are
        boundary vertices (plus the query endpoints) and whose edges are the
        indexed intra-subgraph shortest paths; intra-subgraph connections
        from the endpoints to their subgraphs' boundary vertices are computed
        on demand.  The concatenation of the winning segments is returned.
        """
        if not self._built:
            raise IndexStateError("CandsIndex.build() must be called before queries")
        graph = self._graph
        partition = self._partition
        if source == target:
            return Path(0.0, (source,))

        # Segment provider: for a "virtual vertex" return outgoing segments as
        # (next_virtual_vertex, Path) pairs.
        def segments_from(vertex: int) -> List[Tuple[int, Path]]:
            segments: List[Tuple[int, Path]] = []
            for subgraph_id in partition.subgraphs_of_vertex(vertex):
                subgraph = partition.subgraph(subgraph_id)
                boundary = set(subgraph.boundary_vertices)
                if vertex in boundary:
                    for (u, v), path in self._paths[subgraph_id].items():
                        if u == vertex:
                            segments.append((v, path))
                else:
                    wanted = boundary | ({target} & subgraph.vertices)
                    distances, predecessors = dijkstra(subgraph, vertex, targets=wanted)
                    for other in wanted:
                        if other == vertex or other not in distances:
                            continue
                        vertices = [other]
                        while vertices[-1] != vertex:
                            vertices.append(predecessors[vertices[-1]])
                        vertices.reverse()
                        segments.append((other, Path(distances[other], tuple(vertices))))
                # Direct segment to the target when it shares this subgraph.
                if target in subgraph.vertices and vertex in boundary:
                    distances, predecessors = dijkstra(subgraph, vertex, target=target)
                    if target in distances:
                        vertices = [target]
                        while vertices[-1] != vertex:
                            vertices.append(predecessors[vertices[-1]])
                        vertices.reverse()
                        segments.append((target, Path(distances[target], tuple(vertices))))
            return segments

        best_distance: Dict[int, float] = {source: 0.0}
        best_path: Dict[int, Path] = {source: Path(0.0, (source,))}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        settled: Set[int] = set()
        while heap:
            distance, vertex = heapq.heappop(heap)
            if vertex in settled:
                continue
            settled.add(vertex)
            if vertex == target:
                return best_path[vertex]
            for next_vertex, segment in segments_from(vertex):
                if next_vertex in settled:
                    continue
                candidate = distance + segment.distance
                if candidate < best_distance.get(next_vertex, float("inf")):
                    best_distance[next_vertex] = candidate
                    merged = merge_paths(best_path[vertex], segment)
                    best_path[next_vertex] = merged.with_distance(candidate)
                    heapq.heappush(heap, (candidate, next_vertex))
        # Fall back to a direct search (disconnected boundary graph can occur
        # on heavily pruned partitions).
        return shortest_path(graph, source, target)
