"""FindKSP baseline: deviation-based KSP search guided by a shortest-path tree.

The paper compares KSP-DG against "FindKSP" (Liu et al., TKDE 2018), a
centralized algorithm that accelerates the classical deviation paradigm by
building a single shortest-path tree (SPT) rooted at the destination and
re-using it to complete every deviation cheaply instead of running a fresh
Dijkstra per spur vertex.

This module implements that core idea:

1. Build the SPT towards the destination once per query.
2. Maintain a priority queue of *candidate* paths.  Each candidate is a
   simple path obtained by deviating from a previously emitted path at some
   vertex and then following the SPT down to the destination.
3. Pop the cheapest candidate, emit it, and generate new deviations from it.

When a deviation cannot be completed through the SPT without revisiting a
vertex (the SPT completion would create a loop), the algorithm falls back to
a restricted Dijkstra that avoids the prefix, preserving correctness on
graphs where the fast path fails.  The output is therefore identical to
Yen's algorithm (the k shortest *simple* paths), only the generation cost
differs — which is exactly the property the paper's evaluation relies on.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..graph.errors import PathNotFoundError, QueryError
from ..graph.paths import Path
from .dijkstra import dijkstra, iter_neighbors, path_weight
from .yen import PRUNE_SLACK

__all__ = ["find_ksp", "FindKSP"]

_INF = float("inf")


class FindKSP:
    """Stateful FindKSP query evaluator.

    Separating construction (SPT build) from enumeration keeps the cost
    model honest in benchmarks: the SPT is built once per query, not once
    per emitted path.

    ``prune_k`` (a promise that at most ``prune_k`` paths will be
    requested) enables upper-bound pruning of the deviation generation:
    the SPT distance to the destination is a free admissible lower bound
    of any simple completion, so a deviation whose prefix weight plus SPT
    bound strictly exceeds the current ``prune_k``-th best known path is
    skipped — including its restricted-Dijkstra fallback, which otherwise
    dominates the cost on deviations that loop through the SPT.  Output is
    bit-identical to the unpruned enumeration (only provably-useless
    candidates are dropped).
    """

    def __init__(
        self, graph, source: int, target: int, prune_k: Optional[int] = None
    ) -> None:
        self._graph = graph
        self._source = source
        self._target = target
        self._prune_k = prune_k
        # Shortest-path "tree" towards the target: for every vertex, the
        # distance to the target and the next hop towards it.
        self._dist_to_target, self._next_hop = self._build_spt()
        self._emitted: List[Path] = []
        self._candidates: List[Tuple[float, Tuple[int, ...]]] = []
        self._seen: Set[Tuple[int, ...]] = set()
        self._exhausted = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_spt(self) -> Tuple[Dict[int, float], Dict[int, int]]:
        """Dijkstra from the target; ``next_hop[v]`` is v's parent towards it.

        For directed graphs the caller must supply the reverse graph through
        ``graph.reverse()`` semantics; the undirected experiments in this
        repository use the graph directly.
        """
        graph = self._graph
        if getattr(graph, "directed", False) and hasattr(graph, "reverse"):
            search_graph = graph.reverse()
        else:
            search_graph = graph
        distances, predecessors = dijkstra(search_graph, self._target)
        return distances, predecessors

    def _complete_via_spt(self, prefix: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        """Extend ``prefix`` to the target by following the SPT.

        Returns ``None`` when the completion would revisit a prefix vertex
        (non-simple path) or when the last prefix vertex cannot reach the
        target.
        """
        last = prefix[-1]
        if last == self._target:
            return prefix
        if last not in self._dist_to_target:
            return None
        seen = set(prefix)
        completion: List[int] = []
        vertex = last
        while vertex != self._target:
            vertex = self._next_hop.get(vertex)
            if vertex is None or vertex in seen:
                return None
            seen.add(vertex)
            completion.append(vertex)
        return prefix + tuple(completion)

    def _path_distance(self, vertices: Tuple[int, ...]) -> float:
        return path_weight(self._graph, vertices)

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Path]:
        return self

    def __next__(self) -> Path:
        return self.next_path()

    def next_path(self) -> Path:
        """Return the next shortest simple path from source to target."""
        if self._exhausted:
            raise StopIteration
        if not self._emitted:
            vertices = self._complete_via_spt((self._source,))
            if vertices is None:
                self._exhausted = True
                raise PathNotFoundError(self._source, self._target)
            path = Path(self._dist_to_target[self._source], vertices)
            self._emitted.append(path)
            return path

        self._expand(self._emitted[-1])
        while self._candidates:
            distance, vertices = heapq.heappop(self._candidates)
            if any(vertices == path.vertices for path in self._emitted):
                continue
            path = Path(distance, vertices)
            self._emitted.append(path)
            return path
        self._exhausted = True
        raise StopIteration

    def _prune_bound(self) -> float:
        """Upper bound on useful candidate distances (mirrors Yen's).

        The ``prune_k``-th smallest distance among emitted paths plus
        fresh candidates, once at least that many distinct paths are
        known; ``inf`` otherwise (or without ``prune_k``).
        """
        k = self._prune_k
        if k is None:
            return _INF
        remaining = k - len(self._emitted)
        if remaining <= 0:
            return _INF
        emitted_vertices = {path.vertices for path in self._emitted}
        fresh = [
            distance
            for distance, vertices in self._candidates
            if vertices not in emitted_vertices
        ]
        if len(fresh) < remaining:
            return _INF
        return heapq.nsmallest(remaining, fresh)[-1]

    def _expand(self, previous: Path) -> None:
        """Generate deviation candidates from the most recently emitted path."""
        vertices = previous.vertices
        bound = self._prune_bound()
        for spur_index in range(len(vertices) - 1):
            root = vertices[: spur_index + 1]
            spur_vertex = vertices[spur_index]
            root_weight = path_weight(self._graph, root) if bound != _INF else None
            banned_edges: Set[Tuple[int, int]] = set()
            for path in self._emitted:
                if path.vertices[: spur_index + 1] == root and len(path.vertices) > spur_index + 1:
                    u, v = path.vertices[spur_index], path.vertices[spur_index + 1]
                    banned_edges.add((u, v))
                    banned_edges.add((v, u))
            root_set = set(root)
            for neighbor, weight in iter_neighbors(self._graph, spur_vertex):
                if neighbor in root_set:
                    continue
                if (spur_vertex, neighbor) in banned_edges:
                    continue
                cutoff = _INF
                if root_weight is not None:
                    # Any simple completion of root+(neighbor,) is at least
                    # as long as the unconstrained SPT distance — a free
                    # admissible lower bound.  Strictly worse than the
                    # current k-th best (by more than rounding, see
                    # PRUNE_SLACK) means provably useless.
                    prefix_weight = root_weight + weight
                    spt_bound = self._dist_to_target.get(neighbor, _INF)
                    loosened = bound + bound * PRUNE_SLACK
                    if prefix_weight + spt_bound > loosened:
                        continue
                    cutoff = loosened - prefix_weight
                candidate_vertices = self._complete_via_spt(root + (neighbor,))
                if candidate_vertices is None:
                    candidate_vertices = self._complete_via_dijkstra(
                        root + (neighbor,), banned_edges, cutoff
                    )
                if candidate_vertices is None:
                    continue
                if candidate_vertices in self._seen:
                    continue
                self._seen.add(candidate_vertices)
                distance = self._path_distance(candidate_vertices)
                heapq.heappush(self._candidates, (distance, candidate_vertices))

    def _complete_via_dijkstra(
        self,
        prefix: Tuple[int, ...],
        banned_edges: Set[Tuple[int, int]],
        cutoff: float = _INF,
    ) -> Optional[Tuple[int, ...]]:
        """Slow-path completion avoiding prefix vertices (keeps paths simple)."""
        last = prefix[-1]
        banned_vertices = set(prefix[:-1])
        distances, predecessors = dijkstra(
            self._graph,
            last,
            target=self._target,
            banned_vertices=banned_vertices,
            banned_edges=banned_edges,
            cutoff=None if cutoff == _INF else cutoff,
        )
        if self._target not in distances:
            return None
        completion = [self._target]
        while completion[-1] != last:
            completion.append(predecessors[completion[-1]])
        completion.reverse()
        vertices = prefix[:-1] + tuple(completion)
        if len(set(vertices)) != len(vertices):
            return None
        return vertices


def find_ksp(graph, source: int, target: int, k: int, prune: bool = True) -> List[Path]:
    """Compute the ``k`` shortest simple paths using the FindKSP strategy.

    Mirrors the signature of
    :func:`repro.algorithms.yen.yen_k_shortest_paths`; the two functions
    return identical path sets (possibly in a different order among
    equal-length paths).  ``prune`` (default on) enables upper-bound
    pruning of the deviation generation; the output is bit-identical
    either way.
    """
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    enumerator = FindKSP(graph, source, target, prune_k=k if prune else None)
    paths: List[Path] = []
    for _ in range(k):
        try:
            paths.append(enumerator.next_path())
        except StopIteration:
            break
    return paths
