"""KSP query workloads.

The evaluation feeds batches of randomly generated k-shortest-path queries
into the system (``Nq`` concurrent queries).  This module generates such
workloads reproducibly:

* :class:`KSPQuery` — one query (source, target, k).
* :class:`QueryGenerator` — draws random origin/destination pairs from a
  graph, optionally constraining the pair to be "interesting" (distinct
  vertices, optionally a minimum hop separation so queries are not trivially
  local).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Set, Tuple

from ..graph.graph import DynamicGraph

__all__ = ["KSPQuery", "QueryGenerator"]


@dataclass(frozen=True)
class KSPQuery:
    """One k-shortest-path query.

    Attributes
    ----------
    query_id:
        Identifier unique within the generating batch.
    source, target:
        Origin and destination vertices.
    k:
        Number of shortest paths requested.
    """

    query_id: int
    source: int
    target: int
    k: int

    def as_tuple(self) -> Tuple[int, int, int]:
        """Return ``(source, target, k)``, the shape engines consume."""
        return (self.source, self.target, self.k)

    @property
    def key(self) -> Tuple[int, int, int]:
        """Identity of the *answer* this query asks for.

        Two queries with the same key are satisfied by the same result; the
        serving layer uses this for result caching and for coalescing
        identical in-flight requests.
        """
        return self.as_tuple()


class QueryGenerator:
    """Reproducible random query generator over a graph.

    Parameters
    ----------
    graph:
        The graph queries are drawn from.
    seed:
        Random seed.
    min_hops:
        When positive, rejection-sample pairs until the BFS hop distance
        between source and target is at least ``min_hops``.  This mimics the
        paper's setting where queries span multiple subgraphs.  Set to 0 to
        accept any distinct pair.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        seed: int = 11,
        min_hops: int = 0,
    ) -> None:
        self._graph = graph
        self._rng = random.Random(seed)
        self._vertices = sorted(graph.vertices())
        if len(self._vertices) < 2:
            raise ValueError("query generation requires a graph with at least 2 vertices")
        self._min_hops = min_hops

    def _hop_distance_at_least(self, source: int, target: int, hops: int) -> bool:
        """Return ``True`` when target is at least ``hops`` BFS hops from source."""
        if hops <= 0:
            return True
        frontier = {source}
        seen: Set[int] = {source}
        for _ in range(hops):
            next_frontier: Set[int] = set()
            for vertex in frontier:
                for neighbor in self._graph.neighbors(vertex):
                    if neighbor == target:
                        return False
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.add(neighbor)
            frontier = next_frontier
            if not frontier:
                break
        return True

    def generate_one(self, query_id: int, k: int) -> KSPQuery:
        """Generate a single query with the given id and ``k``."""
        pool = self._vertices
        for _ in range(1000):
            source, target = self._rng.sample(pool, 2)
            if self._hop_distance_at_least(source, target, self._min_hops):
                return KSPQuery(query_id=query_id, source=source, target=target, k=k)
        # Fall back to any distinct pair when the constraint is too strict.
        source, target = self._rng.sample(pool, 2)
        return KSPQuery(query_id=query_id, source=source, target=target, k=k)

    def generate(self, count: int, k: int = 2) -> List[KSPQuery]:
        """Generate a batch of ``count`` queries, all with the same ``k``."""
        return [self.generate_one(query_id, k) for query_id in range(count)]

    def stream(self, count: int, k: int = 2) -> Iterator[KSPQuery]:
        """Yield ``count`` queries lazily."""
        for query_id in range(count):
            yield self.generate_one(query_id, k)
