"""Bounding paths: the first level of the DTLP index.

Section 3.4 of the paper defines, for every pair of boundary vertices in a
subgraph, a set of *bounding paths*: the simple paths whose total number of
virtual fragments (vfrags) is among the ``xi`` smallest distinct values.
Bounding paths have two crucial properties exploited by DTLP:

* the *identity* of a bounding path (its vertex sequence and vfrag count)
  never changes when edge weights change, so the index structure itself is
  stable under updates;
* the *bound distance* of a bounding path with ``phi`` vfrags — the sum of
  the ``phi`` smallest unit weights in the subgraph — is a lower bound of the
  path's actual distance, and the largest bound distance across the set
  lower-bounds every path that is **not** in the set (Theorem 1, claim 2).

This module provides the :class:`BoundingPath` record and
:func:`compute_bounding_paths`, which enumerates the bounding paths between
one pair of boundary vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..algorithms.dijkstra import k_lightest_paths_by_vfrags
from ..graph.subgraph import Subgraph

__all__ = ["BoundingPath", "compute_bounding_paths"]


@dataclass
class BoundingPath:
    """One bounding path between a pair of boundary vertices.

    Attributes
    ----------
    path_id:
        Identifier unique within the owning subgraph index; the EP-Index
        refers to bounding paths by this id.
    source, target:
        The boundary-vertex pair this path connects.
    vertices:
        The vertex sequence of the path (fixed for the lifetime of the index).
    vfrag_count:
        Total number of virtual fragments along the path (also fixed).
    distance:
        Current actual distance of the path; maintained incrementally by the
        EP-Index as edge weights change (Algorithm 2, line 3).
    """

    path_id: int
    source: int
    target: int
    vertices: Tuple[int, ...]
    vfrag_count: int
    distance: float

    def edge_pairs(self) -> List[Tuple[int, int]]:
        """Edges of the path as consecutive vertex pairs."""
        return [
            (self.vertices[index], self.vertices[index + 1])
            for index in range(len(self.vertices) - 1)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        chain = "-".join(str(v) for v in self.vertices)
        return (
            f"BoundingPath(id={self.path_id}, {self.source}->{self.target}, "
            f"phi={self.vfrag_count}, D={self.distance:g}, {chain})"
        )


def compute_bounding_paths(
    subgraph: Subgraph,
    source: int,
    target: int,
    xi: int,
    first_path_id: int = 0,
    max_expansions: int = 20_000,
) -> List[BoundingPath]:
    """Compute the bounding paths between ``source`` and ``target``.

    Parameters
    ----------
    subgraph:
        The subgraph to search within.
    source, target:
        The boundary-vertex pair.
    xi:
        Maximum number of distinct vfrag counts to keep (the paper's ``xi``).
    first_path_id:
        The id assigned to the first returned path; subsequent paths receive
        consecutive ids.  The caller (the subgraph index) manages id spaces.
    max_expansions:
        Safety cap on the number of search expansions; prevents pathological
        subgraphs from stalling index construction.  When the cap is hit the
        bound may be looser but never incorrect in the claim-2 sense.

    Returns
    -------
    list of BoundingPath
        Ordered by vfrag count then by vertex sequence.  Empty when the two
        vertices are disconnected inside the subgraph.
    """
    if xi <= 0:
        raise ValueError(f"xi must be positive, got {xi}")
    raw = k_lightest_paths_by_vfrags(
        subgraph,
        source,
        target,
        max_distinct_counts=xi,
        max_expansions=max_expansions,
    )
    paths: List[BoundingPath] = []
    for offset, (vfrags, vertices) in enumerate(raw):
        distance = subgraph.path_distance(vertices)
        paths.append(
            BoundingPath(
                path_id=first_path_id + offset,
                source=source,
                target=target,
                vertices=tuple(vertices),
                vfrag_count=vfrags,
                distance=distance,
            )
        )
    return paths
