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

This module provides the :class:`BoundingPath` record.  The search that
enumerates bounding paths is
:func:`repro.algorithms.dijkstra.vfrag_label_search`, which
:class:`~repro.core.subgraph_index.SubgraphIndex` runs once per boundary
source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["BoundingPath"]


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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        chain = "-".join(str(v) for v in self.vertices)
        return (
            f"BoundingPath(id={self.path_id}, {self.source}->{self.target}, "
            f"phi={self.vfrag_count}, D={self.distance:g}, {chain})"
        )
