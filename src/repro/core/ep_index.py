"""EP-Index: the edge-to-bounding-paths map used for DTLP maintenance.

Section 3.7 of the paper introduces the Edge-Path Index (EP-Index): a map
whose keys are edges and whose values are the bounding paths passing through
that edge.  When the weight of an edge changes by ``delta_w``, the actual
distance of every bounding path covering the edge changes by the same amount,
so maintenance touches exactly the paths listed under that edge (Algorithm 2).

Here it is one CSR pair of flat arrays over the owning subgraph's edge ids
and bounding-path numbers — the paths through edge ``e`` are
``paths[offsets[e]:offsets[e + 1]]`` — built once and never changed.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Mapping, Sequence, Tuple

__all__ = ["EPIndex"]


class EPIndex:
    """Edge id -> numbers of the bounding paths covering the edge.

    Parameters
    ----------
    edge_ids:
        Canonical edge key -> dense edge id (shared, not copied).
    path_edges:
        The edge ids of bounding path ``p`` at position ``p``.
    directed:
        Whether edge keys preserve orientation.  For undirected graphs the
        canonical ``(min, max)`` ordering is used.
    """

    def __init__(
        self,
        edge_ids: Mapping[Tuple[int, int], int],
        path_edges: Sequence[Sequence[int]],
        directed: bool = False,
    ) -> None:
        self._directed = directed
        self._edge_ids = edge_ids
        counts = [0] * (len(edge_ids) + 1)
        for edges in path_edges:
            for edge in edges:
                counts[edge + 1] += 1
        self.offsets = array("i", accumulate(counts))
        self.paths = array("i", [0]) * self.offsets[-1]
        fill = list(self.offsets)
        for number, edges in enumerate(path_edges):
            for edge in edges:
                self.paths[fill[edge]] = number
                fill[edge] += 1

    def _slice(self, u: int, v: int) -> array:
        edge = self._edge_ids.get((u, v) if self._directed or u <= v else (v, u))
        if edge is None:
            return self.paths[:0]
        return self.paths[self.offsets[edge]:self.offsets[edge + 1]]

    def paths_through_edge(self, u: int, v: int) -> Tuple[int, ...]:
        """Numbers of the bounding paths passing through edge ``(u, v)``."""
        return tuple(self._slice(u, v))

    def num_entries(self) -> int:
        """Total number of (edge, path) entries.

        The paper points out this is ``Nb * (Nb - 1) / 2 * xi * ne`` in the
        worst case, i.e. usually much larger than the subgraph itself.  The
        paper's Section 4 compresses it with MinHash/LSH + MFP-trees; these
        two flat arrays are already smaller than that forest, so it is not
        built (``docs/paper_map.md``, Figs. 15-18).
        """
        return len(self.paths)

    def memory_estimate_bytes(self) -> int:
        """Bytes of the two flat arrays (the edge-id map is the subgraph's).

        Used by the construction-cost experiments (Figures 15-18).
        """
        return (len(self.offsets) + len(self.paths)) * self.paths.itemsize

    def __contains__(self, edge: Tuple[int, int]) -> bool:
        return len(self._slice(*edge)) > 0

    def __len__(self) -> int:  # distinct edges with at least one bounding path
        return sum(self.offsets[e] < self.offsets[e + 1] for e in self._edge_ids.values())
