"""MinHash / LSH grouping of EP-Index edges.

Section 4.1 of the paper compresses the EP-Index by first grouping edges
whose bounding-path sets have high Jaccard similarity, then compressing each
group with an MFP-tree.  The grouping uses the classic MinHash + banded LSH
construction:

1. View the EP-Index as a binary *PE-matrix* whose rows are bounding paths
   and whose columns are edges (a 1 means the path passes through the edge).
2. Compute a MinHash signature of length ``num_hashes`` for every column.
3. Split the signatures into ``num_bands`` bands; two columns landing in the
   same bucket for at least one band are placed in the same group.

The implementation is self-contained (no third-party dependency) because
signature lengths are small and the number of edges per subgraph is bounded by ``z``.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Iterable, List, Mapping, Set, Tuple

__all__ = ["MinHasher", "lsh_group_edges", "jaccard_similarity"]


def jaccard_similarity(first: Set[int], second: Set[int]) -> float:
    """Jaccard similarity of two sets (1.0 when both are empty)."""
    if not first and not second:
        return 1.0
    union = len(first | second)
    if union == 0:
        return 1.0
    return len(first & second) / union


class MinHasher:
    """Compute MinHash signatures of integer sets.

    Parameters
    ----------
    num_hashes:
        Signature length ``h``.  More hashes approximate Jaccard similarity
        better at the cost of signature size.
    seed:
        Seed for the random hash parameters; fixed by default so signatures
        are reproducible across runs.
    """

    _MERSENNE_PRIME = (1 << 61) - 1

    def __init__(self, num_hashes: int = 16, seed: int = 12345) -> None:
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_hashes = num_hashes
        rng = random.Random(seed)
        self._coefficients: List[Tuple[int, int]] = [
            (rng.randrange(1, self._MERSENNE_PRIME), rng.randrange(0, self._MERSENNE_PRIME))
            for _ in range(num_hashes)
        ]

    def signature(self, items: Iterable[int]) -> Tuple[int, ...]:
        """MinHash signature of ``items``.

        Empty sets receive a sentinel signature of all ``MERSENNE_PRIME`` so
        they collide only with other empty sets.
        """
        values = list(items)
        if not values:
            return tuple([self._MERSENNE_PRIME] * self.num_hashes)
        signature: List[int] = []
        for a, b in self._coefficients:
            signature.append(
                min(((a * value + b) % self._MERSENNE_PRIME) for value in values)
            )
        return tuple(signature)


def lsh_group_edges(
    path_sets: Mapping[Hashable, Set[int]],
    num_hashes: int = 16,
    num_bands: int = 4,
    seed: int = 12345,
) -> List[List[Hashable]]:
    """Group edges whose bounding-path sets are likely similar.

    Parameters
    ----------
    path_sets:
        Mapping from edge key to the set of bounding-path ids covering it —
        the output of :meth:`repro.core.ep_index.EPIndex.path_sets`.
    num_hashes:
        MinHash signature length ``h``.
    num_bands:
        Number of LSH bands ``b``; ``h`` must be divisible by ``b``.
    seed:
        Seed for the hash family.

    Returns
    -------
    list of groups, each a list of edge keys.  Every edge appears in exactly
    one group (groups are merged transitively when an edge collides with
    multiple buckets).  Edges that collide with nothing form singleton
    groups.
    """
    if num_bands <= 0:
        raise ValueError("num_bands must be positive")
    if num_hashes % num_bands != 0:
        raise ValueError(
            f"num_hashes ({num_hashes}) must be divisible by num_bands ({num_bands})"
        )
    edges = list(path_sets)
    if not edges:
        return []
    hasher = MinHasher(num_hashes=num_hashes, seed=seed)
    signatures = {edge: hasher.signature(path_sets[edge]) for edge in edges}
    rows_per_band = num_hashes // num_bands

    # Union-find over edges: edges sharing a band bucket are unioned.
    parent: Dict[Hashable, Hashable] = {edge: edge for edge in edges}

    def find(edge: Hashable) -> Hashable:
        root = edge
        while parent[root] != root:
            root = parent[root]
        while parent[edge] != root:
            parent[edge], edge = root, parent[edge]
        return root

    def union(first: Hashable, second: Hashable) -> None:
        root_first, root_second = find(first), find(second)
        if root_first != root_second:
            parent[root_second] = root_first

    for band in range(num_bands):
        buckets: Dict[Tuple[int, ...], Hashable] = {}
        start = band * rows_per_band
        end = start + rows_per_band
        for edge in edges:
            key = signatures[edge][start:end]
            if key in buckets:
                union(buckets[key], edge)
            else:
                buckets[key] = edge

    groups: Dict[Hashable, List[Hashable]] = {}
    for edge in edges:
        groups.setdefault(find(edge), []).append(edge)
    return [sorted(group, key=repr) for group in groups.values()]
