"""Array-backed compute kernel shared by every shortest-path consumer.

This package is the performance layer between the mutable graph objects
(:mod:`repro.graph`) and the algorithm/consumer layers above them (see
``ARCHITECTURE.md`` at the repository root for the full layer stack):

* :class:`~repro.kernel.snapshot.CSRSnapshot` — an immutable-topology,
  refreshable-weights view of a :class:`~repro.graph.graph.DynamicGraph`,
  :class:`~repro.graph.subgraph.Subgraph` or
  :class:`~repro.core.skeleton.SkeletonGraph`, stored as a vertex interning
  table plus flat CSR arrays (``indptr`` / ``indices`` / ``weights``).
* :mod:`~repro.kernel.primitives` — array-native single-source shortest-path
  primitives operating purely in index space, with O(1) edge-weight lookup
  and cheap vertex/edge ban sets for Yen-style spur searches, plus the
  resumable search a pruned Yen extends only as far as its bound reaches.

The generic wrappers in :mod:`repro.algorithms.dijkstra` and
:mod:`repro.algorithms.yen` accept either a plain graph-like object (the
dict-based reference path) or a snapshot (the array path) and produce
bit-identical results for both.
"""

from .primitives import (
    ResumableSearch,
    bounded_dijkstra_arrays,
    dijkstra_arrays,
    dijkstra_arrays_multi,
    reconstruct_indices,
)
from .snapshot import CSRSnapshot

__all__ = [
    "CSRSnapshot",
    "ResumableSearch",
    "bounded_dijkstra_arrays",
    "dijkstra_arrays",
    "dijkstra_arrays_multi",
    "reconstruct_indices",
]
