"""Persistent partition/index store: O(load) cold start for DTLP.

Mirrors DGL's distributed-partitioning on-disk layout (``partition_graph``
→ ``part0/``, ``part1/``, … plus a ``node_map``): a manifest JSON with the
graph fingerprint, a node→home-partition map, and one directory per
partition holding the partition's nodes, edges and serialized first-level
index in contiguous *local* ids.  See ``ARCHITECTURE.md``, "Partition
quality & the partition store".
"""

from .partition_store import PartitionStore, StoreError, load_or_build

__all__ = [
    "PartitionStore",
    "StoreError",
    "load_or_build",
]
