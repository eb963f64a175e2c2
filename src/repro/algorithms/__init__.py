"""Shortest-path algorithms: Dijkstra primitives, Yen, FindKSP and CANDS baselines."""

from .cands import CandsIndex
from .dijkstra import shortest_path
from .yen import yen_k_shortest_paths

__all__ = [
    "shortest_path",
    "yen_k_shortest_paths",
    "CandsIndex",
]
