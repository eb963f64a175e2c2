"""Shortest-path algorithms: Dijkstra primitives, Yen, FindKSP and CANDS baselines."""

from .cands import CandsIndex
from .dijkstra import (
    dijkstra,
    iter_neighbors,
    shortest_distance,
    shortest_path,
    shortest_path_tree,
)
from .find_ksp import FindKSP, find_ksp
from .yen import LazyYen, yen_k_shortest_paths

__all__ = [
    "dijkstra",
    "iter_neighbors",
    "shortest_distance",
    "shortest_path",
    "shortest_path_tree",
    "LazyYen",
    "yen_k_shortest_paths",
    "FindKSP",
    "find_ksp",
    "CandsIndex",
]
