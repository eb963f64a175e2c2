"""Graph substrate: dynamic graphs, subgraphs, partitioning, generators, IO."""

from .graph import DynamicGraph, WeightUpdate
from .partition import partition_graph
from .partition_ml import partition_mincut
from .generators import clustered_road_network, dataset, random_graph, road_network
from .dimacs import read_gr, write_gr

__all__ = [
    "DynamicGraph",
    "WeightUpdate",
    "partition_graph",
    "partition_mincut",
    "clustered_road_network",
    "dataset",
    "random_graph",
    "road_network",
    "read_gr",
    "write_gr",
]
