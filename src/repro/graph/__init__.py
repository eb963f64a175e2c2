"""Graph substrate: dynamic graphs, subgraphs, partitioning, generators, IO."""

from .errors import (
    ClusterError,
    EdgeNotFoundError,
    GraphError,
    IndexStateError,
    InvalidWeightError,
    PartitionError,
    PathNotFoundError,
    QueryError,
    ReproError,
    StaleStructureError,
    VertexNotFoundError,
)
from .graph import DirectedDynamicGraph, DynamicGraph, WeightUpdate, edge_key
from .partition import GraphPartition, assemble_partition, partition_graph
from .partition_ml import (
    PARTITIONERS,
    make_partition,
    partition_mincut,
)
from .paths import Path, is_simple, merge_paths, path_edges
from .subgraph import SortedUnitWeights, Subgraph
from .generators import (
    DATASET_SPECS,
    RoadNetworkSpec,
    clustered_road_network,
    dataset,
    grid_graph,
    random_graph,
    road_network,
)
from .dimacs import read_coordinates, read_gr, write_gr

__all__ = [
    "ReproError",
    "GraphError",
    "VertexNotFoundError",
    "EdgeNotFoundError",
    "InvalidWeightError",
    "StaleStructureError",
    "PartitionError",
    "PathNotFoundError",
    "QueryError",
    "IndexStateError",
    "ClusterError",
    "DynamicGraph",
    "DirectedDynamicGraph",
    "WeightUpdate",
    "edge_key",
    "GraphPartition",
    "partition_graph",
    "assemble_partition",
    "partition_mincut",
    "make_partition",
    "PARTITIONERS",
    "Path",
    "is_simple",
    "merge_paths",
    "path_edges",
    "Subgraph",
    "SortedUnitWeights",
    "RoadNetworkSpec",
    "DATASET_SPECS",
    "clustered_road_network",
    "dataset",
    "grid_graph",
    "random_graph",
    "road_network",
    "read_gr",
    "write_gr",
    "read_coordinates",
]
