"""Core contribution of the paper: the DTLP index and the KSP-DG algorithm."""

from .bounding_paths import BoundingPath, compute_bounding_paths
from .dtlp import DTLP, DTLPConfig, DTLPStatistics
from .ep_index import EPIndex
from .ksp_dg import KSPDG, KSPDGQuery, KSPResult, validate_kernel
from .skeleton import SkeletonGraph
from .subgraph_index import SubgraphIndex
from .variants import constrained_ksp, diverse_ksp, path_overlap

__all__ = [
    "BoundingPath",
    "compute_bounding_paths",
    "DTLP",
    "DTLPConfig",
    "DTLPStatistics",
    "EPIndex",
    "KSPDG",
    "KSPDGQuery",
    "KSPResult",
    "validate_kernel",
    "SkeletonGraph",
    "SubgraphIndex",
    "constrained_ksp",
    "diverse_ksp",
    "path_overlap",
]
