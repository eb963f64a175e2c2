"""Core contribution of the paper: the DTLP index and the KSP-DG algorithm."""

from .dtlp import DTLP, DTLPConfig
from .ksp_dg import KSPDG

__all__ = [
    "DTLP",
    "DTLPConfig",
    "KSPDG",
]
