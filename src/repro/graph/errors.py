"""Exception hierarchy shared by the :mod:`repro` graph layer.

Every error raised by the library derives from :class:`ReproError` so that
callers embedding the library can catch one base class.  More specific
subclasses communicate the nature of the failure (bad input graph, missing
vertex, unreachable destination, ...) without forcing callers to parse
message strings.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """Base class for errors related to graph construction or mutation."""


class VertexNotFoundError(GraphError, KeyError):
    """Raised when an operation references a vertex that is not in the graph."""

    def __init__(self, vertex: int) -> None:
        super().__init__(f"vertex {vertex!r} is not present in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not present in the graph")
        self.u = u
        self.v = v


class StaleStructureError(GraphError):
    """Raised when a snapshot or index outlived a structural edit of its graph.

    Vertices or edges were added after it was built; only weight changes
    can be followed, so it must be rebuilt.
    """


class InvalidWeightError(GraphError, ValueError):
    """Raised when an edge weight is negative, NaN or otherwise unusable."""


class PartitionError(ReproError):
    """Raised when graph partitioning produces an inconsistent result."""


class PathNotFoundError(ReproError):
    """Raised when no path exists between the requested vertices."""

    def __init__(self, source: int, target: int) -> None:
        super().__init__(f"no path exists from {source!r} to {target!r}")
        self.source = source
        self.target = target


class QueryError(ReproError):
    """Raised when a KSP query is malformed (e.g. non-positive ``k``)."""


class IndexStateError(ReproError):
    """Raised when an index (DTLP, EP-Index, CANDS) is used before it is built."""


class ClusterError(ReproError):
    """Raised by the simulated distributed runtime for configuration errors."""


class ExecutorError(ReproError):
    """Raised by :mod:`repro.exec` for backend configuration/lifecycle errors."""


class ExecutorTaskError(ExecutorError):
    """A task shipped to an execution backend raised an exception.

    Worker-side exceptions cannot always be pickled back faithfully, so the
    remote failure is transported as text and re-raised under this type.

    Attributes
    ----------
    remote_type:
        Qualified name of the exception type raised in the worker.
    remote_traceback:
        Formatted traceback text captured in the worker.
    """

    def __init__(self, remote_type: str, message: str, remote_traceback: str = "") -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type
        self.remote_traceback = remote_traceback
