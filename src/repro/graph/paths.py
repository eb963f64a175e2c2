"""Path primitives used throughout the library.

A *path* is a sequence of vertices; the library stores it as an immutable
:class:`Path` object carrying both the vertex sequence and the distance under
the edge weights it was computed against.  Because graphs in this project are
dynamic, a path's distance is a snapshot value: helpers are provided to
re-evaluate a path against the current weights of a graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Tuple

__all__ = ["Path", "merge_paths", "is_simple", "path_edges"]


def path_edges(vertices: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """Yield the consecutive vertex pairs (edges) along ``vertices``.

    >>> list(path_edges((1, 2, 3)))
    [(1, 2), (2, 3)]
    """
    for index in range(len(vertices) - 1):
        yield vertices[index], vertices[index + 1]


def is_simple(vertices: Sequence[int]) -> bool:
    """Return ``True`` when ``vertices`` contains no repeated vertex.

    The paper restricts all k-shortest-path results to simple (loop-less)
    paths, so this predicate is used both by the algorithms and by tests.
    """
    return len(set(vertices)) == len(vertices)


@dataclass(frozen=True, order=True, slots=True)
class Path:
    """An immutable weighted path.

    Ordering compares ``(distance, vertices)`` which makes lists of paths
    sortable by distance with deterministic tie-breaking, a property the
    KSP algorithms rely on for reproducible output.  Slotted: a served
    answer and the partial-KSP memo hold many of them.

    Attributes
    ----------
    distance:
        Total distance of the path under the weights it was computed with.
    vertices:
        The vertex sequence, source first and destination last.
    """

    distance: float
    vertices: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))

    @property
    def source(self) -> int:
        """First vertex of the path."""
        return self.vertices[0]

    @property
    def target(self) -> int:
        """Last vertex of the path."""
        return self.vertices[-1]

    @property
    def num_edges(self) -> int:
        """Number of edges (hops) on the path."""
        return max(len(self.vertices) - 1, 0)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over the edges of the path as ``(u, v)`` pairs."""
        return path_edges(self.vertices)

    def is_simple(self) -> bool:
        """Return ``True`` when the path has no repeated vertices."""
        return is_simple(self.vertices)

    def with_distance(self, distance: float) -> "Path":
        """Return a copy of this path carrying ``distance``."""
        return Path(distance, self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self.vertices

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        chain = " -> ".join(str(v) for v in self.vertices)
        return f"Path[{self.distance:g}] {chain}"


def merge_paths(first: Path, second: Path) -> Path:
    """Concatenate two paths that share a junction vertex.

    ``first`` must end at the vertex where ``second`` starts.  The merged
    distance is the sum of both distances (the junction vertex is counted
    once).  Raises :class:`ValueError` if the paths do not line up.
    """
    if not first.vertices or not second.vertices:
        raise ValueError("cannot merge empty paths")
    if first.target != second.source:
        raise ValueError(
            f"paths do not join: first ends at {first.target!r}, "
            f"second starts at {second.source!r}"
        )
    vertices = first.vertices + second.vertices[1:]
    return Path(first.distance + second.distance, vertices)
