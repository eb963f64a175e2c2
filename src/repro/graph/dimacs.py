"""Readers and writers for the DIMACS shortest-path challenge graph format.

The paper's datasets (NY, COL, FLA, CUSA) are distributed as DIMACS ``.gr``
files (one ``a u v w`` line per arc); the optional ``.co`` coordinate files
are not read.  This module lets users who have those files load them into a
:class:`~repro.graph.graph.DynamicGraph`; the bundled experiments use the
synthetic generators instead, but the loader keeps the library usable on the
real datasets.

Format summary (``.gr``)::

    c  comment lines
    p sp <num_vertices> <num_edges>
    a <tail> <head> <weight>

Vertex ids in DIMACS files are 1-based; they are preserved verbatim.
"""

from __future__ import annotations

import gzip
from pathlib import Path as FilePath
from typing import Optional, TextIO, Union

from .errors import GraphError
from .graph import DirectedDynamicGraph, DynamicGraph

__all__ = ["read_gr", "write_gr"]


def _open_text(path: Union[str, FilePath]) -> TextIO:
    """Open a possibly gzip-compressed text file for reading."""
    path = FilePath(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="ascii")
    return open(path, "rt", encoding="ascii")


def read_gr(
    path: Union[str, FilePath],
    directed: bool = True,
    weight_scale: float = 1.0,
) -> DynamicGraph:
    """Load a DIMACS ``.gr`` file into a dynamic graph.

    Parameters
    ----------
    path:
        Path to the ``.gr`` or ``.gr.gz`` file.
    directed:
        DIMACS road networks store both directions as separate arcs.  With
        ``directed=False`` duplicate opposite arcs are collapsed into one
        undirected edge (keeping the first weight seen), which matches the
        paper's undirected experiments.
    weight_scale:
        Multiplier applied to every weight (the DIMACS travel times are in
        arbitrary integer units; scaling keeps vfrag counts manageable).
    """
    graph: DynamicGraph = DirectedDynamicGraph() if directed else DynamicGraph()
    declared_edges: Optional[int] = None
    with _open_text(path) as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith("c"):
                continue
            fields = line.split()
            if fields[0] == "p":
                if len(fields) != 4 or fields[1] != "sp":
                    raise GraphError(
                        f"{path}:{line_number}: malformed problem line {line!r}"
                    )
                declared_edges = int(fields[3])
                continue
            if fields[0] == "a":
                if len(fields) != 4:
                    raise GraphError(
                        f"{path}:{line_number}: malformed arc line {line!r}"
                    )
                tail, head = int(fields[1]), int(fields[2])
                weight = float(fields[3]) * weight_scale
                if not directed and graph.has_edge(tail, head):
                    continue
                graph.add_edge(tail, head, weight)
                continue
            raise GraphError(
                f"{path}:{line_number}: unrecognised line {line!r}"
            )
    if declared_edges is not None and directed and graph.num_edges != declared_edges:
        # Not fatal: some published files count both directions, some do not.
        pass
    return graph


def write_gr(
    graph: DynamicGraph,
    path: Union[str, FilePath],
    comment: str = "written by repro.graph.dimacs",
) -> None:
    """Write ``graph`` to a DIMACS ``.gr`` file.

    Undirected graphs are written as two opposite arcs per edge, mirroring
    how the published road networks are distributed.
    """
    path = FilePath(path)
    arcs = []
    for u, v, weight in graph.edges():
        arcs.append((u, v, weight))
        if not graph.directed:
            arcs.append((v, u, weight))
    with open(path, "wt", encoding="ascii") as handle:
        handle.write(f"c {comment}\n")
        handle.write(f"p sp {graph.num_vertices} {len(arcs)}\n")
        for u, v, weight in arcs:
            if float(weight).is_integer():
                handle.write(f"a {u} {v} {int(weight)}\n")
            else:
                handle.write(f"a {u} {v} {weight}\n")


