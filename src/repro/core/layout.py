"""The frozen layout of a built DTLP, shared by its copies in one process.

DTLP indexes what does not move with traffic (Sections 3-4): the partition,
its boundary vertices and the bounding paths as vfrag sequences.  Only the
weights move.  :class:`IndexLayout` holds all of that fixed structure:

* the :class:`~repro.graph.partition.PartitionLayout` (each subgraph's
  topology, vertex -> subgraphs, edge -> owner, the boundary vertices);
* each subgraph index's :class:`~repro.core.subgraph_index.PathTables`;
* per canonical edge key its fold slot: ``(global edge id, owner, the
  owner's edge id, subgraphs holding both endpoints)``, and per global edge
  id the ``(row, offset in row)`` of its arcs in the owner's
  :class:`~repro.kernel.snapshot.CSRSnapshot`;
* per skeleton pair (a skeleton arc) its endpoints, the ``(subgraph id,
  pair number)`` of each subgraph pricing it and the ``(row, offset in
  row)`` of its arcs in the skeleton graph's arc order, which is its
  :class:`~repro.core.skeleton.SkeletonSearchView`'s, and per subgraph the
  skeleton pairs it holds.

The addresses are a function of the topologies and of the skeleton's
adjacency order, which no round moves, so a round writes every kernel view
by address instead of searching its rows.  No weight lives here: an edge
weight's one copy per index is its owner's unit weights (plus one per
kernel view), and a skeleton bound's its holders' pair bounds.

A layout pickles as a process-fresh token plus its state, the state
pickled on its own into one bytes object.  Unpickling returns the live
layout of that token when this process holds one, and otherwise unpickles
the state into a layout registered under the token; so an in-process copy
never materialises the state it would drop.  So in-process copies of a
``(graph, DTLP)`` pair share one layout, while an executor worker process
or a partition-store load builds its own.  The token is never written to
disk.  Nothing in a layout is written after it is made.
"""

from __future__ import annotations

import pickle
import threading
import uuid
import weakref
from array import array
from typing import Dict, Optional, Tuple

from ..graph.partition import PartitionLayout
from .subgraph_index import PathTables

__all__ = ["IndexLayout"]

Pair = Tuple[int, int]
#: canonical edge key -> (global edge id, owner, owner's edge id, ids of the
#: subgraphs holding both endpoints)
EdgeSlots = Dict[Pair, Tuple[int, int, int, Tuple[int, ...]]]
#: per skeleton pair id: (u, v, ((subgraph id, pair number), ...) of the
#: holders with bounding paths, ((row, offset) of arc (u, v), and of arc
#: (v, u) when undirected))
SkeletonPairs = Tuple[
    Tuple[int, int, Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]], ...
]

_LIVE: "weakref.WeakValueDictionary[str, IndexLayout]" = weakref.WeakValueDictionary()
_LIVE_LOCK = threading.Lock()


class IndexLayout:
    """Everything of a built DTLP that no weight round or query writes."""

    __slots__ = (
        "token", "partition", "tables", "edge_slots", "edge_arcs",
        "skeleton_pairs", "owner_pairs", "__weakref__",
    )

    def __init__(
        self,
        partition: PartitionLayout,
        tables: Tuple[PathTables, ...],
        edge_slots: EdgeSlots,
        edge_arcs: array,
        skeleton_pairs: SkeletonPairs,
        owner_pairs: Tuple[Tuple[int, ...], ...],
        token: Optional[str] = None,
    ) -> None:
        self.token = uuid.uuid4().hex if token is None else token
        self.partition = partition
        self.tables = tables
        self.edge_slots = edge_slots
        #: global edge id g -> entries 4g .. 4g + 3: row and offset in row of
        #: its arc (u, v), then of (v, u) (-1, -1 when directed), in the
        #: owner's subgraph snapshot
        self.edge_arcs = edge_arcs
        self.skeleton_pairs = skeleton_pairs
        #: subgraph id -> ids of the skeleton pairs it holds
        self.owner_pairs = owner_pairs
        with _LIVE_LOCK:
            _LIVE[self.token] = self

    def __reduce__(self):
        state = (self.partition, self.tables, self.edge_slots, self.edge_arcs,
                 self.skeleton_pairs, self.owner_pairs)
        return _shared, (self.token, pickle.dumps(state, pickle.HIGHEST_PROTOCOL))


def _shared(token: str, state: bytes) -> IndexLayout:
    """The live layout registered under ``token``, else one made from
    ``state`` and registered under it."""
    with _LIVE_LOCK:
        live = _LIVE.get(token)
    return live if live is not None else IndexLayout(*pickle.loads(state), token=token)
