"""The frozen layout of a built DTLP, shared by its copies in one process.

DTLP indexes what does not move with traffic (Sections 3-4): the partition,
its boundary vertices and the bounding paths as vfrag sequences.  Only the
weights move.  :class:`IndexLayout` holds all of that fixed structure:

* the :class:`~repro.graph.partition.PartitionLayout` (each subgraph's
  topology, vertex -> subgraphs, edge -> owner, the boundary vertices);
* each subgraph index's :class:`~repro.core.subgraph_index.PathTables`;
* per canonical edge key its fold slot: ``(global edge id, owner, the
  owner's edge id, subgraphs whose weight epoch the edge bumps)``;
* per boundary pair the ``(subgraph id, pair number)`` of each subgraph
  holding it.

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
from typing import Dict, Optional, Tuple

from ..graph.partition import PartitionLayout
from .subgraph_index import PathTables

__all__ = ["IndexLayout"]

Pair = Tuple[int, int]
#: canonical edge key -> (global edge id, owner, owner's edge id, bumped ids)
EdgeSlots = Dict[Pair, Tuple[int, int, int, Tuple[int, ...]]]
#: boundary pair -> ((subgraph id, pair number), ...) of its holders
PairOwners = Dict[Pair, Tuple[Tuple[int, int], ...]]

_LIVE: "weakref.WeakValueDictionary[str, IndexLayout]" = weakref.WeakValueDictionary()
_LIVE_LOCK = threading.Lock()


class IndexLayout:
    """Everything of a built DTLP that no weight round or query writes."""

    __slots__ = ("token", "partition", "tables", "edge_slots", "pair_owners", "__weakref__")

    def __init__(
        self,
        partition: PartitionLayout,
        tables: Tuple[PathTables, ...],
        edge_slots: EdgeSlots,
        pair_owners: PairOwners,
        token: Optional[str] = None,
    ) -> None:
        self.token = uuid.uuid4().hex if token is None else token
        self.partition = partition
        self.tables = tables
        self.edge_slots = edge_slots
        self.pair_owners = pair_owners
        with _LIVE_LOCK:
            _LIVE[self.token] = self

    def __reduce__(self):
        state = (self.partition, self.tables, self.edge_slots, self.pair_owners)
        return _shared, (self.token, pickle.dumps(state, pickle.HIGHEST_PROTOCOL))


def _shared(token: str, state: bytes) -> IndexLayout:
    """The live layout registered under ``token``, else one made from
    ``state`` and registered under it."""
    with _LIVE_LOCK:
        live = _LIVE.get(token)
    return live if live is not None else IndexLayout(*pickle.loads(state), token=token)
