"""Dynamic weighted graphs.

This module implements the graph model of Definition 1 in the paper: a graph
whose edge weights (travel times) change over time.  Two concrete classes are
provided:

* :class:`DynamicGraph` — an undirected dynamic graph stored as adjacency
  dictionaries.  This is the primary data structure; road networks in the
  paper are treated as undirected graphs unless stated otherwise.
* :class:`DirectedDynamicGraph` — the directed variant used by the directed
  CUSA experiments (Section 5.3 / 6.3).

Both classes track, for every edge, the *initial* weight recorded when the
edge was inserted.  The initial weight defines the number of *virtual
fragments* (vfrags) used by the DTLP index: an edge with initial weight
``w0`` consists of ``round(w0)`` vfrags whose unit weight is ``w / w0``.

Weight updates are applied through :meth:`DynamicGraph.update_weight` /
:meth:`DynamicGraph.apply_updates`, which also notify registered listeners —
this is how the DTLP index and the CANDS baseline keep themselves current.

The classes deliberately avoid depending on third-party graph libraries so
the repository is a self-contained reference implementation.  The per-edge
version counters double as the change feed (:meth:`DynamicGraph.edges_changed_since`)
that keeps the array-backed kernel snapshots current; see ``ARCHITECTURE.md``.
"""

from __future__ import annotations

import bisect
import math
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from .errors import (
    EdgeNotFoundError,
    InvalidWeightError,
    VertexNotFoundError,
)
from .paths import Path

__all__ = [
    "WeightUpdate",
    "edge_key",
    "DynamicGraph",
    "DirectedDynamicGraph",
]


def edge_key(u: int, v: int) -> Tuple[int, int]:
    """Return the canonical (sorted) key of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class WeightUpdate:
    """A single edge-weight change event.

    Attributes
    ----------
    u, v:
        Endpoints of the edge whose weight changes.
    new_weight:
        The weight after the change.
    timestamp:
        Optional logical timestamp (snapshot counter) of the change.
    """

    __slots__ = ("u", "v", "new_weight", "timestamp")

    def __init__(self, u: int, v: int, new_weight: float, timestamp: int = 0) -> None:
        if new_weight < 0 or math.isnan(new_weight) or math.isinf(new_weight):
            raise InvalidWeightError(
                f"weight of edge ({u}, {v}) must be finite and non-negative, "
                f"got {new_weight!r}"
            )
        self.u = u
        self.v = v
        self.new_weight = float(new_weight)
        self.timestamp = timestamp

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WeightUpdate(u={self.u}, v={self.v}, "
            f"new_weight={self.new_weight}, timestamp={self.timestamp})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightUpdate):
            return NotImplemented
        return (
            self.u == other.u
            and self.v == other.v
            and self.new_weight == other.new_weight
            and self.timestamp == other.timestamp
        )

    def __hash__(self) -> int:
        return hash((self.u, self.v, self.new_weight, self.timestamp))


UpdateListener = Callable[[Sequence[WeightUpdate]], None]


class DynamicGraph:
    """An undirected graph with mutable non-negative edge weights.

    The graph keeps three pieces of state per edge: the *current* weight,
    the *initial* weight (fixed at insertion time, used to derive virtual
    fragments), and implicitly the number of vfrags
    (``max(1, round(initial_weight))``).

    Parameters
    ----------
    directed:
        Internal flag used by :class:`DirectedDynamicGraph`; library users
        should instantiate the directed subclass instead of passing ``True``.
    """

    def __init__(self, directed: bool = False) -> None:
        self._directed = directed
        # vertex -> {neighbour -> current weight}
        self._adjacency: Dict[int, Dict[int, float]] = {}
        # canonical edge key -> initial weight
        self._initial_weights: Dict[Tuple[int, int], float] = {}
        self._listeners: List[UpdateListener] = []
        self._version = 0
        # Bumped whenever a vertex or edge is actually new; what was built
        # from the graph (snapshots, DTLP) records it and refuses to go on
        # once it moved.
        self._structure_version = 0
        # canonical edge key -> version at which the edge last changed weight
        self._edge_versions: Dict[Tuple[int, int], int] = {}
        # Append-only (version, edge key) log of weight changes, so
        # edges_changed_since(v) costs O(changes after v) instead of
        # O(all edges ever changed).  Compacted once it outgrows 2 * |E|
        # (see apply_updates); _change_log_floor is the newest version
        # whose changes may have been dropped from the log.
        self._change_log: List[Tuple[int, Tuple[int, int]]] = []
        self._change_log_floor = 0

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def directed(self) -> bool:
        """Whether the graph is directed."""
        return self._directed

    @property
    def version(self) -> int:
        """Monotone counter incremented on every batch of weight updates."""
        return self._version

    @property
    def structure_version(self) -> int:
        """Monotone counter incremented when a vertex or an edge is added.

        Weight updates never move it.  Everything derived from the graph's
        topology records the value it was built at and raises
        :class:`~repro.graph.errors.StaleStructureError` once it differs.
        """
        return self._structure_version

    @property
    def num_vertices(self) -> int:
        """Number of vertices currently in the graph."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of edges currently in the graph."""
        return len(self._initial_weights)

    def vertices(self) -> Iterator[int]:
        """Iterate over all vertices."""
        return iter(self._adjacency)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over all edges as ``(u, v, current_weight)`` tuples.

        For undirected graphs every edge is reported once with ``u <= v``;
        for directed graphs every arc is reported in its stored direction.
        """
        for (u, v) in self._initial_weights:
            yield u, v, self._adjacency[u][v]

    def has_vertex(self, vertex: int) -> bool:
        """Return ``True`` when ``vertex`` is in the graph."""
        return vertex in self._adjacency

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the edge ``(u, v)`` is in the graph."""
        return u in self._adjacency and v in self._adjacency[u]

    def neighbors(self, vertex: int) -> Mapping[int, float]:
        """Return the neighbour → weight mapping for ``vertex``.

        The returned mapping is the live adjacency dictionary; callers must
        not mutate it.
        """
        try:
            return self._adjacency[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def degree(self, vertex: int) -> int:
        """Number of incident edges (out-degree for directed graphs)."""
        return len(self.neighbors(vertex))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: int) -> None:
        """Insert an isolated vertex (no-op if already present)."""
        if vertex not in self._adjacency:
            self._adjacency[vertex] = {}
            self._structure_version += 1

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Insert the edge ``(u, v)`` with the given initial weight.

        Inserting an edge that already exists overwrites its current weight
        but keeps the original initial weight, matching the paper's model in
        which the vfrag count of an edge never changes.
        """
        if u == v:
            raise InvalidWeightError(f"self-loop on vertex {u} is not allowed")
        if weight < 0 or math.isnan(weight) or math.isinf(weight):
            raise InvalidWeightError(
                f"weight of edge ({u}, {v}) must be finite and non-negative, "
                f"got {weight!r}"
            )
        self.add_vertex(u)
        self.add_vertex(v)
        key = self._key(u, v)
        if v not in self._adjacency[u]:
            self._structure_version += 1
        self._adjacency[u][v] = float(weight)
        if not self._directed:
            self._adjacency[v][u] = float(weight)
        self._initial_weights.setdefault(key, float(weight) if weight > 0 else 1.0)

    def _key(self, u: int, v: int) -> Tuple[int, int]:
        return (u, v) if self._directed else edge_key(u, v)

    # ------------------------------------------------------------------
    # weights and vfrags
    # ------------------------------------------------------------------
    def weight(self, u: int, v: int) -> float:
        """Return the current weight of edge ``(u, v)``."""
        try:
            return self._adjacency[u][v]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def initial_weight(self, u: int, v: int) -> float:
        """Return the weight the edge had when it was first inserted."""
        key = self._key(u, v)
        try:
            return self._initial_weights[key]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def vfrag_count(self, u: int, v: int) -> int:
        """Number of virtual fragments of edge ``(u, v)``.

        Defined in Section 3.4 of the paper as the initial weight of the
        edge; we round to the nearest integer and never go below one so the
        decomposition stays meaningful for fractional travel times.
        """
        return max(1, int(round(self.initial_weight(u, v))))

    def unit_weight(self, u: int, v: int) -> float:
        """Current weight of one virtual fragment of edge ``(u, v)``."""
        return self.weight(u, v) / self.vfrag_count(u, v)

    def edges_changed_since(self, version: int) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(u, v, current_weight)`` for edges changed after ``version``.

        Walks the append-only change log from the first entry newer than
        ``version`` (found by bisection), so the cost is O(changes after
        ``version``) — each edge reported once with its current weight.
        The log holds at most ``2 * num_edges`` entries after any batch of
        up to ``num_edges`` updates; callers that fell behind a compaction
        fall back to scanning the per-edge version table, O(edges ever
        changed) <= |E| — no dearer than the log it replaces.  This is the
        feed of :meth:`repro.core.dtlp.DTLP.subgraph_snapshot` (one walk per
        graph version for every subgraph snapshot together) and of a
        stand-alone :meth:`repro.kernel.snapshot.CSRSnapshot.refresh`: a
        snapshot built at version ``t`` becomes current again by rewriting
        exactly these weights.  Edges are reported with their canonical
        orientation (``u <= v`` for undirected graphs).
        """
        if version >= self._version:
            return
        if version >= self._change_log_floor:
            # A 1-tuple sorts before every (version + 1, key) entry, so this
            # finds the first change strictly newer than ``version``.
            start = bisect.bisect_left(self._change_log, (version + 1,))
            # The same edge may appear in several batches; report it once.
            seen: set = set()
            for _, key in self._change_log[start:]:
                if key in seen:
                    continue
                seen.add(key)
                u, v = key
                yield u, v, self._adjacency[u][v]
            return
        for key, edge_version in self._edge_versions.items():
            if edge_version > version:
                u, v = key
                yield u, v, self._adjacency[u][v]

    def path_distance(self, vertices: Sequence[int]) -> float:
        """Distance of the path ``vertices`` under the current weights.

        :meth:`weight` summed left to right, written as one loop over the
        adjacency: Algorithm 2 re-prices every touched bounding path here.
        """
        adjacency = self._adjacency
        total = 0.0
        u = v = None
        try:
            for u, v in zip(vertices, vertices[1:]):
                total += adjacency[u][v]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None
        return total

    def path(self, vertices: Sequence[int]) -> Path:
        """Build a :class:`Path` for ``vertices`` using current weights."""
        return Path(self.path_distance(vertices), tuple(vertices))

    # ------------------------------------------------------------------
    # dynamics
    # ------------------------------------------------------------------
    def add_listener(self, listener: UpdateListener) -> None:
        """Register a callback invoked after every batch of weight updates."""
        self._listeners.append(listener)

    def has_listener(self, listener: UpdateListener) -> bool:
        """Return ``True`` when ``listener`` is currently registered.

        Bound methods compare equal per instance, so
        ``graph.has_listener(index.handle_updates)`` answers whether that
        index is already wired up — used by idempotent attach helpers.
        """
        return listener in self._listeners

    def remove_listener(self, listener: UpdateListener) -> None:
        """Unregister a previously added listener (no-op when absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def update_weight(self, u: int, v: int, new_weight: float) -> WeightUpdate:
        """Change the weight of one edge and notify listeners."""
        update = WeightUpdate(u, v, new_weight, timestamp=self._version + 1)
        self.apply_updates([update])
        return update

    def apply_updates(self, updates: Sequence[WeightUpdate]) -> None:
        """Apply a batch of weight updates atomically and notify listeners.

        All updates in the batch share the new graph version; listeners are
        called once with the full batch so that index structures can process
        the changes efficiently (Algorithm 2 in the paper updates the DTLP
        per changed edge, but batching the notification avoids Python-level
        overhead for large snapshots).
        """
        # Validate the whole batch before touching any weight so a bad
        # update cannot leave the graph half-applied with no version bump
        # or listener notification (atomicity, as promised above).
        for update in updates:
            if not self.has_edge(update.u, update.v):
                raise EdgeNotFoundError(update.u, update.v)
        applied: List[WeightUpdate] = []
        for update in updates:
            u, v = update.u, update.v
            self._adjacency[u][v] = update.new_weight
            if not self._directed:
                self._adjacency[v][u] = update.new_weight
            applied.append(update)
        if not applied:
            return
        self._version += 1
        for update in applied:
            key = self._key(update.u, update.v)
            self._edge_versions[key] = self._version
            self._change_log.append((self._version, key))
        # Past 2 * |E| entries the version-table fallback of
        # edges_changed_since is no dearer than the log: drop the older half.
        if len(self._change_log) > 2 * len(self._initial_weights):
            keep_from = len(self._change_log) // 2
            self._change_log_floor = self._change_log[keep_from - 1][0]
            del self._change_log[:keep_from]
        for listener in list(self._listeners):
            listener(applied)

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Pickle the graph without its listeners.

        Listeners are arbitrary callables (often bound methods of services
        holding sockets or thread pools) and are observer wiring, not graph
        state.  A graph shipped to an executor worker process arrives with
        an empty listener list; the worker re-wires whatever maintenance it
        needs explicitly (see :mod:`repro.distributed.runtime`).
        """
        state = dict(self.__dict__)
        state["_listeners"] = []
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # snapshots and copies
    # ------------------------------------------------------------------
    def snapshot(self) -> "DynamicGraph":
        """Return a deep copy representing the current version (``G_curr``).

        The paper processes each query against the most recent snapshot of
        the evolving graph; this method produces such a snapshot.  Listeners
        are not copied.
        """
        clone = DirectedDynamicGraph() if self._directed else DynamicGraph()
        clone._adjacency = {v: dict(nbrs) for v, nbrs in self._adjacency.items()}
        clone._initial_weights = dict(self._initial_weights)
        clone._version = self._version
        clone._structure_version = self._structure_version
        clone._edge_versions = dict(self._edge_versions)
        # The change log is not copied: queries older than the clone point
        # must fall back to the version-table scan.
        clone._change_log_floor = self._version
        return clone

    def total_weight(self) -> float:
        """Sum of current weights over all edges (useful for sanity checks)."""
        return sum(self._adjacency[u][v] for (u, v) in self._initial_weights)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "DirectedDynamicGraph" if self._directed else "DynamicGraph"
        return f"<{kind} |V|={self.num_vertices} |E|={self.num_edges} v{self._version}>"


class DirectedDynamicGraph(DynamicGraph):
    """Directed variant of :class:`DynamicGraph`.

    Arcs ``(u, v)`` and ``(v, u)`` are independent edges with independent
    weights and vfrag decompositions, matching the directed-graph discussion
    in Section 5.3 of the paper.
    """

    def __init__(self) -> None:
        super().__init__(directed=True)

    def reverse(self) -> "DirectedDynamicGraph":
        """Return a new graph with every arc reversed (used by FindKSP's SPT)."""
        reversed_graph = DirectedDynamicGraph()
        for vertex in self.vertices():
            reversed_graph.add_vertex(vertex)
        for u, v, weight in self.edges():
            reversed_graph.add_edge(v, u, weight)
            reversed_graph._initial_weights[(v, u)] = self.initial_weight(u, v)
        return reversed_graph
