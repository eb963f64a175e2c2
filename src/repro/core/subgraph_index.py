"""Per-subgraph first-level DTLP index.

The first level of DTLP (Sections 3.4-3.7 of the paper) lives on the worker
that owns a subgraph.  For each pair of boundary vertices of the subgraph it
maintains:

* the set of bounding paths (stable under weight changes),
* the current actual distance of each bounding path (kept up to date through
  the EP-Index when weights change),
* the bound distance of each bounding path (the sum of its vfrag-count many
  smallest unit weights of the subgraph),
* the resulting *lower bound distance* (Definitions 6-7, Theorem 1).

All of it in index space (ARCHITECTURE.md, "A round in index space"): the
structure is built once into :class:`PathTables`, and a weight update
writes edge weights, path prices, the unit-weight prefix and the pair
bounds, nothing else.

The class also exposes the statistics the evaluation section reports
(number of bounding paths, EP-Index size, maintenance timing hooks).
"""

from __future__ import annotations

import sys
import time
from array import array
from itertools import compress
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..algorithms.dijkstra import vfrag_label_search, vfrag_rows
from ..graph.errors import IndexStateError
from ..graph.graph import edge_key
from ..graph.subgraph import SortedUnitWeights, Subgraph
from .bounding_paths import BoundingPath
from .ep_index import EPIndex

__all__ = ["PathTables", "SubgraphIndex"]

Pair = Tuple[int, int]


class PathTables(NamedTuple):
    """What a :class:`SubgraphIndex` never writes after build: the edge
    numbering and vfrag counts of its :class:`SortedUnitWeights` with the
    prefix depth, per bounding path its first vertex, edge ids and vfrag
    count, the EP-Index, and per boundary pair its key, path numbers and
    prefix depth (``pair_numbers`` maps a key to its pair number).

    Copies of a built DTLP in one process share it (see
    :class:`~repro.core.layout.IndexLayout`).
    """

    edge_ids: Dict[Pair, int]
    vfrags: List[int]
    depth: int
    path_sources: array
    path_edges: List[Tuple[int, ...]]
    path_vfrags: array
    ep_index: EPIndex
    pair_keys: List[Pair]
    pair_numbers: Dict[Pair, int]
    pair_paths: List[List[int]]
    pair_depth: array


class SubgraphIndex:
    """Bounding paths, EP-Index and lower-bound distances for one subgraph.

    Parameters
    ----------
    subgraph:
        The subgraph this index covers.
    xi:
        Number of distinct vfrag counts (bounding paths) per boundary pair.
    directed:
        When ``True`` bounding paths are computed separately for both
        directions of every boundary pair (Section 5.3).
    max_expansions:
        Cap on heap pops per bounding-path search; see
        :func:`repro.algorithms.dijkstra.vfrag_label_search`.
        :attr:`truncated_searches` counts the searches it cut short.
    """

    def __init__(
        self,
        subgraph: Subgraph,
        xi: int,
        directed: bool = False,
        max_expansions: int = 20_000,
    ) -> None:
        if xi <= 0:
            raise ValueError(f"xi must be positive, got {xi}")
        self._subgraph = subgraph
        self._xi = xi
        self._directed = directed
        self._max_expansions = max_expansions
        self._built = False
        self._build_seconds = 0.0
        self._truncated_searches = 0
        #: Theorem 1's bound of the i-th pair of :meth:`boundary_pairs`.
        self.pair_bounds: List[Optional[float]] = []
        self._install([], [], [])

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def subgraph(self) -> Subgraph:
        """The indexed subgraph."""
        return self._subgraph

    @property
    def ep_index(self) -> EPIndex:
        """The edge-to-paths maintenance index."""
        return self._tables.ep_index

    @property
    def tables(self) -> PathTables:
        """The index's build-time structure."""
        return self._tables

    @property
    def built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._built

    @property
    def build_seconds(self) -> float:
        """Wall-clock time the last :meth:`build` call took."""
        return self._build_seconds

    @property
    def truncated_searches(self) -> int:
        """Bounding-path searches of the last :meth:`build` that stopped on
        ``max_expansions`` with a boundary target still short of ``xi``
        counts — each may have loosened Theorem 1's bound for its pairs."""
        return self._truncated_searches

    @property
    def edge_ids(self) -> Dict[Pair, int]:
        """Canonical edge key -> the dense edge id used by this index."""
        return self._tables.edge_ids

    def boundary_pairs(self) -> Iterator[Pair]:
        """Iterate over the indexed boundary-vertex pairs."""
        return iter(self._tables.pair_keys)

    def num_bounding_paths(self) -> int:
        """Total number of bounding paths stored for this subgraph."""
        return len(self._prices)

    def bounding_paths(self, source: int, target: int) -> List[BoundingPath]:
        """The bounding paths for one (ordered) boundary pair."""
        tables = self._tables
        pair = tables.pair_numbers.get(self._pair_key(source, target))
        return [] if pair is None else self._records(tables.pair_paths[pair])

    def path(self, path_id: int) -> BoundingPath:
        """A record of bounding path ``path_id`` at its current price."""
        return self._records([path_id])[0]

    def _records(self, numbers: Sequence[int]) -> List[BoundingPath]:
        return [BoundingPath(p, vertices[0], vertices[-1], vertices,
                             self._tables.path_vfrags[p], self._prices[p])
                for p, vertices in zip(numbers, self._walks(numbers))]

    def _walks(self, numbers: Sequence[int]) -> Iterator[Tuple[int, ...]]:
        """The vertex tuples of paths ``numbers``, rebuilt rather than stored:
        from each path's first vertex, its edge ids walked over the sorted
        edge keys (read by records and the store, never by a query)."""
        tables = self._tables
        keys = list(tables.edge_ids)  # insertion order is id order
        for p in numbers:
            vertex = tables.path_sources[p]
            walk = [vertex]
            for edge in tables.path_edges[p]:
                u, v = keys[edge]
                vertex = v if vertex == u else u
                walk.append(vertex)
            yield tuple(walk)

    def memory_estimate_bytes(self) -> int:
        """Bytes of the index's arrays, lists and tuples as ``sys.getsizeof``
        counts them, plus the float objects the float lists point to."""
        units, tables = self._units, self._tables
        floats = (units.weights, units.prefix, self._prices, self.pair_bounds)
        others = (units.vfrags, tables.path_vfrags, tables.pair_depth,
                  tables.path_sources, tables.path_edges, tables.pair_paths,
                  *tables.path_edges, *tables.pair_paths)
        return (tables.ep_index.memory_estimate_bytes()
                + sum(map(sys.getsizeof, floats + others))
                + sys.getsizeof(0.0) * sum(map(len, floats)))

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def _pair_key(self, source: int, target: int) -> Pair:
        if self._directed:
            return (source, target)
        return edge_key(source, target)

    def build(self) -> "SubgraphIndex":
        """Compute bounding paths for every pair of boundary vertices.

        Follows Algorithm 1: for each pair of boundary vertices of the
        subgraph, compute the bounding paths, register them in the EP-Index
        and record their current distances.  The search runs once per
        boundary *source* (serving every other boundary vertex in one pass),
        which keeps index construction polynomial even for large ``z``.
        """
        started = time.perf_counter()
        boundary = sorted(self._subgraph.boundary_vertices)
        self._truncated_searches = 0
        vertices: List[Tuple[int, ...]] = []
        vfrags: List[int] = []
        pairs: List[Tuple[Pair, List[int]]] = []
        # Seeded with the boundary, so boundary[i] has local index i.
        ids, rows = vfrag_rows(self._subgraph, boundary)
        for position, source in enumerate(boundary):
            # Undirected: each unordered pair is indexed once, from its
            # smaller endpoint.
            first_wanted = 0 if self._directed else position + 1
            per_target, truncated = vfrag_label_search(
                ids,
                rows,
                position,
                self._xi,
                wanted=range(first_wanted, len(boundary)),
                max_expansions=self._max_expansions,
            )
            self._truncated_searches += truncated
            for target, raw_paths in per_target.items():
                first = len(vertices)
                for count, path_vertices in raw_paths:
                    vertices.append(path_vertices)
                    vfrags.append(count)
                key = self._pair_key(source, target)
                pairs.append((key, list(range(first, len(vertices)))))
        self._install(vertices, vfrags, pairs)
        self._built = True
        self._build_seconds = time.perf_counter() - started
        return self

    def _install(
        self,
        vertices: List[Tuple[int, ...]],
        vfrags: List[int],
        pairs: List[Tuple[Pair, List[int]]],
        prices: Optional[List[float]] = None,
    ) -> None:
        """Lay bounding paths out in index space: path ``p`` is
        ``vertices[p]`` with ``vfrags[p]``, kept as its first vertex and its
        edge ids; each pair lists its path numbers, and ``prices`` (a
        restored index's) default to the live weights."""
        units = SortedUnitWeights(self._subgraph, depth=max(vfrags, default=0))
        edge_ids = units.edge_ids
        directed = self._subgraph.directed
        try:
            path_edges = [tuple(edge_ids[(u, v) if directed or u <= v else (v, u)]
                                for u, v in zip(path, path[1:])) for path in vertices]
        except KeyError:
            raise IndexStateError(
                f"a bounding path leaves subgraph {self._subgraph.subgraph_id}"
            ) from None
        self._units = units
        pair_keys = [key for key, _ in pairs]
        pair_paths = [numbers for _, numbers in pairs]
        self._tables = PathTables(
            edge_ids=edge_ids,
            vfrags=units.vfrags,
            depth=units.depth,
            path_sources=array("q", [path[0] for path in vertices]),
            path_edges=path_edges,
            path_vfrags=array("i", vfrags),
            ep_index=EPIndex(edge_ids, path_edges, directed),
            pair_keys=pair_keys,
            pair_numbers={key: number for number, key in enumerate(pair_keys)},
            pair_paths=pair_paths,
            # Bound distances grow with the vfrag count, so Theorem 1 reads
            # the prefix once per pair, at its widest path.
            pair_depth=array("i", (min(max(vfrags[p] for p in numbers), units.depth)
                                   if numbers else 0 for numbers in pair_paths)),
        )
        self._prices = [0.0] * len(vertices) if prices is None else prices
        if prices is None:
            self._price(range(len(vertices)))
        self._refresh_bounds()

    def rebind(self, subgraph: Subgraph) -> "SubgraphIndex":
        """Re-point the index at an equivalent subgraph object.

        The parallel DTLP build constructs indexes inside executor worker
        processes; what comes back references the *worker's* copy of the
        partition and graph.  Rebinding swaps in the caller's live subgraph
        — which must have the same id, vertex set and edge set — so that
        subsequent maintenance reads weights from the live graph.  The
        stored path distances are unaffected: both copies carried identical
        weights when the index was built.
        """
        if subgraph.subgraph_id != self._subgraph.subgraph_id:
            raise IndexStateError(
                f"cannot rebind index of subgraph {self._subgraph.subgraph_id} "
                f"to subgraph {subgraph.subgraph_id}"
            )
        if (
            subgraph.vertices != self._subgraph.vertices
            or subgraph.edge_set != self._subgraph.edge_set
        ):
            raise IndexStateError(
                f"cannot rebind index of subgraph {self._subgraph.subgraph_id}: "
                "vertex or edge set differs"
            )
        self._subgraph = subgraph
        return self

    # ------------------------------------------------------------------
    # copies (DTLP pickling)
    # ------------------------------------------------------------------
    def own_state(self) -> Dict[str, object]:
        """Everything but the subgraph and the tables: the parameters, the
        build facts and what a weight round writes (the weights and prefix
        of :class:`SortedUnitWeights`, prices, :attr:`pair_bounds`)."""
        state = self.__dict__.copy()
        del state["_subgraph"], state["_tables"]
        units = state.pop("_units")
        state["_units"] = (units.weights, units.prefix)
        return state

    @classmethod
    def view(
        cls, subgraph: Subgraph, tables: PathTables, state: Dict[str, object]
    ) -> "SubgraphIndex":
        """An index of ``subgraph`` over ``tables`` (not copied) holding
        :meth:`own_state` ``state``."""
        index = cls.__new__(cls)
        index.__dict__.update(state)
        index._subgraph, index._tables = subgraph, tables
        weights, prefix = state["_units"]
        index._units = SortedUnitWeights.over(
            tables.edge_ids, tables.vfrags, tables.depth, weights, prefix
        )
        return index

    # ------------------------------------------------------------------
    # serialization (repro.store)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Plain-data snapshot of the built index for the partition store.

        The snapshot captures only the stable, expensive-to-recompute part
        of the index: the bounding paths and their pair table.  The EP-Index
        is reconstructed from the paths on restore and the unit weights are
        read from the live subgraph (so they are always current).  Vertex
        ids are *global*; the store layer remaps them to per-partition local
        ids on disk.
        """
        if not self._built:
            raise IndexStateError("SubgraphIndex.build() must run before export")
        tables = self._tables
        paths = [
            [p, vertices[0], vertices[-1], list(vertices), tables.path_vfrags[p],
             self._prices[p]]
            for p, vertices in enumerate(self._walks(range(len(self._prices))))
        ]
        pairs = [
            [key[0], key[1], list(numbers)]
            for key, numbers in sorted(zip(tables.pair_keys, tables.pair_paths))
        ]
        return {
            "subgraph_id": self._subgraph.subgraph_id,
            "xi": self._xi,
            "directed": self._directed,
            "max_expansions": self._max_expansions,
            "build_seconds": self._build_seconds,
            "truncated_searches": self._truncated_searches,
            "paths": paths,
            "pairs": pairs,
        }

    @classmethod
    def from_state(cls, subgraph: Subgraph, state: Dict[str, object]) -> "SubgraphIndex":
        """Rebuild a built index from :meth:`export_state` output.

        ``subgraph`` must be the live subgraph the snapshot was taken of
        (same id, vertices and edges); stored path distances reflect the
        weights at save time, so the caller refreshes stale edges through
        :meth:`reprice` afterwards (the store does it through
        :meth:`~repro.core.dtlp.DTLP.handle_updates`).
        """
        if int(state["subgraph_id"]) != subgraph.subgraph_id:
            raise IndexStateError(
                f"stored index is for subgraph {state['subgraph_id']}, "
                f"not {subgraph.subgraph_id}"
            )
        index = cls(
            subgraph,
            xi=int(state["xi"]),
            directed=bool(state["directed"]),
            max_expansions=int(state["max_expansions"]),
        )
        rows = state["paths"]
        if [int(row[0]) for row in rows] != list(range(len(rows))):
            raise IndexStateError(
                f"stored bounding-path ids of subgraph {subgraph.subgraph_id} "
                "are not 0..n-1 in order"
            )
        # Checked once here, as build() checks while pricing: a path that
        # leaves the subgraph has an edge with no id.
        index._install(
            [tuple(int(v) for v in row[3]) for row in rows],
            [int(row[4]) for row in rows],
            [((int(u), int(v)), [int(i) for i in ids]) for u, v, ids in state["pairs"]],
            prices=[float(row[5]) for row in rows],
        )
        index._built = True
        index._build_seconds = float(state.get("build_seconds", 0.0))
        index._truncated_searches = int(state.get("truncated_searches", 0))
        return index

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def reprice(self, changes: Sequence[Tuple[int, float]]) -> List[int]:
        """Algorithm 2 for one subgraph: ``changes`` lists ``(edge id, new
        weight)``, the last entry for an edge winning.  Every path the
        EP-Index lists under a changed edge is re-priced once, the unit-weight
        prefix is re-derived once and every pair's bound recomputed (a unit
        weight shifts every bound distance).  Returns the re-priced paths."""
        if not changes:
            return []
        weights = self._units.weights
        offsets = self._tables.ep_index.offsets
        through = self._tables.ep_index.paths
        touched = bytearray(len(self._prices))
        for edge, weight in changes:
            weights[edge] = weight
            for p in through[offsets[edge]:offsets[edge + 1]]:
                touched[p] = 1
        repriced = list(compress(range(len(touched)), touched))
        self._price(repriced)
        self._units.refresh()
        self._refresh_bounds()
        return repriced

    def _price(self, numbers) -> None:
        """Price paths ``numbers`` from the edge weights, left to right —
        the loop of ``DynamicGraph.path_distance``, never ``sum()``."""
        weights = self._units.weights
        prices = self._prices
        path_edges = self._tables.path_edges
        for p in numbers:
            total = 0.0
            for edge in path_edges[p]:
                total += weights[edge]
            prices[p] = total

    def _refresh_bounds(self) -> None:
        """Theorem 1 for every pair: with ``D_u`` the smallest price among its
        bounding paths and ``BD_max`` the bound distance of its widest, the
        within-subgraph distance is ``D_u`` if ``BD_max >= D_u`` (claim 1),
        else at least ``BD_max`` (claim 2): ``min(D_u, BD_max)`` either way."""
        price = self._prices.__getitem__
        prefix = self._units.prefix
        self.pair_bounds = [
            min(min(map(price, numbers)), prefix[depth]) if numbers else None
            for numbers, depth in zip(self._tables.pair_paths, self._tables.pair_depth)
        ]

    # ------------------------------------------------------------------
    # lower bounds (Theorem 1)
    # ------------------------------------------------------------------
    def lower_bound_distance(self, source: int, target: int) -> Optional[float]:
        """Lower bound of the shortest distance between two boundary vertices.

        Returns ``None`` when the pair is not connected within this subgraph
        (no bounding paths exist); otherwise Theorem 1's bound, as of the
        last build, restore or :meth:`reprice`.
        """
        pair = self._tables.pair_numbers.get(self._pair_key(source, target))
        return None if pair is None else self.pair_bounds[pair]

    def lower_bound_distances(self) -> Dict[Pair, float]:
        """Lower bound distances for every indexed boundary pair."""
        pairs = zip(self._tables.pair_keys, self.pair_bounds)
        return {key: bound for key, bound in pairs if bound is not None}

    def lower_bounds_from_vertex(self, vertex: int, view=None) -> Dict[int, float]:
        """Lower bounds from an arbitrary vertex to each boundary vertex.

        Used by Step 1 of the Storm deployment (Section 6.1) when a query's
        source or destination is not a boundary vertex: the vertex is
        virtually attached to the skeleton graph with edges to the boundary
        vertices of its subgraph.  The within-subgraph shortest distance is
        used, which is the tightest valid lower bound (Definition 6, case 1).

        The search is one-to-many: it terminates as soon as the last
        reachable boundary vertex settles instead of flooding the whole
        subgraph.  ``view`` optionally substitutes a kernel view of the
        same subgraph (a :class:`~repro.kernel.snapshot.CSRSnapshot` from
        the DTLP's shared cache) so the search runs on the array kernel;
        results are bit-identical to the dict path.
        """
        from ..algorithms.dijkstra import dijkstra

        boundary = self._subgraph.boundary_vertices
        distances, _ = dijkstra(view if view is not None else self._subgraph,
                                vertex, targets=set(boundary))
        return {
            vertex_id: distances[vertex_id]
            for vertex_id in boundary
            if vertex_id in distances and vertex_id != vertex
        }
