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

The class also exposes the statistics the evaluation section reports
(number of bounding paths, EP-Index size, maintenance timing hooks).
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..algorithms.dijkstra import vfrag_label_search, vfrag_rows
from ..graph.errors import IndexStateError
from ..graph.graph import WeightUpdate, edge_key
from ..graph.subgraph import SortedUnitWeights, Subgraph
from .bounding_paths import BoundingPath
from .ep_index import EPIndex

__all__ = ["SubgraphIndex"]


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
        :func:`repro.algorithms.dijkstra.lightest_vfrag_paths_from_source`.
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
        self._paths_by_id: Dict[int, BoundingPath] = {}
        self._paths_by_pair: Dict[Tuple[int, int], List[int]] = {}
        self._ep_index = EPIndex(directed=directed)
        self._unit_weights: Optional[SortedUnitWeights] = None
        self._built = False
        self._build_seconds = 0.0
        self._truncated_searches = 0

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def subgraph(self) -> Subgraph:
        """The indexed subgraph."""
        return self._subgraph

    @property
    def subgraph_id(self) -> int:
        """Id of the indexed subgraph."""
        return self._subgraph.subgraph_id

    @property
    def xi(self) -> int:
        """Number of bounding paths kept per boundary pair."""
        return self._xi

    @property
    def ep_index(self) -> EPIndex:
        """The edge-to-paths maintenance index."""
        return self._ep_index

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

    def boundary_pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate over the indexed boundary-vertex pairs."""
        return iter(self._paths_by_pair)

    def num_bounding_paths(self) -> int:
        """Total number of bounding paths stored for this subgraph."""
        return len(self._paths_by_id)

    def bounding_paths(self, source: int, target: int) -> List[BoundingPath]:
        """The bounding paths for one (ordered) boundary pair."""
        key = self._pair_key(source, target)
        return [self._paths_by_id[path_id] for path_id in self._paths_by_pair.get(key, [])]

    def path(self, path_id: int) -> BoundingPath:
        """Resolve a bounding-path id."""
        return self._paths_by_id[path_id]

    def memory_estimate_bytes(self) -> int:
        """Rough memory footprint of the first-level index for this subgraph."""
        path_bytes = sum(
            48 + 8 * len(path.vertices) for path in self._paths_by_id.values()
        )
        return path_bytes + self._ep_index.memory_estimate_bytes()

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def _pair_key(self, source: int, target: int) -> Tuple[int, int]:
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
        self._paths_by_id.clear()
        self._paths_by_pair.clear()
        self._ep_index = EPIndex(directed=self._directed)
        self._truncated_searches = 0
        # Seeded with the boundary, so boundary[i] has local index i.
        ids, rows = vfrag_rows(self._subgraph, boundary)
        next_id = 0
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
                path_ids: List[int] = []
                for vfrags, vertices in raw_paths:
                    bounding_path = BoundingPath(
                        path_id=next_id,
                        source=source,
                        target=target,
                        vertices=vertices,
                        vfrag_count=vfrags,
                        distance=self._subgraph.path_distance(vertices),
                    )
                    self._paths_by_id[next_id] = bounding_path
                    self._ep_index.add_path(next_id, vertices)
                    path_ids.append(next_id)
                    next_id += 1
                self._paths_by_pair[self._pair_key(source, target)] = path_ids
        self._unit_weights = SortedUnitWeights(self._subgraph)
        self._built = True
        self._build_seconds = time.perf_counter() - started
        return self

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
        if self._unit_weights is not None:
            self._unit_weights.rebind(subgraph)
        return self

    # ------------------------------------------------------------------
    # serialization (repro.store)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Plain-data snapshot of the built index for the partition store.

        The snapshot captures only the stable, expensive-to-recompute part
        of the index: the bounding paths and their pair table.  The EP-Index
        is reconstructed from the paths on restore and the sorted unit
        weights are rebuilt from the live subgraph (so they are always
        current).  Vertex ids are *global*; the store layer remaps them to
        per-partition local ids on disk.
        """
        if not self._built:
            raise IndexStateError("SubgraphIndex.build() must run before export")
        paths = [
            [path.path_id, path.source, path.target,
             list(path.vertices), path.vfrag_count, path.distance]
            for _, path in sorted(self._paths_by_id.items())
        ]
        pairs = [
            [key[0], key[1], list(path_ids)]
            for key, path_ids in sorted(self._paths_by_pair.items())
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
        :meth:`apply_updates` afterwards.
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
        has_edge = subgraph.has_edge
        for path_id, source, target, vertices, vfrags, distance in state["paths"]:
            vertices = tuple(int(v) for v in vertices)
            # Checked once here, as build() checks while pricing:
            # apply_updates re-prices stored paths without looking again.
            if not all(map(has_edge, vertices, vertices[1:])):
                raise IndexStateError(
                    f"stored bounding path {path_id} leaves subgraph "
                    f"{subgraph.subgraph_id}"
                )
            bounding_path = BoundingPath(
                path_id=int(path_id),
                source=int(source),
                target=int(target),
                vertices=vertices,
                vfrag_count=int(vfrags),
                distance=float(distance),
            )
            index._paths_by_id[bounding_path.path_id] = bounding_path
            index._ep_index.add_path(bounding_path.path_id, bounding_path.vertices)
        for u, v, path_ids in state["pairs"]:
            index._paths_by_pair[(int(u), int(v))] = [int(i) for i in path_ids]
        index._unit_weights = SortedUnitWeights(subgraph)
        index._built = True
        index._build_seconds = float(state.get("build_seconds", 0.0))
        index._truncated_searches = int(state.get("truncated_searches", 0))
        return index

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def apply_updates(self, updates: Sequence[WeightUpdate]) -> Set[Tuple[int, int]]:
        """Apply a batch of weight updates affecting this subgraph.

        Implements Algorithm 2, per batch rather than per vfrag: the
        subgraph's sorted unit weights take the whole batch at once
        (:meth:`~repro.graph.subgraph.SortedUnitWeights.update_edges` — one
        re-sort, the same sorted multiset), and every bounding path covering
        a changed edge (found through the EP-Index) is re-priced once,
        however many of its edges changed.

        Parameters
        ----------
        updates:
            Weight updates whose edges belong to this subgraph.  The *new*
            weight is read from the update; the delta is derived from the
            parent graph's previous state implicitly because updates are
            applied to the graph before listeners run, so this method
            recomputes affected path distances from scratch instead of
            applying deltas — equally cheap and immune to ordering issues.

        Returns
        -------
        set of boundary pairs whose lower bound distance may have changed.
        """
        if not self._built:
            raise IndexStateError("SubgraphIndex.build() must run before updates")
        affected_pairs: Set[Tuple[int, int]] = set()
        touched_paths: Set[int] = set()
        has_edge = self._subgraph.has_edge
        owned = [(update.u, update.v) for update in updates if has_edge(update.u, update.v)]
        if self._unit_weights is not None:
            self._unit_weights.update_edges(owned)
        for u, v in owned:
            touched_paths.update(self._ep_index.paths_through_edge(u, v))
        # Every stored path was checked edge by edge against this subgraph
        # at build / from_state and the topology cannot have moved since
        # (StaleStructureError), so the parent prices it without re-checking.
        price = self._subgraph.parent.path_distance
        for path_id in touched_paths:
            path = self._paths_by_id[path_id]
            path.distance = price(path.vertices)
            affected_pairs.add(self._pair_key(path.source, path.target))
        # A change in any unit weight shifts every bound distance in the
        # subgraph, so conservatively all pairs may need their skeleton edge
        # refreshed; returning only the pairs with touched paths matches the
        # paper's Algorithm 2, while lower_bound_distance() always reads the
        # current unit-weight profile so correctness does not depend on this.
        return affected_pairs

    # ------------------------------------------------------------------
    # lower bounds (Theorem 1)
    # ------------------------------------------------------------------
    def bound_distance(self, path: BoundingPath) -> float:
        """Bound distance of ``path``: sum of its vfrag-count smallest unit weights."""
        if self._unit_weights is None:
            self._unit_weights = SortedUnitWeights(self._subgraph)
        return self._unit_weights.smallest_sum(path.vfrag_count)

    def lower_bound_distance(self, source: int, target: int) -> Optional[float]:
        """Lower bound of the shortest distance between two boundary vertices.

        Returns ``None`` when the pair is not connected within this subgraph
        (no bounding paths exist).  Otherwise applies Theorem 1: let ``D_u``
        be the smallest actual distance among the stored bounding paths and
        ``BD_max`` the largest bound distance; if ``BD_max >= D_u`` the pair's
        within-subgraph shortest distance is ``D_u`` (claim 1), otherwise
        ``BD_max`` is a valid lower bound (claim 2).  Both cases collapse to
        ``min(D_u, BD_max)``.  Bound distances grow with the vfrag count, so
        ``BD_max`` is read once, for the pair's widest path.
        """
        key = self._pair_key(source, target)
        path_ids = self._paths_by_pair.get(key)
        if not path_ids:
            return None
        paths_by_id = self._paths_by_id
        best_actual = float("inf")
        widest = paths_by_id[path_ids[0]]
        for path_id in path_ids:
            path = paths_by_id[path_id]
            if path.distance < best_actual:
                best_actual = path.distance
            if path.vfrag_count > widest.vfrag_count:
                widest = path
        return min(best_actual, self.bound_distance(widest))

    def lower_bound_distances(self) -> Dict[Tuple[int, int], float]:
        """Lower bound distances for every indexed boundary pair."""
        result: Dict[Tuple[int, int], float] = {}
        for key in self._paths_by_pair:
            value = self.lower_bound_distance(*key)
            if value is not None:
                result[key] = value
        return result

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
