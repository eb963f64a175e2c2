"""KSP-DG: the filter-and-refine k-shortest-path query algorithm.

Section 5 of the paper describes KSP-DG, which answers a query ``q(vs, vt)``
iteratively:

1. *Filter* — compute the next-shortest *reference path* between the
   endpoints on the skeleton graph ``G_lambda``.  The reference path is a
   sequence of boundary vertices; its distance is a lower bound of the
   distance of every path in ``G`` that visits the same sequence (Lemma 2).
2. *Refine* — for each pair of adjacent vertices on the reference path,
   compute partial k shortest paths inside the subgraphs containing both
   vertices (Yen's algorithm, Algorithm 4) and join them into *candidate*
   complete paths, which update the running top-k list ``L``.
3. Terminate when the k-th distance in ``L`` is no larger than the distance
   of the next unexplored reference path (Theorem 3).

The implementation keeps a per-query cache of partial k-shortest-path results
keyed by adjacent-vertex pair — consecutive reference paths typically share
many pairs, which the paper highlights as an important optimisation.

Hooks (``on_reference_path``, ``on_partial``, ``on_merge``) let the simulated
distributed runtime attribute the work of each phase to cluster workers
without duplicating the algorithm.

Both the filter and refine steps run on a selectable compute kernel
(``kernel="snapshot"`` for the array-backed fast path, ``"dict"`` for the
reference implementation — see ``ARCHITECTURE.md``): the filter step is set
up by :meth:`DTLP.reference_enumerator` (shared with the distributed
QueryBolts) and subgraphs reuse the DTLP's shared snapshot cache across
iterations and queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..algorithms.dijkstra import dijkstra
from ..algorithms.yen import yen_k_shortest_paths
from ..graph.errors import PathNotFoundError, QueryError
from ..graph.paths import Path, merge_paths
from ..graph.partition import GraphPartition
from ..kernel.heuristics import HEURISTICS, validate_heuristic
from ..kernel.primitives import astar_arrays
from ..kernel.snapshot import CSRSnapshot
from .dtlp import DTLP

__all__ = [
    "KSPResult",
    "KSPDGQuery",
    "KSPDG",
    "validate_kernel",
    "validate_heuristic",
    "HEURISTICS",
]

#: Kernel modes accepted across the query/serving stack: ``"snapshot"``
#: (array-backed, bit-identical to the reference — the default), ``"fast"``
#: (the batch-native tier: snapshot views plus numpy wavefront/batched
#: searches at the profitable call sites — distance-identical but tie-order
#: free, falling back to the heap kernel when numpy is missing) and
#: ``"dict"`` (the dict-of-dict reference implementation).  See
#: ``ARCHITECTURE.md``, "Batched kernel & identity tiers".
KERNELS = ("snapshot", "fast", "dict")


def validate_kernel(kernel: str) -> str:
    """Validate a kernel mode string, returning it unchanged."""
    if kernel not in KERNELS:
        raise QueryError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


def validate_heuristic_for_kernel(heuristic: str, kernel: str) -> str:
    """Validate a heuristic mode against the selected compute kernel.

    The non-trivial heuristics are dense index-space bound arrays, which
    only exist on the array-backed kernels (``snapshot`` / ``fast``);
    requesting them with the dict reference kernel is a configuration error
    rather than a silent no-op.
    """
    validate_heuristic(heuristic)
    if heuristic != "none" and kernel == "dict":
        raise QueryError(
            f"heuristic {heuristic!r} requires an array-backed kernel "
            f"('snapshot' or 'fast'), got {kernel!r}"
        )
    return heuristic


def goal_directed_distance(
    dtlp: DTLP,
    subgraph_id: int,
    view,
    source: int,
    target: int,
    heuristic: str,
    pruning: bool,
) -> Optional[float]:
    """Within-subgraph distance probe, shared by KSP-DG and the bolts.

    Distance-only: with a heuristic mode active it runs the goal-directed
    A* kernel (exact distances are tie-independent, so the f-ordered search
    cannot perturb results); otherwise the plain early-exit Dijkstra used
    since PR 2.  Returns ``None`` when the endpoints do not connect within
    the subgraph ``view``.
    """
    if pruning and heuristic != "none" and isinstance(view, CSRSnapshot):
        provider = dtlp.subgraph_lower_bounds(subgraph_id, heuristic)
        bounds = provider.bounds_to(target) if provider is not None else None
        source_index = view.index_of.get(source)
        target_index = view.index_of.get(target)
        if source_index is None or target_index is None:
            return None
        distance, _, _ = astar_arrays(
            view.rows, view.num_vertices, source_index, target_index,
            bounds=bounds,
        )
        return None if distance == float("inf") else distance
    distances, _ = dijkstra(view, source, target=target)
    return distances.get(target)


@dataclass
class KSPResult:
    """Result of one KSP-DG query.

    Attributes
    ----------
    source, target, k:
        The query parameters.
    paths:
        The k shortest simple paths found, in ascending distance order.
        May contain fewer than ``k`` paths when the graph does not have
        ``k`` distinct simple paths between the endpoints.
    iterations:
        Number of filter/refine iterations executed (Figures 24-27).
    reference_paths:
        The reference paths examined, in order.
    partial_computations:
        Number of per-pair partial k-shortest-path computations performed
        (cache misses); a proxy for refine-step work.
    partial_reused:
        Number of per-pair partial computations *avoided* because the
        DTLP's cross-query memo already held the result for the current
        weight epoch (see ``ARCHITECTURE.md``, "Goal-directed search &
        pruning").
    elapsed_seconds:
        Wall-clock time of the whole query.
    """

    source: int
    target: int
    k: int
    paths: List[Path] = field(default_factory=list)
    iterations: int = 0
    reference_paths: List[Path] = field(default_factory=list)
    partial_computations: int = 0
    partial_reused: int = 0
    elapsed_seconds: float = 0.0

    @property
    def distances(self) -> List[float]:
        """Distances of the result paths."""
        return [path.distance for path in self.paths]


# Hook signatures: (detail, elapsed_seconds)
ReferenceHook = Callable[[Path, float], None]
PartialHook = Callable[[int, Tuple[int, int], float], None]
MergeHook = Callable[[float], None]


class KSPDGQuery:
    """State of a single KSP-DG query evaluation.

    Instances are created by :class:`KSPDG`; the class is public because the
    distributed runtime drives queries step by step through it.
    """

    def __init__(
        self,
        dtlp: DTLP,
        source: int,
        target: int,
        k: int,
        on_reference_path: Optional[ReferenceHook] = None,
        on_partial: Optional[PartialHook] = None,
        on_merge: Optional[MergeHook] = None,
        kernel: str = "snapshot",
        heuristic: str = "none",
        pruning: bool = True,
    ) -> None:
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        self._dtlp = dtlp
        self._partition: GraphPartition = dtlp.partition
        self._graph = dtlp.graph
        self._source = source
        self._target = target
        self._k = k
        self._kernel = validate_kernel(kernel)
        self._heuristic = validate_heuristic_for_kernel(heuristic, self._kernel)
        self._pruning = pruning
        self._on_reference_path = on_reference_path
        self._on_partial = on_partial
        self._on_merge = on_merge
        self._partial_cache: Dict[Tuple[int, int], List[Path]] = {}
        self._partial_computations = 0
        self._partial_reused = 0
        attachments, direct_edge = self._endpoint_attachments()
        self._reference_enumerator = dtlp.reference_enumerator(
            source,
            target,
            attachments,
            direct_edge,
            kernel=self._kernel,
            pruning=self._pruning,
        )

    def _subgraph_view(self, subgraph_id: int):
        """The compute view of one subgraph under the selected kernel."""
        if self._kernel != "dict":
            return self._dtlp.subgraph_snapshot(subgraph_id)
        return self._partition.subgraph(subgraph_id)

    # ------------------------------------------------------------------
    # skeleton augmentation (Section 5.3)
    # ------------------------------------------------------------------
    def _endpoint_attachments(
        self,
    ) -> Tuple[Dict[int, Dict[int, float]], Optional[float]]:
        """Skeleton attachments of the non-boundary endpoints, and the direct edge.

        The direct edge is the within-subgraph distance between endpoints
        that share a subgraph (at least one of them non-boundary): paths
        staying inside that subgraph must be represented in the skeleton
        graph too.
        """
        base = self._dtlp.skeleton_graph
        attachments: Dict[int, Dict[int, float]] = {}
        for endpoint in (self._source, self._target):
            if not base.has_vertex(endpoint):
                attachments[endpoint] = self._dtlp.attachment_edges(
                    endpoint, kernel=self._kernel
                )
        direct_edge: Optional[float] = None
        if attachments and self._source != self._target:
            shared = set(
                self._partition.subgraphs_of_vertex(self._source)
            ) & set(self._partition.subgraphs_of_vertex(self._target))
            for subgraph_id in shared:
                # lower_bounds_from_vertex returns distances to boundary
                # vertices only; compute the direct within-subgraph
                # distance explicitly.
                value = self._direct_distance(subgraph_id)
                if value is not None and (direct_edge is None or value < direct_edge):
                    direct_edge = value
        return attachments, direct_edge

    def _direct_distance(self, subgraph_id: int) -> Optional[float]:
        """Within-subgraph distance between the endpoints, or ``None``."""
        return goal_directed_distance(
            self._dtlp,
            subgraph_id,
            self._subgraph_view(subgraph_id),
            self._source,
            self._target,
            self._heuristic,
            self._pruning,
        )

    # ------------------------------------------------------------------
    # filter step
    # ------------------------------------------------------------------
    def next_reference_path(self) -> Optional[Path]:
        """Compute the next reference path on the skeleton graph, or ``None``."""
        started = time.perf_counter()
        try:
            path = self._reference_enumerator.next_path()
        except (StopIteration, PathNotFoundError):
            return None
        elapsed = time.perf_counter() - started
        if self._on_reference_path is not None:
            self._on_reference_path(path, elapsed)
        return path

    # ------------------------------------------------------------------
    # refine step (Algorithm 4)
    # ------------------------------------------------------------------
    def candidate_ksps(self, reference_path: Path) -> List[Path]:
        """Compute candidate k shortest paths matching ``reference_path``.

        For every pair of adjacent vertices on the reference path the k
        shortest partial paths are computed inside each subgraph containing
        both vertices (results are cached across iterations), the best k per
        pair are kept, and the per-pair lists are joined left to right while
        keeping only the k shortest simple combinations.
        """
        vertices = reference_path.vertices
        if len(vertices) < 2:
            return []
        merged: Optional[List[Path]] = None
        for index in range(len(vertices) - 1):
            pair = (vertices[index], vertices[index + 1])
            partials = self._partial_ksps(pair)
            if not partials:
                return []
            merge_start = time.perf_counter()
            if merged is None:
                merged = list(partials[: self._k])
            else:
                merged = self._join(merged, partials)
            if self._on_merge is not None:
                self._on_merge(time.perf_counter() - merge_start)
            if not merged:
                return []
        return merged or []

    def _partial_ksps(self, pair: Tuple[int, int]) -> List[Path]:
        """Partial k shortest paths for one adjacent boundary-vertex pair.

        Two cache levels: the per-query ``_partial_cache`` (consecutive
        reference paths share pairs — the paper's optimisation) and, with
        pruning enabled, the DTLP's cross-query memo keyed by weight epoch
        — a pair solved by an earlier query this round is not re-solved.
        """
        if pair in self._partial_cache:
            return self._partial_cache[pair]
        source, target = pair
        subgraph_ids = self._partition.subgraphs_containing_pair(source, target)
        use_memo = self._pruning
        collected: List[Path] = []
        for subgraph_id in subgraph_ids:
            started = time.perf_counter()
            paths = (
                self._dtlp.partial_memo_get(subgraph_id, pair, self._k)
                if use_memo
                else None
            )
            if paths is None:
                subgraph = self._subgraph_view(subgraph_id)
                heuristic = (
                    self._dtlp.subgraph_lower_bounds(subgraph_id, self._heuristic)
                    if self._pruning and isinstance(subgraph, CSRSnapshot)
                    else None
                )
                try:
                    paths = yen_k_shortest_paths(
                        subgraph, source, target, self._k,
                        prune=self._pruning, heuristic=heuristic,
                    )
                except PathNotFoundError:
                    paths = []
                if use_memo:
                    self._dtlp.partial_memo_put(subgraph_id, pair, self._k, paths)
                self._partial_computations += 1
            else:
                self._partial_reused += 1
            elapsed = time.perf_counter() - started
            if self._on_partial is not None:
                self._on_partial(subgraph_id, pair, elapsed)
            collected.extend(paths)
        collected.sort()
        deduplicated: List[Path] = []
        seen: Set[Tuple[int, ...]] = set()
        for path in collected:
            if path.vertices in seen:
                continue
            seen.add(path.vertices)
            deduplicated.append(path)
            if len(deduplicated) >= self._k:
                break
        self._partial_cache[pair] = deduplicated
        return deduplicated

    def _join(self, prefixes: List[Path], extensions: List[Path]) -> List[Path]:
        """Join prefix paths with extension paths, keeping the k best simple results."""
        candidates: List[Path] = []
        for prefix in prefixes:
            for extension in extensions:
                joined_vertices = prefix.vertices + extension.vertices[1:]
                if len(set(joined_vertices)) != len(joined_vertices):
                    continue
                candidates.append(merge_paths(prefix, extension))
        candidates.sort()
        return candidates[: self._k]

    # ------------------------------------------------------------------
    # full evaluation (Algorithm 3)
    # ------------------------------------------------------------------
    def run(self) -> KSPResult:
        """Execute the full iterative algorithm and return the result."""
        started = time.perf_counter()
        result = KSPResult(source=self._source, target=self._target, k=self._k)
        if self._source == self._target:
            result.paths = [Path(0.0, (self._source,))]
            result.elapsed_seconds = time.perf_counter() - started
            return result

        top_paths: List[Path] = []
        seen_vertices: Set[Tuple[int, ...]] = set()
        reference = self.next_reference_path()
        while reference is not None:
            result.iterations += 1
            result.reference_paths.append(reference)
            candidates = self.candidate_ksps(reference)
            for candidate in candidates:
                if candidate.vertices in seen_vertices:
                    continue
                seen_vertices.add(candidate.vertices)
                top_paths.append(candidate)
            top_paths.sort()
            del top_paths[self._k:]
            kth_distance = (
                top_paths[self._k - 1].distance
                if len(top_paths) >= self._k
                else float("inf")
            )
            if self._pruning and top_paths:
                # Theorem 3 stops the iteration at the first reference path
                # no shorter than the k-th candidate — reference paths
                # beyond that bound are dead weight, so the enumerator may
                # prune the spur searches that would produce them.
                self._reference_enumerator.set_upper_bound(kth_distance)
            next_reference = self.next_reference_path()
            if next_reference is None:
                break
            if top_paths and kth_distance <= next_reference.distance:
                # Termination condition of Theorem 3.
                break
            reference = next_reference
        result.paths = top_paths
        result.partial_computations = self._partial_computations
        result.partial_reused = self._partial_reused
        result.elapsed_seconds = time.perf_counter() - started
        return result


class KSPDG:
    """KSP query engine backed by a DTLP index.

    Examples
    --------
    >>> from repro.graph import road_network
    >>> from repro.core import DTLP, DTLPConfig, KSPDG
    >>> graph = road_network(8, 8, seed=3)
    >>> dtlp = DTLP(graph, DTLPConfig(z=12, xi=3)).build()
    >>> engine = KSPDG(dtlp)
    >>> result = engine.query(0, 60, k=3)
    >>> len(result.paths)
    3
    """

    def __init__(
        self,
        dtlp: DTLP,
        kernel: str = "snapshot",
        heuristic: str = "none",
        pruning: bool = True,
    ) -> None:
        if not dtlp.built:
            raise QueryError("the DTLP index must be built before creating KSPDG")
        self._dtlp = dtlp
        self._kernel = validate_kernel(kernel)
        self._heuristic = validate_heuristic_for_kernel(heuristic, self._kernel)
        self._pruning = pruning

    @property
    def dtlp(self) -> DTLP:
        """The underlying DTLP index."""
        return self._dtlp

    @property
    def kernel(self) -> str:
        """Compute kernel answering queries (one of :data:`KERNELS`)."""
        return self._kernel

    @property
    def heuristic(self) -> str:
        """Lower-bound heuristic pruning the searches (``"none"`` disables)."""
        return self._heuristic

    @property
    def pruning(self) -> bool:
        """Whether bound-based pruning and cross-query reuse are active.

        ``False`` restores the exact pre-pruning code path — kept as the
        benchmark baseline (``benchmarks/test_pruning_speedup.py``); results
        are bit-identical either way.
        """
        return self._pruning

    def query(
        self,
        source: int,
        target: int,
        k: int,
        on_reference_path: Optional[ReferenceHook] = None,
        on_partial: Optional[PartialHook] = None,
        on_merge: Optional[MergeHook] = None,
    ) -> KSPResult:
        """Answer one k-shortest-path query.

        The optional hooks receive per-phase timings; the simulated
        distributed runtime uses them to attribute work to cluster workers.
        """
        if not self._dtlp.graph.has_vertex(source):
            raise QueryError(f"source vertex {source} is not in the graph")
        if not self._dtlp.graph.has_vertex(target):
            raise QueryError(f"target vertex {target} is not in the graph")
        query = KSPDGQuery(
            self._dtlp,
            source,
            target,
            k,
            on_reference_path=on_reference_path,
            on_partial=on_partial,
            on_merge=on_merge,
            kernel=self._kernel,
            heuristic=self._heuristic,
            pruning=self._pruning,
        )
        return query.run()

    def query_many(self, queries: Sequence[Tuple[int, int, int]]) -> List[KSPResult]:
        """Answer a batch of queries sequentially (single-process execution)."""
        return [self.query(source, target, k) for source, target, k in queries]
