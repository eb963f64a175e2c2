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

This module is the only place those steps are written down.
:meth:`KSPDGQuery.run` is Algorithm 3, :func:`solve_pair` /
:func:`best_k_distinct` / :func:`join_paths` are Algorithm 4, and
:func:`endpoint_attachments` is the local form of Section 5.3.  What varies
between deployments is *where the partial paths come from*, so the loop
takes a ``partials`` provider: :class:`KSPDG` uses the default ("every
subgraph containing the pair, solved in this process"), and the distributed
:class:`~repro.distributed.bolts.QueryBolt` passes "broadcast the reference
path to my SubgraphBolts and gather what they own" — each SubgraphBolt
solving its pairs through the same :func:`solve_pair`.  The
``on_reference_path`` / ``on_merge`` hooks report each phase's wall-clock
time; they are how a QueryBolt charges the work to its simulated worker.

The loop keeps a per-query cache of partial k-shortest-path results keyed
by adjacent-vertex pair — consecutive reference paths typically share many
pairs, which the paper highlights as an important optimisation.

How searches run — the compute kernel (``"snapshot"`` or the ``"dict"``
reference, see ``ARCHITECTURE.md``)
and whether bound pruning is on — is one validated :class:`SearchMode`
value: the public entry points build it once and everything below them
receives it whole.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..algorithms.dijkstra import dijkstra
from ..algorithms.yen import yen_k_shortest_paths
from ..graph.errors import PathNotFoundError, QueryError
from ..graph.paths import Path
from ..obs.trace import mark, span
from .dtlp import DTLP

__all__ = [
    "KSPResult",
    "KSPDGQuery",
    "KSPDG",
    "SearchMode",
    "validate_kernel",
]

#: Kernel modes accepted across the query/serving stack: ``"snapshot"``
#: (array-backed, bit-identical to the reference — the default) and
#: ``"dict"`` (the dict-of-dict reference implementation).  See
#: ``ARCHITECTURE.md``, "The compute tiers".
KERNELS = ("snapshot", "dict")

Pair = Tuple[int, int]


def validate_kernel(kernel: str) -> str:
    """Validate a kernel mode string, returning it unchanged."""
    if kernel not in KERNELS:
        raise QueryError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


@dataclass(frozen=True)
class SearchMode:
    """How the searches of a query run: kernel and pruning.

    ``pruning=False`` restores the exact pre-pruning code path (no bound
    pruning, no cross-query memo) — the benchmark baseline; results are
    bit-identical either way.  Instances built through :meth:`validated`
    are known to be consistent, so code receiving a mode never re-checks it.
    """

    kernel: str = "snapshot"
    pruning: bool = True

    @classmethod
    def validated(cls, kernel: str, pruning: bool) -> "SearchMode":
        """The mode for user-supplied settings; :class:`QueryError` if invalid."""
        return cls(validate_kernel(kernel), pruning)


def _subgraph_view(dtlp: DTLP, subgraph_id: int, mode: SearchMode):
    """The compute view of one subgraph: the DTLP's shared, incrementally
    refreshed snapshot on the array kernel, the dict-based subgraph itself
    on the ``"dict"`` reference."""
    if mode.kernel != "dict":
        return dtlp.subgraph_snapshot(subgraph_id)
    return dtlp.partition.subgraph(subgraph_id)


# ----------------------------------------------------------------------
# Algorithm 4: partial k shortest paths per pair, joined left to right
# ----------------------------------------------------------------------
def best_k_distinct(paths: Iterable[Path], k: int) -> List[Path]:
    """The ``k`` shortest of ``paths``, repeated vertex sequences dropped."""
    kept: List[Path] = []
    seen = set()
    for path in sorted(paths):
        if path.vertices in seen:
            continue
        seen.add(path.vertices)
        kept.append(path)
        if len(kept) >= k:
            break
    return kept


def join_paths(prefixes: Sequence[Path], extensions: Sequence[Path], k: int) -> List[Path]:
    """The ``k`` shortest simple concatenations of a prefix and an extension.

    Best first: every combination is priced (prefix distance + extension
    distance, the sum :func:`~repro.graph.paths.merge_paths` forms), and
    vertex sequences are built in price order only until ``k`` simple ones
    are kept and the next price is dearer than the ``k``-th kept.  Sorting
    what was kept by ``(distance, vertices)`` then orders ties the way
    sorting every concatenation would.
    """
    priced = sorted([
        (prefix.distance + extension.distance, i, j)
        for i, prefix in enumerate(prefixes)
        for j, extension in enumerate(extensions)
    ])
    kept: List[Tuple[float, Tuple[int, ...]]] = []
    for distance, i, j in priced:
        if len(kept) >= k and distance > kept[k - 1][0]:
            break
        vertices = prefixes[i].vertices + extensions[j].vertices[1:]
        if len(set(vertices)) == len(vertices):
            kept.append((distance, vertices))
    kept.sort()
    return [Path(distance, vertices) for distance, vertices in kept[:k]]


def solve_pair(
    dtlp: DTLP,
    mode: SearchMode,
    pair: Pair,
    k: int,
    subgraph_ids: Iterable[int],
) -> Tuple[List[Path], int]:
    """Partial k shortest paths of one adjacent pair inside ``subgraph_ids``.

    Per subgraph: with pruning, the DTLP's weight-epoch memo answers a
    (subgraph, pair, k) an earlier query or iteration already solved;
    otherwise Yen's algorithm runs on the subgraph's view and the result is
    memoised.  A pruned Yen on the snapshot kernel bounds itself — cutoffs
    from its k-th best known path plus exact distances left from one
    resumable search from the target, settled only as far as those cutoffs
    reach, first path included (see :class:`~repro.algorithms.yen.LazyYen`);
    on the ``dict`` tier it runs on cutoffs alone, and with
    ``pruning=False`` on neither.  Memo hits and
    pruned runs are bit-identical to the unpruned computation.  Returns the
    concatenated per-subgraph results (callers keep the
    :func:`best_k_distinct`) and how many subgraphs were memo hits.
    """
    source, target = pair
    collected: List[Path] = []
    reused = 0
    for subgraph_id in subgraph_ids:
        paths = dtlp.partial_memo_get(subgraph_id, pair, k) if mode.pruning else None
        if paths is not None:
            reused += 1
        else:
            try:
                paths = yen_k_shortest_paths(
                    _subgraph_view(dtlp, subgraph_id, mode), source, target, k,
                    prune=mode.pruning,
                )
            except PathNotFoundError:
                paths = []
            if mode.pruning:
                dtlp.partial_memo_put(subgraph_id, pair, k, paths)
        collected.extend(paths)
    return collected, reused


# ----------------------------------------------------------------------
# Section 5.3: attaching non-boundary endpoints to the skeleton graph
# ----------------------------------------------------------------------
def direct_distance(
    dtlp: DTLP, subgraph_id: int, source: int, target: int, mode: SearchMode
) -> Optional[float]:
    """Distance from ``source`` to ``target`` inside one subgraph, or ``None``.

    Distance-only, one plain early-exit Dijkstra in every mode.
    """
    view = _subgraph_view(dtlp, subgraph_id, mode)
    distances, _ = dijkstra(view, source, target=target)
    return distances.get(target)


def endpoint_attachments(
    dtlp: DTLP, source: int, target: int, mode: SearchMode
) -> Tuple[Dict[int, Dict[int, float]], Optional[float]]:
    """Skeleton attachments of the non-boundary endpoints, and the direct edge.

    The target's attachment edges are distances *to* it, the source's
    distances from it.  The direct edge is the within-subgraph distance
    between endpoints that share a subgraph (at least one of them
    non-boundary): paths staying inside that subgraph must be represented
    in the skeleton graph too.
    Computed in this process; the distributed EntranceSpout gathers the
    same two values from its SubgraphBolts (Step 1 of Figure 14).
    """
    partition = dtlp.partition
    attachments = {
        endpoint: dtlp.attachment_edges(
            endpoint, kernel=mode.kernel, towards=endpoint != source
        )
        for endpoint in (source, target)
        if not partition.is_boundary(endpoint)
    }
    direct_edge: Optional[float] = None
    if attachments and source != target:
        shared = set(partition.subgraphs_of_vertex(source)) & set(
            partition.subgraphs_of_vertex(target)
        )
        for subgraph_id in shared:
            value = direct_distance(dtlp, subgraph_id, source, target, mode)
            if value is not None and (direct_edge is None or value < direct_edge):
                direct_edge = value
    return attachments, direct_edge


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
        Number of per-(subgraph, pair) partial k-shortest-path computations
        performed in this process (cache misses); a proxy for refine-step
        work.  Zero when a ``partials`` provider did the solving elsewhere.
    partial_reused:
        Number of per-(subgraph, pair) computations *avoided* because the
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


#: ``partials(reference_path, needed_pairs, k)`` returns, for the pairs it
#: can serve, the partial k shortest paths found (any order, duplicates
#: allowed); the loop keeps the best k distinct per pair.
PartialsProvider = Callable[[Path, Sequence[Pair], int], Mapping[Pair, List[Path]]]
#: ``on_reference_path(path, seconds)`` after every filter step; ``path`` is
#: ``None`` when the skeleton graph has no further reference path.
ReferenceHook = Callable[[Optional[Path], float], None]
#: ``on_merge(seconds)`` once per iteration: join plus top-k update.
MergeHook = Callable[[float], None]


class KSPDGQuery:
    """One KSP-DG query evaluation: the filter/refine loop of Algorithm 3.

    Created by :class:`KSPDG` for in-process queries and by the distributed
    :class:`~repro.distributed.bolts.QueryBolt` for routed ones; both run
    :meth:`run`.  ``attachments`` / ``direct_edge`` are the Section 5.3
    values for the endpoints (see :func:`endpoint_attachments`);
    ``partials`` replaces the in-process refine step (see the module
    docstring); the hooks receive per-phase timings.
    """

    def __init__(
        self,
        dtlp: DTLP,
        source: int,
        target: int,
        k: int,
        mode: SearchMode = SearchMode(),
        attachments: Optional[Mapping[int, Mapping[int, float]]] = None,
        direct_edge: Optional[float] = None,
        partials: Optional[PartialsProvider] = None,
        on_reference_path: Optional[ReferenceHook] = None,
        on_merge: Optional[MergeHook] = None,
    ) -> None:
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        self._dtlp = dtlp
        self._source = source
        self._target = target
        self._k = k
        self._mode = mode
        self._partials = partials or self._solve_locally
        self._on_reference_path = on_reference_path
        self._on_merge = on_merge
        self._partial_computations = 0
        self._partial_reused = 0
        # pairs[:i] of a reference path -> its joined k best (see _candidates).
        self._joined_prefixes: Dict[Tuple[Pair, ...], List[Path]] = {}
        self._reference_enumerator = dtlp.reference_enumerator(
            source,
            target,
            attachments,
            direct_edge,
            kernel=mode.kernel,
            pruning=mode.pruning,
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
            path = None
        if self._on_reference_path is not None:
            self._on_reference_path(path, time.perf_counter() - started)
        return path

    # ------------------------------------------------------------------
    # refine step (Algorithm 4)
    # ------------------------------------------------------------------
    def _solve_locally(
        self, reference_path: Path, needed: Sequence[Pair], k: int
    ) -> Dict[Pair, List[Path]]:
        """Default partials provider: every subgraph containing each pair."""
        partition = self._dtlp.partition
        found: Dict[Pair, List[Path]] = {}
        for pair in needed:
            owners = partition.subgraphs_containing_pair(*pair)
            found[pair], reused = solve_pair(
                self._dtlp, self._mode, pair, k, owners
            )
            self._partial_reused += reused
            self._partial_computations += len(owners) - reused
        return found

    def _candidates(
        self, pairs: Tuple[Pair, ...], partial_cache: Mapping[Pair, List[Path]]
    ) -> List[Path]:
        """Join the per-pair partials left to right, keeping k simple paths.

        Consecutive reference paths share root prefixes by construction of
        Yen's deviations, and a pair's partials are fixed once gathered, so
        every joined prefix is kept for the rest of the query and the join
        resumes after the longest prefix an earlier reference path already
        paid for.
        """
        joined = self._joined_prefixes
        done = len(pairs)
        while done and pairs[:done] not in joined:
            done -= 1
        merged: List[Path] = joined[pairs[:done]] if done else []
        for index in range(done, len(pairs)):
            partials = partial_cache.get(pairs[index])
            if not partials or (index and not merged):
                return []
            merged = join_paths(merged, partials, self._k) if index else list(partials)
            joined[pairs[: index + 1]] = merged
        return merged

    # ------------------------------------------------------------------
    # full evaluation (Algorithm 3)
    # ------------------------------------------------------------------
    def run(self) -> KSPResult:
        """Execute the full iterative algorithm and return the result."""
        started = time.perf_counter()
        k = self._k
        result = KSPResult(source=self._source, target=self._target, k=k)
        if self._source == self._target:
            result.paths = [Path(0.0, (self._source,))]
            result.elapsed_seconds = time.perf_counter() - started
            return result

        top_paths: List[Path] = []
        seen_vertices = set()
        # Consecutive reference paths share pairs; each pair's best k
        # partials are gathered once per query.
        partial_cache: Dict[Pair, List[Path]] = {}
        reference = self.next_reference_path()
        while reference is not None:
            result.iterations += 1
            result.reference_paths.append(reference)
            with span("iteration", index=result.iterations):
                vertices = reference.vertices
                pairs = tuple(zip(vertices, vertices[1:]))
                needed = [pair for pair in pairs if pair not in partial_cache]
                for pair, paths in self._partials(reference, needed, k).items():
                    partial_cache[pair] = best_k_distinct(paths, k)
                merge_started = time.perf_counter()
                candidates = self._candidates(pairs, partial_cache)
                for candidate in candidates:
                    # First sighting wins: the same vertex sequence can come
                    # back from a later reference path with its distance
                    # summed in another order.
                    if candidate.vertices not in seen_vertices:
                        seen_vertices.add(candidate.vertices)
                        top_paths.append(candidate)
                top_paths.sort()
                del top_paths[k:]
                if self._on_merge is not None:
                    self._on_merge(time.perf_counter() - merge_started)
                mark("merge", candidates=len(candidates), top=len(top_paths))
                kth_distance = (
                    top_paths[k - 1].distance if len(top_paths) >= k else float("inf")
                )
                if self._mode.pruning and top_paths:
                    # Theorem 3 stops the iteration at the first reference
                    # path no shorter than the k-th candidate — reference
                    # paths beyond that bound are dead weight, so the
                    # enumerator may prune the spur searches that would
                    # produce them.
                    self._reference_enumerator.set_upper_bound(kth_distance)
                reference = self.next_reference_path()
                if reference is not None and kth_distance <= reference.distance:
                    # Termination condition of Theorem 3.
                    break
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
        pruning: bool = True,
    ) -> None:
        if not dtlp.built:
            raise QueryError("the DTLP index must be built before creating KSPDG")
        self._dtlp = dtlp
        self._mode = SearchMode.validated(kernel, pruning)

    @property
    def dtlp(self) -> DTLP:
        """The underlying DTLP index."""
        return self._dtlp

    def query(
        self,
        source: int,
        target: int,
        k: int,
        on_reference_path: Optional[ReferenceHook] = None,
        on_merge: Optional[MergeHook] = None,
    ) -> KSPResult:
        """Answer one k-shortest-path query.

        The optional hooks receive per-phase timings (the same hooks the
        distributed QueryBolt charges its simulated worker through).  An
        index the graph moved past without it is caught up first
        (:meth:`~repro.core.dtlp.DTLP.catch_up`).
        """
        if not self._dtlp.graph.has_vertex(source):
            raise QueryError(f"source vertex {source} is not in the graph")
        if not self._dtlp.graph.has_vertex(target):
            raise QueryError(f"target vertex {target} is not in the graph")
        self._dtlp.catch_up()
        attachments, direct_edge = endpoint_attachments(
            self._dtlp, source, target, self._mode
        )
        return KSPDGQuery(
            self._dtlp,
            source,
            target,
            k,
            self._mode,
            attachments,
            direct_edge,
            on_reference_path=on_reference_path,
            on_merge=on_merge,
        ).run()
