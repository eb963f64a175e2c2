"""Single-source shortest-path primitives.

These functions work on any object exposing a ``neighbors(vertex)`` iterable
of ``(neighbour, weight)`` pairs — both :class:`~repro.graph.graph.DynamicGraph`
(whose ``neighbors`` returns a mapping) and
:class:`~repro.graph.subgraph.Subgraph` (whose ``neighbors`` yields pairs)
are supported through the small adapter :func:`iter_neighbors`.

They *also* accept a :class:`~repro.kernel.snapshot.CSRSnapshot`: the entry
points detect the snapshot and dispatch to the array-native kernel in
:mod:`repro.kernel.primitives`, translating ids/bans into index space on
the way in and the labelled results back into id-space dictionaries on the
way out.  Both paths produce bit-identical results (see
``tests/test_kernel_properties.py``); the snapshot path is simply faster.
``ARCHITECTURE.md`` documents when to use which.

Provided algorithms:

* :func:`dijkstra` — classical Dijkstra from a single source, with optional
  early exit at a target and optional restriction to a vertex subset.
* :func:`shortest_path` — convenience wrapper returning a single
  :class:`~repro.graph.paths.Path`.
* :func:`shortest_path_tree` — full predecessor tree towards a destination
  (used by the FindKSP baseline).
* :func:`vfrag_label_search` — the bounding-path search of Section 3.4
  (Algorithm 1's inner loop): a multi-label enumeration of the simple paths
  with the fewest *virtual fragments*, run in index space over
  :func:`vfrag_rows`.
"""

from __future__ import annotations

import heapq
from itertools import accumulate
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..graph.errors import EdgeNotFoundError, PathNotFoundError, VertexNotFoundError
from ..graph.paths import Path
from ..obs.profile import kernel_counters
from ..kernel.primitives import (
    bounded_dijkstra_arrays,
    dijkstra_arrays,
    dijkstra_arrays_multi,
    reconstruct_indices,
)
from ..kernel.snapshot import CSRSnapshot

__all__ = [
    "iter_neighbors",
    "path_weight",
    "prefix_weights",
    "dijkstra",
    "shortest_path",
    "shortest_distance",
    "shortest_path_tree",
    "vfrag_rows",
    "vfrag_label_search",
]

NeighborFn = Callable[[int], Iterable[Tuple[int, float]]]
#: ``rows[i]``: ``(j, 1 << j, vfrag_count)`` per arc out of local index ``i``.
VfragRows = List[List[Tuple[int, int, int]]]


def iter_neighbors(graph, vertex: int) -> Iterator[Tuple[int, float]]:
    """Yield ``(neighbour, weight)`` pairs for ``vertex`` on any graph-like object.

    Accepts both mapping-style ``neighbors`` (``DynamicGraph``) and
    iterator-style ``neighbors`` (``Subgraph``).
    """
    result = graph.neighbors(vertex)
    if isinstance(result, Mapping):
        return iter(result.items())
    return iter(result)


def _edge_weights(graph, vertices) -> Iterator[float]:
    """Weights of the consecutive edges of ``vertices`` on any graph-like.

    Uses the graph's O(1) ``weight(u, v)`` accessor when available (every
    graph class in this repository, including snapshots, has one); the
    O(degree) linear neighbour scan survives only as a fallback for minimal
    graph-likes that expose nothing but ``neighbors``.
    """
    weight_of = getattr(graph, "weight", None)
    for index in range(len(vertices) - 1):
        u, v = vertices[index], vertices[index + 1]
        if weight_of is not None:
            try:
                yield weight_of(u, v)
            except (EdgeNotFoundError, KeyError):
                raise PathNotFoundError(u, v) from None
            continue
        for neighbor, weight in iter_neighbors(graph, u):
            if neighbor == v:
                yield weight
                break
        else:
            raise PathNotFoundError(u, v)


def path_weight(graph, vertices) -> float:
    """Distance of the path ``vertices`` on any graph-like object.

    The edge weights added left to right; FindKSP's candidate pricing.
    """
    total = 0.0
    for weight in _edge_weights(graph, vertices):
        total += weight
    return total


def prefix_weights(graph, vertices) -> List[float]:
    """Distance of every prefix of ``vertices``: entry ``i`` prices
    ``vertices[:i + 1]``.

    One running sum — the same left-to-right additions, so the same bits,
    as :func:`path_weight` of each prefix.  Yen's root pricing.
    """
    return list(accumulate(_edge_weights(graph, vertices), initial=0.0))


def _dijkstra_snapshot(
    snapshot: CSRSnapshot,
    source: int,
    target: Optional[int],
    allowed_vertices: Optional[Set[int]],
    banned_vertices: Optional[Set[int]],
    banned_edges: Optional[Set[Tuple[int, int]]],
    targets: Optional[Set[int]] = None,
    cutoff: Optional[float] = None,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Snapshot fast path of :func:`dijkstra`: translate, run kernel, translate back."""
    if banned_vertices and source in banned_vertices:
        return {}, {}
    index_of = snapshot.index_of
    try:
        source_index = index_of[source]
    except KeyError:
        raise VertexNotFoundError(source) from None
    target_index = -1
    if target is not None:
        target_index = index_of.get(target, -1)
    allowed_idx: Optional[Set[int]] = None
    if allowed_vertices is not None:
        allowed_idx = {index_of[v] for v in allowed_vertices if v in index_of}
    banned_idx: Optional[Set[int]] = None
    if banned_vertices:
        banned_idx = {index_of[v] for v in banned_vertices if v in index_of}
    banned_pairs: Optional[Set[Tuple[int, int]]] = None
    if banned_edges:
        banned_pairs = {
            (index_of[u], index_of[v])
            for u, v in banned_edges
            if u in index_of and v in index_of
        }
    rows, num_vertices = snapshot.rows, len(snapshot.ids)
    if targets is not None:
        # One-to-many (the dispatch in :func:`dijkstra` admits ``targets``
        # only without constraints): stop as soon as every requested target
        # is settled.
        dist, pred, _settled, touched = dijkstra_arrays_multi(
            rows, num_vertices, source_index,
            {index_of[v] for v in targets if v in index_of},
        )
    elif cutoff is not None:
        # Upper-bound pruned variant (spur searches with a known bound).
        dist, pred, _found, touched = bounded_dijkstra_arrays(
            rows,
            num_vertices,
            source_index,
            target_index,
            cutoff=cutoff,
            allowed=allowed_idx,
            banned_vertices=banned_idx or None,
            banned_pairs=banned_pairs or None,
            track_touched=True,
        )
    else:
        dist, pred, touched = dijkstra_arrays(
            rows,
            num_vertices,
            source_index,
            target=target_index,
            allowed=allowed_idx,
            banned_vertices=banned_idx or None,
            banned_pairs=banned_pairs or None,
        )
    # Labelled indices back to id space — the kernels track the labelled
    # set, so this stays O(labelled) — and every labelled vertex except the
    # source has a predecessor, so both conversions run at C speed.
    assert touched is not None
    get_id = snapshot.ids.__getitem__
    distances = dict(zip(map(get_id, touched), map(dist.__getitem__, touched)))
    rest = touched[1:]
    predecessors = dict(
        zip(map(get_id, rest), map(get_id, map(pred.__getitem__, rest)))
    )
    return distances, predecessors


def dijkstra(
    graph,
    source: int,
    target: Optional[int] = None,
    allowed_vertices: Optional[Set[int]] = None,
    banned_vertices: Optional[Set[int]] = None,
    banned_edges: Optional[Set[Tuple[int, int]]] = None,
    targets: Optional[Set[int]] = None,
    cutoff: Optional[float] = None,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Run Dijkstra's algorithm from ``source``.

    Parameters
    ----------
    graph:
        Any graph-like object with ``neighbors`` (see :func:`iter_neighbors`),
        or a :class:`~repro.kernel.snapshot.CSRSnapshot` — snapshots are
        dispatched to the array kernel and return identical results faster.
    source:
        Start vertex.
    target:
        Optional target; when given the search stops as soon as the target is
        settled, which is the common case in Yen's algorithm.
    allowed_vertices:
        When given, the search never leaves this vertex set.
    banned_vertices:
        Vertices that may not be visited (used by Yen's spur searches).
    banned_edges:
        Directed edge pairs ``(u, v)`` that may not be traversed.  For
        undirected graphs callers should ban both orientations.
    targets:
        Optional *set* of targets (one-to-many): the search stops as soon
        as every reachable member is settled.  Mutually exclusive with
        ``target``.  Distances are final for settled members of ``targets``
        (and for the predecessor chains leading to them); other labelled
        entries may be tentative, exactly as with a single-target early
        exit.
    cutoff:
        Optional upper bound on acceptable distances: relaxations beyond it
        are discarded at push time.  A target whose true distance exceeds
        the cutoff is reported unreachable.  Labels within the cutoff are
        bit-identical to the unpruned run's (the bound prunes the frontier
        but never reorders it).

    Returns
    -------
    (distances, predecessors)
        ``distances`` maps every settled vertex to its shortest distance from
        ``source``; ``predecessors`` maps each settled vertex (except the
        source) to the previous vertex on a shortest path.
    """
    if target is not None and targets is not None:
        raise ValueError("pass either target or targets, not both")
    if isinstance(graph, CSRSnapshot):
        # The kernel fast paths cover the combinations the query stack
        # uses.  The remaining combinations — ``targets`` together with
        # constraint sets, or ``cutoff`` without a resolvable target — run
        # on the generic loop below instead (a snapshot speaks the
        # ``neighbors`` protocol, and the generic loop honours every
        # parameter), so no parameter is ever silently dropped and both
        # kernels keep returning identical label dictionaries.
        targets_supported = targets is None or (
            allowed_vertices is None and not banned_vertices and not banned_edges
            and cutoff is None
        )
        cutoff_supported = cutoff is None or (
            target is not None and graph.has_vertex(target)
        )
        if targets_supported and cutoff_supported:
            return _dijkstra_snapshot(
                graph, source, target, allowed_vertices, banned_vertices,
                banned_edges, targets=targets, cutoff=cutoff,
            )
    # The generic loop counts into the same per-thread collector as the
    # kernel primitives (one thread-local lookup per search), so ``repro
    # stats`` totals stay consistent whichever code path answered —
    # including the fallback combinations above that the kernel fast paths
    # do not cover.  The counters observe, never steer: enabling profiling
    # cannot change labels or tie-breaks.  ``pruned`` counts cutoff
    # discards, mirroring the bound test of the kernel's
    # :func:`~repro.kernel.primitives.bounded_dijkstra_arrays`.
    prof = kernel_counters()
    if prof is not None:
        prof.searches += 1
    distances: Dict[int, float] = {source: 0.0}
    predecessors: Dict[int, int] = {}
    visited: Set[int] = set()
    heap: List[Tuple[float, int]] = [(0.0, source)]
    banned_vertices = banned_vertices or set()
    banned_edges = banned_edges or set()

    if source in banned_vertices:
        return {}, {}
    remaining: Optional[Set[int]] = None
    if targets is not None:
        remaining = set(targets)
        remaining.discard(source)
        if not remaining:
            return distances, predecessors

    while heap:
        distance, vertex = heapq.heappop(heap)
        if vertex in visited:
            continue
        visited.add(vertex)
        if prof is not None:
            prof.settled += 1
        if target is not None and vertex == target:
            break
        if remaining is not None and vertex in remaining:
            remaining.discard(vertex)
            if not remaining:
                break
        for neighbor, weight in iter_neighbors(graph, vertex):
            if neighbor in visited or neighbor in banned_vertices:
                continue
            if allowed_vertices is not None and neighbor not in allowed_vertices:
                continue
            if (vertex, neighbor) in banned_edges:
                continue
            candidate = distance + weight
            if cutoff is not None and candidate > cutoff:
                if prof is not None:
                    prof.pruned += 1
                continue
            if candidate < distances.get(neighbor, float("inf")):
                distances[neighbor] = candidate
                predecessors[neighbor] = vertex
                heapq.heappush(heap, (candidate, neighbor))
                if prof is not None:
                    prof.relaxed += 1
                    prof.heap_pushes += 1
                    if len(heap) > prof.heap_peak:
                        prof.heap_peak = len(heap)
    return distances, predecessors


def _reconstruct(predecessors: Mapping[int, int], source: int, target: int) -> Tuple[int, ...]:
    """Rebuild the vertex sequence from ``source`` to ``target``."""
    vertices = [target]
    while vertices[-1] != source:
        vertices.append(predecessors[vertices[-1]])
    vertices.reverse()
    return tuple(vertices)


def shortest_path(
    graph,
    source: int,
    target: int,
    allowed_vertices: Optional[Set[int]] = None,
) -> Path:
    """Return the shortest path from ``source`` to ``target``.

    Raises :class:`~repro.graph.errors.PathNotFoundError` when the target is
    unreachable.
    """
    if isinstance(graph, CSRSnapshot):
        return _shortest_path_snapshot(graph, source, target, allowed_vertices)
    distances, predecessors = dijkstra(
        graph, source, target=target, allowed_vertices=allowed_vertices
    )
    if target not in distances:
        raise PathNotFoundError(source, target)
    if source == target:
        return Path(0.0, (source,))
    return Path(distances[target], _reconstruct(predecessors, source, target))


def _shortest_path_snapshot(
    snapshot: CSRSnapshot,
    source: int,
    target: int,
    allowed_vertices: Optional[Set[int]],
) -> Path:
    """Snapshot fast path of :func:`shortest_path`.

    Runs the kernel without labelled-set tracking and converts only the
    vertices on the result path back to id space — the dominant cost of the
    dict wrapper (materialising the full distance/predecessor dictionaries)
    disappears for plain path queries.
    """
    if source == target:
        return Path(0.0, (source,))
    index_of = snapshot.index_of
    try:
        source_index = index_of[source]
    except KeyError:
        raise VertexNotFoundError(source) from None
    target_index = index_of.get(target)
    if target_index is None:
        raise PathNotFoundError(source, target)
    allowed_idx: Optional[Set[int]] = None
    if allowed_vertices is not None:
        allowed_idx = {index_of[v] for v in allowed_vertices if v in index_of}
    dist, pred, _ = dijkstra_arrays(
        snapshot.rows,
        len(snapshot.ids),
        source_index,
        target=target_index,
        allowed=allowed_idx,
        track_touched=False,
    )
    if pred[target_index] < 0:
        raise PathNotFoundError(source, target)
    sequence = reconstruct_indices(pred, source_index, target_index)
    get_id = snapshot.ids.__getitem__
    return Path(dist[target_index], tuple(map(get_id, sequence)))


def shortest_distance(graph, source: int, target: int) -> float:
    """Return only the shortest distance from ``source`` to ``target``."""
    return shortest_path(graph, source, target).distance


def shortest_path_tree(graph, destination: int) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Shortest-path tree towards ``destination``.

    Returns ``(distance_to_destination, successor)`` for every vertex that can
    reach the destination.  For undirected graphs this is a plain Dijkstra
    from the destination; for directed graphs callers should pass the reverse
    graph.  The FindKSP baseline uses the tree both to guide deviations and to
    lower-bound candidate path lengths.
    """
    distances, predecessors = dijkstra(graph, destination)
    successors = {vertex: parent for vertex, parent in predecessors.items()}
    return distances, successors


def vfrag_rows(graph_like, seeds: Iterable[int]) -> Tuple[List[int], VfragRows]:
    """Index-space adjacency of everything reachable from ``seeds``.

    Returns ``(ids, rows)``: ``ids[i]`` is the vertex with local index ``i``
    (the seeds come first, in the order given) and ``rows[i]`` lists
    ``(j, 1 << j, vfrag_count)`` for every arc ``ids[i] -> ids[j]``, in the
    order ``graph_like.neighbors`` yields them.  Vfrag counts derive from
    *initial* weights, so the rows stay valid under weight updates.
    """
    ids: List[int] = list(dict.fromkeys(seeds))
    index_of: Dict[int, int] = {vertex: index for index, vertex in enumerate(ids)}
    vfrag_count = graph_like.vfrag_count
    rows: VfragRows = []
    for vertex in ids:  # grows while neighbours are discovered
        row = []
        for neighbor, _weight in iter_neighbors(graph_like, vertex):
            index = index_of.get(neighbor)
            if index is None:
                index = index_of[neighbor] = len(ids)
                ids.append(neighbor)
            row.append((index, 1 << index, vfrag_count(vertex, neighbor)))
        rows.append(row)
    return ids, rows


def vfrag_label_search(
    ids: List[int],
    rows: VfragRows,
    source: int,
    max_distinct_counts: int,
    wanted: Optional[Iterable[int]] = None,
    label_slack: int = 2,
    labels_per_count: int = 2,
    max_expansions: int = 500_000,
) -> Tuple[Dict[int, List[Tuple[int, Tuple[int, ...]]]], bool]:
    """The bounding-path search of Section 3.4, in index space.

    Enumerates, from one source boundary vertex towards every other vertex
    at once, the simple paths with the smallest distinct vfrag counts — a
    key efficiency lever of the index build, because a subgraph with ``Nb``
    boundary vertices then needs ``Nb`` searches instead of ``Nb^2``.
    ``ids`` / ``rows`` come from :func:`vfrag_rows` (built once per subgraph
    and shared by every source); ``source`` and ``wanted`` are local
    indices.

    The search is a multi-label Dijkstra on vfrag counts: each vertex accepts
    up to ``max_distinct_counts + label_slack`` distinct count values, with at
    most ``labels_per_count`` concrete labels per count (keeping more than one
    avoids the case where the single kept witness of a tied count is a dead
    end that cannot be extended into a simple path).  A label remembers the
    vertices it visited so loops are excluded (bounding paths must be simple
    paths).  The label caps make the search polynomial; they can in principle
    miss a distinct count at a far target, which only makes the resulting
    lower bound slightly looser, never incorrect.  ``max_expansions`` caps
    the heap pops.

    A label is ``(count, seq, vertex, visited_mask, parent_label)``: a push
    is O(1), simplicity is one ``mask & bit`` test, and a vertex tuple is
    rebuilt from the parent chain only for the labels that are recorded.

    Only ``wanted`` vertices are recorded (all when ``None``) and the search
    stops once each of them holds ``max_distinct_counts`` counts — nothing
    popped later could be recorded, so what is returned equals the
    unrestricted result restricted to ``wanted``.

    Returns ``(results, truncated)``.  ``results`` maps each recorded vertex
    id (never the source) to a list of ``(vfrag_count, vertex_sequence)``
    sorted by vfrag count: at most ``max_distinct_counts`` entries, distinct
    counts, simple paths only.  ``truncated`` says the search stopped on
    ``max_expansions`` with labels left and a wanted vertex still short of
    ``max_distinct_counts`` counts, i.e. Theorem 1's bound may be looser than
    an exhaustive search would make it.
    """
    if max_distinct_counts <= 0:
        raise ValueError("max_distinct_counts must be positive")
    labels_per_vertex = max_distinct_counts + max(0, label_slack)
    labels_per_count = max(1, labels_per_count)
    wanted = range(len(rows)) if wanted is None else set(wanted)
    pending = len(wanted) - (source in wanted)
    # accepted[vertex] -> {count: number of accepted labels with that count}
    accepted: List[Optional[Dict[int, int]]] = [None] * len(rows)
    recorded: Dict[int, list] = {}
    heappop, heappush = heapq.heappop, heapq.heappush
    heap: list = [(0, 0, source, 1 << source, None)]
    seq = 0
    expansions = 0

    while heap and pending and expansions < max_expansions:
        label = heappop(heap)
        expansions += 1
        vfrags, _, vertex, mask, _ = label
        counts = accepted[vertex]
        if counts is None:
            counts = accepted[vertex] = {}
        held = counts.get(vfrags, 0)
        if held >= labels_per_count or (not held and len(counts) >= labels_per_vertex):
            continue
        counts[vfrags] = held + 1
        # Recorded counts are a subset of accepted ones, so the first label
        # accepted for a count is the only one that can be a new record.
        if not held and vertex != source and vertex in wanted:
            found = recorded.setdefault(vertex, [])
            if len(found) < max_distinct_counts:
                found.append(label)
                if len(found) == max_distinct_counts:
                    pending -= 1
        for neighbor, bit, step in rows[vertex]:
            if mask & bit:
                continue
            next_count = vfrags + step
            counts = accepted[neighbor]
            if counts is not None:
                held = counts.get(next_count, 0)
                if held >= labels_per_count or (
                    not held and len(counts) >= labels_per_vertex
                ):
                    continue
            seq += 1
            heappush(heap, (next_count, seq, neighbor, mask | bit, label))

    results: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
    for vertex, found in recorded.items():
        paths = results[ids[vertex]] = []
        for label in found:
            vfrags = label[0]
            sequence = []
            while label is not None:
                sequence.append(ids[label[2]])
                label = label[4]
            paths.append((vfrags, tuple(reversed(sequence))))
    return results, bool(heap) and pending > 0
