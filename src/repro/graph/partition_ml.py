"""Multilevel min-cut partitioning (METIS-style) for boundary-vertex quality.

The paper's Section 3.3 partitions ``G`` with BFS from arbitrary start
vertices, but everything downstream scales with the quantity BFS ignores:
*boundary vertices* drive DTLP index size, boundary-pair table builds, and
every boundary-pair search a query performs.  This module implements the
classic multilevel scheme used by METIS (and by DGL's distributed
``partition_graph``) to minimise the cut — and with it the boundary-vertex
count — under the same ``z``-vertex balance constraint:

1. **Coarsening** — heavy-edge matching repeatedly collapses the heaviest
   incident edge of each vertex into a super-vertex, shrinking the graph
   while preserving its cut structure.
2. **Initial partition** — greedy graph growing (GGGP) on the coarsest
   graph: one side of a bisection absorbs, at every step, the frontier
   vertex with the best gain (edges absorbed minus edges newly exposed).
3. **Refinement** — on the way back up, Fiduccia–Mattheyses passes sweep
   boundary vertices by gain, applying zero- and negative-gain moves too
   (each vertex moves at most once per pass) and rolling back to the best
   prefix, which lets ragged boundaries straighten across gain plateaus.

Blocks are produced by *recursive bisection*: the vertex set is split in
two (with capacities proportional to the number of ``z``-blocks each side
must hold), each side recursively until every piece fits in one block, and
a final k-way FM polish runs over the finest level.  Recursive bisection
is the quality workhorse here — two-sided FM escapes the local minima that
direct k-way refinement gets stuck in on near-planar road networks.

The cut size (number of cross edges) is the natural proxy for the
boundary-vertex count: every cross edge forces exactly one endpoint to be
adopted as a shared vertex by
:func:`~repro.graph.partition.assemble_partition`.

All iteration orders are sorted, so the partitioner is deterministic for a
given graph regardless of insertion order or ``PYTHONHASHSEED`` — the same
contract :func:`~repro.graph.partition.partition_graph` honours, which the
partition store's fingerprints rely on.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import PartitionError
from .graph import DynamicGraph
from .partition import GraphPartition, assemble_partition, partition_graph

__all__ = [
    "partition_mincut",
    "make_partition",
    "PARTITIONERS",
]

#: Stop coarsening a bisection problem below this many super-vertices; the
#: greedy grower needs some granularity left to balance the sides.
_BISECT_FLOOR = 96

#: Per-side size tolerance around the proportional split of one bisection.
_BISECT_TOL = 0.06

#: Stop coarsening when a matching round shrinks the graph by less than this
#: factor — the graph has become matching-resistant (e.g. star-like).
_COARSEN_MIN_SHRINK = 0.95

#: Default number of FM sweeps per level.  Sweeps stop early once a full
#: pass yields no cut reduction, so this is a cap, not a cost.
_DEFAULT_REFINE_PASSES = 8


class _Level:
    """One level of the multilevel hierarchy (index-based, symmetrised)."""

    __slots__ = ("adjacency", "size", "parent")

    def __init__(
        self,
        adjacency: List[Dict[int, float]],
        size: List[int],
        parent: Optional[List[int]],
    ) -> None:
        self.adjacency = adjacency
        self.size = size
        #: For each vertex of the *finer* level, the index of its coarse
        #: super-vertex (``None`` at the finest level).
        self.parent = parent

    @property
    def num_vertices(self) -> int:
        return len(self.adjacency)


def _finest_level(graph: DynamicGraph, vertex_ids: Sequence[int]) -> _Level:
    """Index the graph's vertices (sorted order) into a symmetrised level."""
    index_of = {vertex: index for index, vertex in enumerate(vertex_ids)}
    adjacency: List[Dict[int, float]] = [dict() for _ in vertex_ids]
    for u, v, _ in graph.edges():
        if u == v:
            continue
        iu, iv = index_of[u], index_of[v]
        # Directed arcs are symmetrised for partitioning: the cut objective
        # counts adjacency, not orientation.
        adjacency[iu][iv] = adjacency[iu].get(iv, 0.0) + 1.0
        adjacency[iv][iu] = adjacency[iv].get(iu, 0.0) + 1.0
    return _Level(adjacency, [1] * len(vertex_ids), parent=None)


def _induced_level(level: _Level, indices: Sequence[int]) -> _Level:
    """The sub-level induced by ``indices`` (edges inside the set only)."""
    local_of = {index: local for local, index in enumerate(indices)}
    adjacency: List[Dict[int, float]] = [dict() for _ in indices]
    for local, index in enumerate(indices):
        row = adjacency[local]
        for v, weight in level.adjacency[index].items():
            local_v = local_of.get(v)
            if local_v is not None:
                row[local_v] = weight
    size = [level.size[index] for index in indices]
    return _Level(adjacency, size, parent=None)


def _coarsen(level: _Level, size_cap: int) -> Optional[_Level]:
    """One round of heavy-edge matching; ``None`` when matching stalls."""
    n = level.num_vertices
    matched = [-1] * n
    # Visit vertices in increasing-degree order (deterministic and known to
    # produce good matchings: low-degree vertices have fewest options).
    order = sorted(range(n), key=lambda u: (len(level.adjacency[u]), u))
    for u in order:
        if matched[u] >= 0:
            continue
        best_v = -1
        best_weight = 0.0
        for v in sorted(level.adjacency[u]):
            if matched[v] >= 0 or v == u:
                continue
            if level.size[u] + level.size[v] > size_cap:
                continue  # keep super-vertices small enough to pack blocks
            weight = level.adjacency[u][v]
            if weight > best_weight:
                best_weight, best_v = weight, v
        if best_v >= 0:
            matched[u] = best_v
            matched[best_v] = u
        else:
            matched[u] = u  # stays a singleton this round

    # Assign coarse indices in sorted order of the smaller endpoint so the
    # coarse level is deterministic.
    parent = [-1] * n
    next_id = 0
    for u in range(n):
        if parent[u] >= 0:
            continue
        v = matched[u]
        parent[u] = next_id
        if v != u:
            parent[v] = next_id
        next_id += 1
    if next_id > n * _COARSEN_MIN_SHRINK:
        return None

    adjacency: List[Dict[int, float]] = [dict() for _ in range(next_id)]
    size = [0] * next_id
    for u in range(n):
        cu = parent[u]
        size[cu] += level.size[u]
        row = adjacency[cu]
        for v, weight in level.adjacency[u].items():
            cv = parent[v]
            if cv == cu:
                continue
            row[cv] = row.get(cv, 0.0) + weight
    return _Level(adjacency, size, parent=parent)


def _fm_pass(
    level: _Level,
    assign: List[int],
    block_size: List[int],
    block_cap: Sequence[int],
) -> float:
    """One Fiduccia–Mattheyses pass; returns the cut reduction achieved.

    Unlike a plain greedy sweep, FM also applies zero- and negative-gain
    moves (each vertex at most once per pass), which lets ragged block
    boundaries straighten across gain plateaus; the pass keeps the move
    prefix with the best cumulative gain and rolls the rest back, so the
    cut never increases.
    """
    n = level.num_vertices
    locked = [False] * n
    stamp = [0] * n
    heap: List[Tuple[float, int, int, int]] = []  # (-gain, vertex, target, stamp)

    def feasible(u: int, target: int) -> bool:
        if block_size[target] + level.size[u] > block_cap[target]:
            return False
        return block_size[assign[u]] > level.size[u]  # never empty a block

    def push_best_move(u: int) -> None:
        current = assign[u]
        conn: Dict[int, float] = {}
        for v, weight in level.adjacency[u].items():
            b = assign[v]
            conn[b] = conn.get(b, 0.0) + weight
        internal = conn.get(current, 0.0)
        best_block = -1
        best_gain = 0.0
        for b in sorted(conn):
            if b == current or not feasible(u, b):
                continue
            gain = conn[b] - internal
            if best_block < 0 or gain > best_gain:
                best_gain, best_block = gain, b
        if best_block >= 0:
            heapq.heappush(heap, (-best_gain, u, best_block, stamp[u]))

    for u in range(n):
        push_best_move(u)

    moves: List[Tuple[int, int, int]] = []  # (vertex, from, to)
    total = 0.0
    best_total = 0.0
    best_prefix = 0
    # A pass that keeps drifting below its best prefix is wasting time;
    # cut it off after a budget of unproductive moves.
    max_drift = max(32, n // 4)
    # Feasibility changes as blocks fill and drain, so stale entries are
    # re-pushed rather than locked; the pop budget bounds the pass.
    pops_left = 50 * n

    while heap and pops_left > 0:
        pops_left -= 1
        neg_gain, u, target, seen_stamp = heapq.heappop(heap)
        if locked[u] or seen_stamp != stamp[u]:
            continue
        current = assign[u]
        if target == current:
            continue
        if not feasible(u, target):
            # The target filled up since the push; queue the now-best
            # feasible move instead (neighbour moves re-awaken the vertex
            # via the stamp if nothing is feasible right now).
            stamp[u] += 1
            push_best_move(u)
            continue
        locked[u] = True
        assign[u] = target
        block_size[current] -= level.size[u]
        block_size[target] += level.size[u]
        total += -neg_gain
        moves.append((u, current, target))
        if total > best_total:
            best_total = total
            best_prefix = len(moves)
        elif len(moves) - best_prefix > max_drift:
            break
        for v in sorted(level.adjacency[u]):
            if not locked[v]:
                stamp[v] += 1
                push_best_move(v)

    # Roll back past the best prefix so the pass never worsens the cut.
    for u, origin, target in reversed(moves[best_prefix:]):
        assign[u] = origin
        block_size[target] -= level.size[u]
        block_size[origin] += level.size[u]
    return best_total


def _refine(
    level: _Level,
    assign: List[int],
    num_blocks: int,
    block_cap: Sequence[int],
    passes: int,
) -> None:
    """KL/FM boundary refinement, in place: repeated FM passes.

    Stops early once a full pass yields no cut reduction.
    """
    block_size = [0] * num_blocks
    for u, b in enumerate(assign):
        block_size[b] += level.size[u]

    for _ in range(passes):
        if _fm_pass(level, assign, block_size, block_cap) <= 0:
            break


def _grow_side(level: _Level, target: int, cap: int) -> List[int]:
    """Greedy graph growing of one bisection side; returns 0/1 assignment.

    Side 0 is grown from a peripheral seed (minimum degree) by repeatedly
    absorbing the frontier vertex with the best GGGP gain (edges absorbed
    into the side minus edges newly exposed) until it reaches ``target``
    size.
    """
    n = level.num_vertices
    assign = [1] * n
    grown = 0
    conn: Dict[int, float] = {}

    def next_seed() -> int:
        best = -1
        best_key: Tuple[int, int] = (0, 0)
        for u in range(n):
            if assign[u] == 0:
                continue
            key = (len(level.adjacency[u]), u)
            if best < 0 or key < best_key:
                best, best_key = u, key
        return best

    def absorb(u: int) -> None:
        nonlocal grown
        assign[u] = 0
        grown += level.size[u]
        conn.pop(u, None)
        for v, weight in level.adjacency[u].items():
            if assign[v] == 1:
                conn[v] = conn.get(v, 0.0) + weight

    absorb(next_seed())
    while grown < target:
        best = -1
        best_gain = float("-inf")
        for v in sorted(conn):
            if grown + level.size[v] > cap:
                continue
            degree = sum(level.adjacency[v].values())
            gain = 2.0 * conn[v] - degree
            if gain > best_gain:
                best_gain, best = gain, v
        if best < 0:
            # Disconnected component exhausted (or nothing fits): restart
            # growth from the next peripheral unassigned vertex.
            seed = next_seed()
            if seed < 0 or grown + level.size[seed] > cap:
                break
            absorb(seed)
            continue
        absorb(best)
    return assign


def _multilevel_bisect(
    sub: _Level,
    blocks_side0: int,
    blocks_side1: int,
    max_vertices: int,
    passes: int,
) -> List[int]:
    """Bisect ``sub`` into two sides sized for ``blocks_side0``/``blocks_side1``
    blocks of at most ``max_vertices`` home vertices; returns 0/1 labels."""
    total_size = sum(sub.size)
    total_blocks = blocks_side0 + blocks_side1
    # Each side is capped near its *proportional* share, not at its full
    # ``k_i * z`` block capacity: a side that drifts to capacity leaves the
    # deeper bisections forced-exact (zero FM freedom) and their cuts
    # degrade badly.  6% tolerance keeps the z-headroom alive all the way
    # down the recursion while still letting FM wander across plateaus.
    ideal0 = total_size * blocks_side0 / total_blocks
    ideal1 = total_size - ideal0
    cap0 = min(blocks_side0 * max_vertices, int(ideal0 * (1.0 + _BISECT_TOL)) + 1)
    cap1 = min(blocks_side1 * max_vertices, int(ideal1 * (1.0 + _BISECT_TOL)) + 1)
    # The ideal split is proportional to the block counts; the hard floor
    # keeps side 1 within its capacity.
    target = max(
        (total_size * blocks_side0 + total_blocks - 1) // total_blocks,
        total_size - cap1,
    )
    target = min(target, cap0)

    levels = [sub]
    while levels[-1].num_vertices > _BISECT_FLOOR:
        # Super-vertices stay small relative to the sides so the grower can
        # hit the target size without large overshoot.
        size_cap = max(2, total_size // 64)
        coarser = _coarsen(levels[-1], size_cap)
        if coarser is None:
            break
        levels.append(coarser)

    assign = _grow_side(levels[-1], target, cap=cap0)
    caps = (cap0, cap1)
    _refine(levels[-1], assign, 2, caps, passes)
    for level_index in range(len(levels) - 2, -1, -1):
        level = levels[level_index]
        parent = levels[level_index + 1].parent
        assert parent is not None
        assign = [assign[parent[u]] for u in range(level.num_vertices)]
        _refine(level, assign, 2, caps, passes)
    return assign


def _partition_indices(
    level: _Level,
    indices: List[int],
    num_blocks: int,
    max_vertices: int,
    passes: int,
    blocks_out: List[List[int]],
) -> None:
    """Recursively bisect ``indices`` into ``num_blocks`` blocks."""
    if num_blocks <= 1 or len(indices) <= 1:
        blocks_out.append(indices)
        return
    blocks_side0 = (num_blocks + 1) // 2
    blocks_side1 = num_blocks - blocks_side0
    sub = _induced_level(level, indices)
    assign = _multilevel_bisect(sub, blocks_side0, blocks_side1, max_vertices, passes)
    side0 = [indices[local] for local, side in enumerate(assign) if side == 0]
    side1 = [indices[local] for local, side in enumerate(assign) if side == 1]
    if not side0 or not side1:
        # Degenerate split (tiny or pathological component): fall back to a
        # plain slice so recursion always terminates.
        merged = sorted(side0 + side1)
        half = max(1, blocks_side0 * max_vertices)
        side0, side1 = merged[:half], merged[half:]
        if not side1:
            blocks_out.append(side0)
            return
    _partition_indices(level, side0, blocks_side0, max_vertices, passes, blocks_out)
    _partition_indices(level, side1, blocks_side1, max_vertices, passes, blocks_out)


def partition_mincut(
    graph: DynamicGraph,
    max_vertices: int,
    *,
    refine_passes: int = _DEFAULT_REFINE_PASSES,
) -> GraphPartition:
    """Partition ``graph`` with the multilevel min-cut scheme.

    Produces a :class:`~repro.graph.partition.GraphPartition` satisfying
    exactly the same contract as :func:`~repro.graph.partition.partition_graph`
    (vertex/edge cover, edge-disjointness, at most ``max_vertices`` home
    vertices per subgraph plus adopted boundary vertices), so DTLP, KSP-DG
    and the Storm topology run on it unchanged — just with fewer boundary
    vertices.

    Parameters
    ----------
    graph:
        The graph to partition.
    max_vertices:
        The paper's ``z``: maximum home vertices per subgraph.
    refine_passes:
        Upper bound on FM sweeps per level.
    """
    if max_vertices < 2:
        raise PartitionError("max_vertices (z) must be at least 2")
    if graph.num_vertices == 0:
        return GraphPartition(graph, [])

    vertex_ids = sorted(graph.vertices())
    if len(vertex_ids) <= max_vertices:
        return assemble_partition(graph, [vertex_ids])

    finest = _finest_level(graph, vertex_ids)
    num_vertices = len(vertex_ids)

    # Candidate block counts: the minimum feasible k, and — when that packs
    # blocks beyond ~92% of ``z`` — also k+1.  Headroom below the hard cap
    # is what gives FM refinement freedom to move vertices, but when the
    # graph has a natural exact-fill structure (e.g. one cluster per block)
    # the tight k wins, so both are built and the one with fewer boundary
    # vertices kept.
    min_blocks = -(-num_vertices // max_vertices)  # ceil
    candidates = [min_blocks]
    if num_vertices > min_blocks * max_vertices * 0.92:
        candidates.append(min_blocks + 1)

    best: Optional[GraphPartition] = None
    for num_blocks in candidates:
        attempt = _partition_with_block_count(
            graph, finest, vertex_ids, num_blocks, max_vertices, refine_passes
        )
        if best is None or len(attempt.boundary_vertices) < len(best.boundary_vertices):
            best = attempt
    assert best is not None
    return best


def _partition_with_block_count(
    graph: DynamicGraph,
    finest: _Level,
    vertex_ids: Sequence[int],
    num_blocks: int,
    max_vertices: int,
    refine_passes: int,
) -> GraphPartition:
    """One full multilevel run targeting ``num_blocks`` blocks."""

    # Coarsen the whole graph first (super-vertices capped at z/8 so blocks
    # can still be packed tightly), seed the coarsest level by recursive
    # bisection, then repair the bisection's compounding mistakes with
    # k-way FM refinement at every uncoarsening level — the METIS recipe.
    levels = [finest]
    kway_size_cap = max(2, max_vertices // 8)
    kway_floor = max(128, 2 * num_blocks)
    while levels[-1].num_vertices > kway_floor:
        coarser = _coarsen(levels[-1], kway_size_cap)
        if coarser is None:
            break
        levels.append(coarser)
    coarsest = levels[-1]

    blocks_idx: List[List[int]] = []
    _partition_indices(
        coarsest,
        list(range(coarsest.num_vertices)),
        num_blocks,
        max_vertices,
        refine_passes,
        blocks_idx,
    )
    blocks_idx = [block for block in blocks_idx if block]

    assign = [0] * coarsest.num_vertices
    for block_id, block in enumerate(blocks_idx):
        for index in block:
            assign[index] = block_id
    caps = [max_vertices] * len(blocks_idx)
    _refine(coarsest, assign, len(blocks_idx), caps, refine_passes)
    for level_index in range(len(levels) - 2, -1, -1):
        level = levels[level_index]
        parent = levels[level_index + 1].parent
        assert parent is not None
        assign = [assign[parent[u]] for u in range(level.num_vertices)]
        _refine(level, assign, len(blocks_idx), caps, refine_passes)

    blocks: List[List[int]] = [[] for _ in range(len(blocks_idx))]
    for index, block_id in enumerate(assign):
        blocks[block_id].append(vertex_ids[index])
    blocks = [sorted(block) for block in blocks if block]
    return assemble_partition(graph, blocks)


#: Registry used by the CLI (``--partitioner {bfs,mincut}``), the store and
#: ``DTLPConfig.partitioner``.
PARTITIONERS: Dict[str, Callable[..., GraphPartition]] = {
    "bfs": partition_graph,
    "mincut": partition_mincut,
}


def make_partition(
    graph: DynamicGraph,
    max_vertices: int,
    partitioner: str = "bfs",
    **kwargs: object,
) -> GraphPartition:
    """Build a partition with the named partitioner (``bfs`` or ``mincut``)."""
    try:
        build = PARTITIONERS[partitioner]
    except KeyError:
        raise PartitionError(
            f"unknown partitioner {partitioner!r}; expected one of "
            f"{sorted(PARTITIONERS)}"
        ) from None
    return build(graph, max_vertices, **kwargs)
