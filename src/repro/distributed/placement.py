"""Logical placement: subgraph→worker assignment and query routing.

The paper's deployment (Section 6.1) places each subgraph — and its
first-level DTLP index — on one of ``Ns`` servers, balancing load, and
spreads QueryBolts across the servers.  This module captures that *logical*
side of the cluster on its own, separated from the *physical* execution
backend (:mod:`repro.exec`): the placement decides who owns what and who is
charged for which work, while an executor merely decides which OS resource
runs it.  Keeping the placement pure and deterministic is what lets the
serial and process backends produce bit-identical results and cost
accounting (see ``ARCHITECTURE.md``, "Placement vs. Executor").

The placement is fixed at deployment, as in the paper, and changes only
through the fault and elasticity surgery of
:class:`~repro.distributed.topology.StormTopology` (a failure, a join, a
retirement).  :func:`plan_join` plans the one of those that is not a plain
drain: which subgraphs a freshly joined worker takes over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..graph.errors import ClusterError
from ..graph.partition import GraphPartition

__all__ = [
    "greedy_balance",
    "vertex_loads",
    "Placement",
    "Move",
    "LoadReport",
    "MigrationPlan",
    "plan_join",
]

#: One migration: ``(subgraph_id, source_worker, target_worker)``.
Move = Tuple[int, int, int]


def greedy_balance(loads: Mapping[int, float], num_workers: int) -> Dict[int, int]:
    """Assign items to workers balancing the given loads.

    Items are assigned greedily, largest first, to the currently
    least-loaded worker — the many-to-one subgraph placement of Section
    5.2.  Ties (equal loads) are broken by the mapping's iteration order,
    which makes the result deterministic for a given input ordering.
    """
    if num_workers < 1:
        raise ClusterError("a placement needs at least one worker")
    assignment: Dict[int, int] = {}
    worker_loads = [0.0] * num_workers
    for item_id, load in sorted(loads.items(), key=lambda kv: -kv[1]):
        worker_id = worker_loads.index(min(worker_loads))
        worker_loads[worker_id] += load
        assignment[item_id] = worker_id
    return assignment


def vertex_loads(partition: GraphPartition) -> Dict[int, float]:
    """Per-subgraph load estimate: its vertex count (Section 5.2)."""
    return {
        subgraph.subgraph_id: float(subgraph.num_vertices)
        for subgraph in partition.subgraphs
    }


class Placement:
    """Deterministic subgraph→worker assignment plus query routing.

    Parameters
    ----------
    num_workers:
        Number of logical workers (the paper's ``Ns``).
    assignment:
        Mapping from subgraph id to worker id.  Use
        :meth:`Placement.balanced` to compute one from a partition.
    """

    def __init__(self, num_workers: int, assignment: Mapping[int, int]) -> None:
        if num_workers < 1:
            raise ClusterError("a placement needs at least one worker")
        for subgraph_id, worker_id in assignment.items():
            if not 0 <= worker_id < num_workers:
                raise ClusterError(
                    f"subgraph {subgraph_id} assigned to unknown worker {worker_id}"
                )
        self._num_workers = num_workers
        self._assignment: Dict[int, int] = dict(assignment)
        self._by_worker: Dict[int, List[int]] = {
            worker_id: [] for worker_id in range(num_workers)
        }
        for subgraph_id, worker_id in self._assignment.items():
            self._by_worker[worker_id].append(subgraph_id)

    @classmethod
    def balanced(cls, partition: GraphPartition, num_workers: int) -> "Placement":
        """Balanced placement of a partition's subgraphs by vertex count."""
        return cls(num_workers, greedy_balance(vertex_loads(partition), num_workers))

    @property
    def num_workers(self) -> int:
        """Number of logical workers."""
        return self._num_workers

    @property
    def assignment(self) -> Dict[int, int]:
        """Copy of the subgraph→worker mapping."""
        return dict(self._assignment)

    def subgraphs_on(self, worker_id: int) -> Tuple[int, ...]:
        """Subgraphs owned by one worker, in assignment order."""
        try:
            return tuple(self._by_worker[worker_id])
        except KeyError:
            raise ClusterError(f"no worker with id {worker_id}") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Placement workers={self._num_workers} "
            f"subgraphs={len(self._assignment)}>"
        )


@dataclass(frozen=True)
class LoadReport:
    """Per-subgraph loads rolled up to per-worker loads under one placement.

    Attributes
    ----------
    workers:
        The worker ids the loads were aggregated over — all workers of the
        placement by default, or the surviving subset after failures (dead
        workers must neither receive subgraphs nor skew the mean).
    subgraph_load:
        Load per subgraph id.
    worker_load:
        Sum of the owned subgraphs' loads per worker id; every worker in
        ``workers`` appears, including idle ones.
    """

    workers: Tuple[int, ...]
    subgraph_load: Dict[int, float] = field(default_factory=dict)
    worker_load: Dict[int, float] = field(default_factory=dict)

    @classmethod
    def from_loads(
        cls,
        subgraph_load: Mapping[int, float],
        placement: Placement,
        workers: Optional[Sequence[int]] = None,
    ) -> "LoadReport":
        """Roll per-subgraph loads up to per-worker loads under ``placement``.

        Subgraphs missing from ``subgraph_load`` count as zero; loads for
        subgraphs the placement does not know are ignored.  ``workers``
        defaults to every worker of the placement; pass the surviving
        subset after failures.
        """
        pool: Tuple[int, ...] = (
            tuple(range(placement.num_workers))
            if workers is None
            else tuple(sorted(set(workers)))
        )
        if not pool:
            raise ClusterError("a load report needs at least one worker")
        worker_load: Dict[int, float] = {worker_id: 0.0 for worker_id in pool}
        known: Dict[int, float] = {}
        for subgraph_id, worker_id in sorted(placement.assignment.items()):
            load = float(subgraph_load.get(subgraph_id, 0.0))
            known[subgraph_id] = load
            if worker_id in worker_load:
                worker_load[worker_id] += load
        return cls(workers=pool, subgraph_load=known, worker_load=worker_load)

    def imbalance(self) -> float:
        """Skew score: max worker load over mean worker load.

        ``1.0`` means perfectly balanced; ``len(workers)`` means one
        worker carries everything.  A report with no load is ``1.0``.
        """
        loads = [self.worker_load.get(w, 0.0) for w in self.workers]
        mean = sum(loads) / max(len(loads), 1)
        if mean <= 0.0:
            return 1.0
        return max(loads) / mean


@dataclass(frozen=True)
class MigrationPlan:
    """The moves of one placement change and the skew they leave.

    Attributes
    ----------
    moves:
        ``(subgraph_id, source_worker, target_worker)`` triples, sorted by
        subgraph id, covering exactly the subgraphs whose owner changes.
    imbalance_before / imbalance_after:
        Max/mean worker-load ratio under the old and new placement,
        computed from the same loads.
    """

    moves: Tuple[Move, ...]
    imbalance_before: float
    imbalance_after: float


def plan_join(
    load: LoadReport,
    placement: Placement,
    joiner: int,
) -> Optional[MigrationPlan]:
    """Plan the migration onto a freshly joined (empty) worker.

    The inverse of the failover plan: instead of spreading a dead worker's
    subgraphs over the survivors, subgraphs are *stolen* from the loaded
    workers onto the joiner.  Each step takes the currently hottest donor
    (lowest id on ties) and moves its heaviest subgraph (lowest id on
    ties) whose transfer keeps the joiner strictly below the donor's
    pre-move load — the classic work-stealing condition, which terminates
    (every subgraph moves at most once) and never turns the joiner into
    the new hotspot.  Iteration order is fixed by worker/subgraph id, so
    the plan is deterministic and identical on every execution backend.

    ``load`` must include the joiner in its worker pool (with zero load).
    Returns ``None`` when nothing can usefully move (e.g. a single
    subgraph, or no load at all).
    """
    if joiner not in load.workers:
        raise ClusterError(f"joiner {joiner} missing from the load report pool")
    loads = {worker_id: load.worker_load.get(worker_id, 0.0) for worker_id in load.workers}
    assignment = dict(placement.assignment)
    sub_load = load.subgraph_load
    donors = sorted(worker_id for worker_id in load.workers if worker_id != joiner)
    if not donors:
        return None
    moves = []
    while True:
        # Hottest donor first, but fall through to cooler donors when the
        # hottest one cannot donate (e.g. it owns a single huge subgraph
        # the stealing condition refuses to move wholesale).
        stolen = False
        for donor in sorted(donors, key=lambda worker_id: (-loads[worker_id], worker_id)):
            best_sid: Optional[int] = None
            best_load = -1.0
            for sid in sorted(s for s, w in assignment.items() if w == donor):
                amount = float(sub_load.get(sid, 0.0))
                if loads[joiner] + amount < loads[donor] and amount > best_load:
                    best_sid, best_load = sid, amount
            if best_sid is None:
                continue
            assignment[best_sid] = joiner
            loads[donor] -= best_load
            loads[joiner] += best_load
            moves.append((best_sid, donor, joiner))
            stolen = True
            break
        if not stolen:
            break
    if not moves:
        return None
    num_workers = max(placement.num_workers, joiner + 1)
    after = LoadReport.from_loads(
        sub_load, Placement(num_workers, assignment), workers=load.workers
    )
    return MigrationPlan(
        moves=tuple(sorted(moves)),
        imbalance_before=load.imbalance(),
        imbalance_after=after.imbalance(),
    )
