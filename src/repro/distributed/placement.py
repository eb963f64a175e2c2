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

The placement is fixed at deployment, as in the paper (Section 5.2): a
greedy balance of vertex counts that no later event re-labels.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ..graph.errors import ClusterError
from ..graph.partition import GraphPartition

__all__ = [
    "greedy_balance",
    "vertex_loads",
    "Placement",
]


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
