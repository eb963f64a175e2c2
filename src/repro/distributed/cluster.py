"""Simulated cluster: workers, cost accounting and the parallel-time model.

The paper deploys KSP-DG on Apache Storm across 10-20 physical servers.  This
repository substitutes an in-process simulation that preserves the aspects
the evaluation depends on:

* the *placement* of subgraphs (and their first-level DTLP indexes) onto
  workers, balanced by load;
* the *attribution* of computation to the worker that performs it, so the
  simulated parallel time of a workload is the makespan over workers;
* the *communication volume* between components, measured in vertices
  transferred (the unit of Section 5.6.1).

The simulation is intentionally simple — there is no event-driven network
model — because the paper's experiments report aggregate throughput and
latency trends rather than network-level effects.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..graph.errors import ClusterError
from ..obs.metrics import MetricsRegistry
from .placement import greedy_balance

__all__ = ["WorkerStats", "SimulatedWorker", "SimulatedCluster", "ClusterAccountant"]


@dataclass
class WorkerStats:
    """Accumulated cost statistics of one worker.

    ``subgraph_seconds`` / ``subgraph_tasks`` attribute SubgraphBolt work
    to the individual subgraph that was served.  They are a *parallel*
    channel: charging them never touches
    ``busy_seconds`` or ``tasks_executed``, so the pre-existing counters
    stay bit-identical to the seed behaviour.
    """

    worker_id: int
    busy_seconds: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0
    units_sent: int = 0
    units_received: int = 0
    tasks_executed: int = 0
    memory_bytes: int = 0
    subgraph_seconds: Dict[int, float] = field(default_factory=dict)
    subgraph_tasks: Dict[int, int] = field(default_factory=dict)


class SimulatedWorker:
    """One worker (server) of the simulated cluster."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.stats = WorkerStats(worker_id=worker_id)

    def charge_compute(self, seconds: float) -> None:
        """Attribute ``seconds`` of computation to this worker."""
        if seconds < 0:
            raise ClusterError("cannot charge negative compute time")
        self.stats.busy_seconds += seconds
        self.stats.tasks_executed += 1

    def charge_send(self, units: int) -> None:
        """Record an outgoing message of ``units`` transfer units."""
        self.stats.messages_sent += 1
        self.stats.units_sent += units

    def charge_receive(self, units: int) -> None:
        """Record an incoming message of ``units`` transfer units."""
        self.stats.messages_received += 1
        self.stats.units_received += units

    def charge_memory(self, num_bytes: int) -> None:
        """Attribute ``num_bytes`` of resident index memory to this worker."""
        self.stats.memory_bytes += num_bytes

    def charge_subgraph(self, subgraph_id: int, seconds: float) -> None:
        """Attribute one subgraph-serving operation to ``subgraph_id``.

        Per-subgraph cost telemetry only; the worker-level
        ``busy_seconds`` / ``tasks_executed`` counters are charged
        separately (and unchanged) by the existing ``charge_compute``
        calls.  The task count is deterministic (identical on every
        execution backend); the seconds are wall clock.
        """
        if seconds < 0:
            raise ClusterError("cannot charge negative subgraph time")
        stats = self.stats
        stats.subgraph_seconds[subgraph_id] = (
            stats.subgraph_seconds.get(subgraph_id, 0.0) + seconds
        )
        stats.subgraph_tasks[subgraph_id] = stats.subgraph_tasks.get(subgraph_id, 0) + 1

    def reset_time(self) -> None:
        """Clear accumulated busy time and message counters (memory stays)."""
        memory = self.stats.memory_bytes
        self.stats = WorkerStats(worker_id=self.worker_id, memory_bytes=memory)


class SimulatedCluster:
    """A fixed pool of simulated workers plus one master.

    Parameters
    ----------
    num_workers:
        Number of worker servers (the paper's ``Ns``).
    """

    MASTER_ID = -1

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ClusterError("a cluster needs at least one worker")
        self._workers: List[SimulatedWorker] = [
            SimulatedWorker(worker_id) for worker_id in range(num_workers)
        ]
        self._master = SimulatedWorker(self.MASTER_ID)
        #: Cluster-wide observability registry.  Per-task ledgers carry
        #: their own registry and :meth:`absorb` merges it here, so metric
        #: values are deterministic across execution backends exactly like
        #: the worker cost counters.  Cumulative: ``reset_time`` does not
        #: clear it.
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Number of worker servers."""
        return len(self._workers)

    @property
    def master(self) -> SimulatedWorker:
        """The master node hosting the EntranceSpout."""
        return self._master

    def worker(self, worker_id: int) -> SimulatedWorker:
        """Return a worker by id (or the master for ``MASTER_ID``)."""
        if worker_id == self.MASTER_ID:
            return self._master
        try:
            return self._workers[worker_id]
        except IndexError:
            raise ClusterError(f"no worker with id {worker_id}") from None

    def assign_balanced(self, loads: Mapping[int, float]) -> Dict[int, int]:
        """Assign items to workers balancing the given loads.

        Parameters
        ----------
        loads:
            Mapping from item id (e.g. subgraph id) to a load estimate
            (e.g. number of vertices).  Items are assigned greedily, largest
            first, to the currently least-loaded worker — the many-to-one
            subgraph placement of Section 5.2.

        Returns
        -------
        dict mapping item id to worker id.
        """
        return greedy_balance(loads, len(self._workers))

    def send(self, sender_id: int, recipient_id: int, units: int) -> None:
        """Account for a message of ``units`` from one node to another.

        Messages between components on the same worker are free, mirroring
        intra-process Storm transfers.
        """
        if sender_id == recipient_id:
            return
        self.worker(sender_id).charge_send(units)
        self.worker(recipient_id).charge_receive(units)

    # ------------------------------------------------------------------
    # aggregate metrics
    # ------------------------------------------------------------------
    def makespan_seconds(self) -> float:
        """Parallel completion time: the maximum busy time over all nodes."""
        return max(
            [worker.stats.busy_seconds for worker in self._workers]
            + [self._master.stats.busy_seconds]
        )

    def total_compute_seconds(self) -> float:
        """Total computation across all nodes (single-core equivalent)."""
        return (
            sum(worker.stats.busy_seconds for worker in self._workers)
            + self._master.stats.busy_seconds
        )

    def total_communication_units(self) -> int:
        """Total transfer units moved between distinct nodes."""
        return sum(worker.stats.units_sent for worker in self._workers) + (
            self._master.stats.units_sent
        )

    def load_balance_report(self) -> Dict[str, float]:
        """Spread of busy time and memory across workers.

        Section 6.6 reports that the difference between the maximum and
        minimum CPU utilisation across the cluster stays under 6% and the
        memory difference under 2%; this report provides the analogous
        numbers for the simulation.
        """
        busy = [worker.stats.busy_seconds for worker in self._workers]
        memory = [worker.stats.memory_bytes for worker in self._workers]
        total_busy = sum(busy) or 1.0
        total_memory = sum(memory) or 1
        return {
            "busy_max_fraction": max(busy) / total_busy,
            "busy_min_fraction": min(busy) / total_busy,
            "busy_spread": (max(busy) - min(busy)) / total_busy,
            "memory_max_fraction": max(memory) / total_memory,
            "memory_min_fraction": min(memory) / total_memory,
            "memory_spread": (max(memory) - min(memory)) / total_memory,
        }

    def reset_time(self) -> None:
        """Reset busy time and message counters on every node."""
        for worker in self._workers:
            worker.reset_time()
        self._master.reset_time()

    def absorb(self, ledger: "SimulatedCluster") -> None:
        """Merge another cluster's accumulated counters into this one.

        Used by the concurrent execution backends: each query task charges
        its work to a private *ledger* cluster of the same shape, and the
        ledgers are absorbed into the shared cluster in submission order
        once the batch completes.  The deterministic counters (messages,
        transfer units, task counts) therefore end up identical to a serial
        run regardless of physical interleaving; busy time merges additively
        the same way it accumulates under serial execution.  Memory charges
        are not merged — index residency is charged once at placement time,
        never per task.
        """
        if ledger.num_workers != self.num_workers:
            raise ClusterError(
                "cannot absorb a ledger with a different worker count "
                f"({ledger.num_workers} != {self.num_workers})"
            )
        for mine, theirs in zip(
            list(self._workers) + [self._master],
            list(ledger._workers) + [ledger._master],
        ):
            mine.stats.busy_seconds += theirs.stats.busy_seconds
            mine.stats.messages_sent += theirs.stats.messages_sent
            mine.stats.messages_received += theirs.stats.messages_received
            mine.stats.units_sent += theirs.stats.units_sent
            mine.stats.units_received += theirs.stats.units_received
            mine.stats.tasks_executed += theirs.stats.tasks_executed
            for subgraph_id, seconds in theirs.stats.subgraph_seconds.items():
                mine.stats.subgraph_seconds[subgraph_id] = (
                    mine.stats.subgraph_seconds.get(subgraph_id, 0.0) + seconds
                )
            for subgraph_id, tasks in theirs.stats.subgraph_tasks.items():
                mine.stats.subgraph_tasks[subgraph_id] = (
                    mine.stats.subgraph_tasks.get(subgraph_id, 0) + tasks
                )
        self.metrics.absorb(ledger.metrics)


class ClusterAccountant:
    """Charge router between a shared cluster and per-task ledgers.

    The bolts and the spout charge all compute/communication through one
    object with the :class:`SimulatedCluster` interface.  Under serial
    execution that object can simply be the shared cluster; under
    concurrent execution (worker-process replicas) each task
    must record into its own ledger to keep the accounting exact — float
    ``+=`` on shared counters is not atomic across threads.  The accountant
    forwards every access to the ledger activated on the *current thread*,
    falling back to the shared base cluster when none is active, so the
    serial path stays byte-for-byte the seed behaviour.
    """

    def __init__(self, base: SimulatedCluster) -> None:
        self._base = base
        self._local = threading.local()

    def activate(self, ledger: Optional[SimulatedCluster]) -> None:
        """Route this thread's subsequent charges into ``ledger``."""
        self._local.ledger = ledger

    def deactivate(self) -> None:
        """Restore direct charging to the base cluster for this thread."""
        self._local.ledger = None

    def _target(self) -> SimulatedCluster:
        return getattr(self._local, "ledger", None) or self._base

    # SimulatedCluster interface consumed by spout/bolts ----------------
    @property
    def master(self) -> SimulatedWorker:
        """The master node of the active target."""
        return self._target().master

    def worker(self, worker_id: int) -> SimulatedWorker:
        """A worker of the active target (or its master for ``MASTER_ID``)."""
        return self._target().worker(worker_id)

    def send(self, sender_id: int, recipient_id: int, units: int) -> None:
        """Account a message on the active target."""
        self._target().send(sender_id, recipient_id, units)

    @property
    def metrics(self) -> MetricsRegistry:
        """The observability registry of the active target.

        Under a per-task ledger this is the ledger's private registry, so
        worker-side metrics ride the same absorb path as the cost
        counters and merge deterministically.
        """
        return self._target().metrics
