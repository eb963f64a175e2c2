"""Tests for repro.distributed.cluster (simulated workers and cost accounting)."""

from __future__ import annotations

import pytest

from repro.distributed.cluster import SimulatedCluster
from repro.graph.errors import ClusterError


class TestSimulatedWorker:
    def test_charge_compute_accumulates(self):
        cluster = SimulatedCluster(2)
        worker = cluster.worker(0)
        worker.charge_compute(0.5)
        worker.charge_compute(0.25)
        assert worker.stats.busy_seconds == pytest.approx(0.75)
        assert worker.stats.tasks_executed == 2

    def test_negative_compute_rejected(self):
        cluster = SimulatedCluster(1)
        with pytest.raises(ClusterError):
            cluster.worker(0).charge_compute(-1.0)

    def test_reset_time_keeps_memory(self):
        cluster = SimulatedCluster(1)
        worker = cluster.worker(0)
        worker.charge_memory(1000)
        worker.charge_compute(1.0)
        worker.reset_time()
        assert worker.stats.busy_seconds == 0.0
        assert worker.stats.memory_bytes == 1000


class TestSimulatedCluster:
    def test_requires_at_least_one_worker(self):
        with pytest.raises(ClusterError):
            SimulatedCluster(0)

    def test_worker_lookup(self):
        cluster = SimulatedCluster(3)
        assert cluster.worker(2).worker_id == 2
        assert cluster.worker(SimulatedCluster.MASTER_ID).worker_id == SimulatedCluster.MASTER_ID
        with pytest.raises(ClusterError):
            cluster.worker(7)

    def test_send_charges_both_ends(self):
        cluster = SimulatedCluster(2)
        cluster.send(0, 1, 10)
        assert cluster.worker(0).stats.units_sent == 10
        assert cluster.worker(1).stats.units_received == 10
        assert cluster.total_communication_units() == 10

    def test_send_to_self_is_free(self):
        cluster = SimulatedCluster(2)
        cluster.send(1, 1, 10)
        assert cluster.total_communication_units() == 0

    def test_makespan_is_max_busy_time(self):
        cluster = SimulatedCluster(3)
        cluster.worker(0).charge_compute(1.0)
        cluster.worker(1).charge_compute(3.0)
        cluster.worker(2).charge_compute(2.0)
        assert cluster.makespan_seconds() == pytest.approx(3.0)
        assert cluster.total_compute_seconds() == pytest.approx(6.0)

    def test_assign_balanced_spreads_load(self):
        cluster = SimulatedCluster(4)
        loads = {item: 1.0 for item in range(16)}
        assignment = cluster.assign_balanced(loads)
        per_worker = [0] * 4
        for worker_id in assignment.values():
            per_worker[worker_id] += 1
        assert max(per_worker) - min(per_worker) <= 1

    def test_assign_balanced_heavy_items_split(self):
        cluster = SimulatedCluster(2)
        loads = {0: 10.0, 1: 10.0, 2: 1.0, 3: 1.0}
        assignment = cluster.assign_balanced(loads)
        assert assignment[0] != assignment[1]

    def test_load_balance_report(self):
        cluster = SimulatedCluster(2)
        cluster.worker(0).charge_compute(1.0)
        cluster.worker(1).charge_compute(1.0)
        cluster.worker(0).charge_memory(500)
        cluster.worker(1).charge_memory(500)
        report = cluster.load_balance_report()
        assert report["busy_spread"] == pytest.approx(0.0)
        assert report["memory_spread"] == pytest.approx(0.0)

    def test_reset_time(self):
        cluster = SimulatedCluster(2)
        cluster.worker(0).charge_compute(1.0)
        cluster.worker(SimulatedCluster.MASTER_ID).charge_compute(1.0)
        cluster.reset_time()
        assert cluster.makespan_seconds() == 0.0
