"""Failure-injection tests for the simulated cluster (worker loss and recovery)."""

from __future__ import annotations

import pytest

from repro.algorithms import yen_k_shortest_paths
from repro.core import DTLP, DTLPConfig
from repro.distributed import StormTopology
from repro.graph import ClusterError, road_network
from repro.workloads import QueryGenerator


@pytest.fixture()
def topology_setup():
    graph = road_network(7, 7, seed=31)
    dtlp = DTLP(graph, DTLPConfig(z=14, xi=2)).build()
    topology = StormTopology(dtlp, num_workers=4)
    return graph, dtlp, topology


class TestWorkerFailure:
    def test_failed_worker_subgraphs_are_migrated(self, topology_setup):
        _, dtlp, topology = topology_setup
        owned_before = {
            sid for bolt in topology.subgraph_bolts for sid in bolt.subgraph_ids
        }
        migrated = topology.fail_worker(0)
        assert migrated > 0
        owned_after = {
            sid for bolt in topology.subgraph_bolts for sid in bolt.subgraph_ids
        }
        assert owned_after == owned_before == set(dtlp.subgraph_indexes())
        assert all(bolt.worker_id != 0 for bolt in topology.subgraph_bolts)

    def test_queries_stay_correct_after_failure(self, topology_setup):
        graph, _, topology = topology_setup
        queries = QueryGenerator(graph, seed=3, min_hops=3).generate(4, k=3)
        topology.fail_worker(1)
        report = topology.run_queries(queries)
        for query, result in zip(queries, report.results):
            expected = yen_k_shortest_paths(graph, query.source, query.target, query.k)
            assert [round(p.distance, 6) for p in result.paths] == [
                round(p.distance, 6) for p in expected
            ]

    def test_queries_stay_correct_after_multiple_failures(self, topology_setup):
        graph, _, topology = topology_setup
        topology.fail_worker(0)
        topology.fail_worker(2)
        queries = QueryGenerator(graph, seed=9, min_hops=3).generate(3, k=2)
        report = topology.run_queries(queries)
        for query, result in zip(queries, report.results):
            expected = yen_k_shortest_paths(graph, query.source, query.target, query.k)
            assert [round(p.distance, 6) for p in result.paths] == [
                round(p.distance, 6) for p in expected
            ]

    def test_unknown_worker_rejected(self, topology_setup):
        _, _, topology = topology_setup
        with pytest.raises(ClusterError):
            topology.fail_worker(99)

    def test_cannot_fail_last_worker(self):
        graph = road_network(5, 5, seed=31)
        dtlp = DTLP(graph, DTLPConfig(z=10, xi=2)).build()
        topology = StormTopology(dtlp, num_workers=1)
        with pytest.raises(ClusterError):
            topology.fail_worker(0)

    def test_weight_updates_still_routed_after_failure(self, topology_setup):
        graph, _, topology = topology_setup
        from repro.dynamics import TrafficModel

        topology.fail_worker(3)
        model = TrafficModel(graph, alpha=0.3, tau=0.4, seed=5)
        updates = model.advance()
        topology.submit_weight_updates(updates)
        queries = QueryGenerator(graph, seed=13, min_hops=3).generate(2, k=2)
        report = topology.run_queries(queries)
        for query, result in zip(queries, report.results):
            expected = yen_k_shortest_paths(graph, query.source, query.target, query.k)
            assert [round(p.distance, 6) for p in result.paths] == [
                round(p.distance, 6) for p in expected
            ]

class TestWorkerJoin:
    def test_join_migrates_load_onto_fresh_worker(self, topology_setup):
        _, dtlp, topology = topology_setup
        report = topology.add_worker()
        assert report.worker_id == 4
        assert report.subgraphs_migrated == len(report.moves) >= 1
        assert all(target == 4 for _, _, target in report.moves)
        assert report.transfer_units > 0 and not report.from_store
        assert report.imbalance_after <= report.imbalance_before
        joiner = [b for b in topology.subgraph_bolts if b.worker_id == 4]
        assert len(joiner) == 1 and joiner[0].subgraph_ids
        # Every subgraph still owned exactly once.
        owned = [s for b in topology.subgraph_bolts for s in b.subgraph_ids]
        assert sorted(owned) == sorted(set(dtlp.subgraph_indexes()))

    def test_queries_stay_correct_after_join(self, topology_setup):
        graph, _, topology = topology_setup
        topology.add_worker()
        queries = QueryGenerator(graph, seed=3, min_hops=3).generate(4, k=3)
        report = topology.run_queries(queries)
        for query, result in zip(queries, report.results):
            expected = yen_k_shortest_paths(graph, query.source, query.target, query.k)
            assert [round(p.distance, 6) for p in result.paths] == [
                round(p.distance, 6) for p in expected
            ]

    def test_join_after_failure_restores_pool(self, topology_setup):
        graph, _, topology = topology_setup
        topology.fail_worker(2)
        report = topology.add_worker()
        assert report.subgraphs_migrated >= 1
        stats = topology.elasticity
        assert stats.workers_lost == 1 and stats.workers_joined == 1
        queries = QueryGenerator(graph, seed=5, min_hops=3).generate(3, k=2)
        batch = topology.run_queries(queries)
        for query, result in zip(queries, batch.results):
            expected = yen_k_shortest_paths(graph, query.source, query.target, query.k)
            assert [round(p.distance, 6) for p in result.paths] == [
                round(p.distance, 6) for p in expected
            ]

    def test_store_backed_join_cold_starts_from_catchup_delta(self, tmp_path):
        from repro.dynamics import TrafficModel
        from repro.store import PartitionStore

        graph = road_network(7, 7, seed=31)
        dtlp = DTLP(graph, DTLPConfig(z=14, xi=2)).build()
        store_dir = str(tmp_path / "store")
        PartitionStore.save(dtlp, store_dir)
        dtlp.attach()
        updates = TrafficModel(graph, alpha=0.4, tau=0.4, seed=5).advance()
        topology = StormTopology(dtlp, num_workers=4, store_path=store_dir)
        topology.submit_weight_updates(updates)
        report = topology.add_worker()
        assert report.from_store
        assert report.catchup_updates > 0
        # O(load) cold start: only the weight delta crosses the wire, not
        # the migrated subgraphs' vertex state.
        assert report.transfer_units == report.catchup_updates
        queries = QueryGenerator(graph, seed=7, min_hops=3).generate(3, k=2)
        batch = topology.run_queries(queries)
        for query, result in zip(queries, batch.results):
            expected = yen_k_shortest_paths(graph, query.source, query.target, query.k)
            assert [round(p.distance, 6) for p in result.paths] == [
                round(p.distance, 6) for p in expected
            ]

    def test_retire_worker_drains_coldest(self, topology_setup):
        graph, dtlp, topology = topology_setup
        migrated = topology.retire_worker(1)
        assert migrated >= 1
        assert all(b.worker_id != 1 for b in topology.subgraph_bolts)
        assert topology.elasticity.workers_retired == 1
        owned = [s for b in topology.subgraph_bolts for s in b.subgraph_ids]
        assert sorted(owned) == sorted(set(dtlp.subgraph_indexes()))
        queries = QueryGenerator(graph, seed=11, min_hops=3).generate(2, k=2)
        batch = topology.run_queries(queries)
        for query, result in zip(queries, batch.results):
            expected = yen_k_shortest_paths(graph, query.source, query.target, query.k)
            assert [round(p.distance, 6) for p in result.paths] == [
                round(p.distance, 6) for p in expected
            ]

    def test_cannot_retire_last_worker(self):
        graph = road_network(5, 5, seed=31)
        dtlp = DTLP(graph, DTLPConfig(z=10, xi=2)).build()
        topology = StormTopology(dtlp, num_workers=1)
        with pytest.raises(ClusterError):
            topology.retire_worker(0)


class TestAutoscaler:
    def test_scale_up_fires_above_watermark(self):
        from repro.distributed import AutoscaleConfig, Autoscaler

        scaler = Autoscaler(AutoscaleConfig(high=10.0, min_batches=2, cooldown=0))
        assert scaler.observe(100.0, num_workers=4) is None  # min_batches gate
        assert scaler.observe(100.0, num_workers=4) == "up"

    def test_scale_down_fires_below_low_watermark(self):
        from repro.distributed import AutoscaleConfig, Autoscaler

        scaler = Autoscaler(
            AutoscaleConfig(high=100.0, low=10.0, min_batches=1, cooldown=0)
        )
        assert scaler.observe(4.0, num_workers=4) == "down"
        assert scaler.observe(4.0, num_workers=1) is None  # min_workers floor

    def test_cooldown_spaces_scaling_decisions(self):
        from repro.distributed import AutoscaleConfig, Autoscaler

        scaler = Autoscaler(AutoscaleConfig(high=10.0, min_batches=1, cooldown=2))
        assert scaler.observe(100.0, num_workers=4) == "up"
        scaler.record_scaled("up")
        assert scaler.observe(100.0, num_workers=5) is None
        assert scaler.observe(100.0, num_workers=5) is None
        assert scaler.observe(100.0, num_workers=5) == "up"

    def test_topology_autoscales_under_load(self):
        graph = road_network(7, 7, seed=31)
        dtlp = DTLP(graph, DTLPConfig(z=14, xi=2)).build()
        topology = StormTopology(
            dtlp, num_workers=2, autoscale="4:0.001"
        )
        queries = QueryGenerator(graph, seed=3, min_hops=3).generate(6, k=2)
        for _ in range(3):
            topology.run_queries(queries)
        assert topology.autoscaler.scale_ups >= 1
        assert topology.elasticity.workers_joined >= 1
        assert topology.cluster.num_workers > 2
        report = topology.run_queries(queries)
        for query, result in zip(queries, report.results):
            expected = yen_k_shortest_paths(graph, query.source, query.target, query.k)
            assert [round(p.distance, 6) for p in result.paths] == [
                round(p.distance, 6) for p in expected
            ]

    def test_autoscale_deterministic_across_backends(self):
        def run(executor):
            graph = road_network(7, 7, seed=31)
            dtlp = DTLP(graph, DTLPConfig(z=14, xi=2)).build()
            with StormTopology(
                dtlp, num_workers=2, executor=executor, autoscale="4:0.001"
            ) as topology:
                queries = QueryGenerator(graph, seed=3, min_hops=3).generate(6, k=2)
                signatures = []
                for _ in range(3):
                    report = topology.run_queries(queries)
                    signatures.append(
                        [
                            [(p.vertices, p.distance) for p in r.paths]
                            for r in report.results
                        ]
                    )
                return signatures, topology.elasticity.workers_joined, \
                    topology.cluster.num_workers

        assert run("process") == run("serial")


class TestReplicaBroadcastAtomicity:
    """A broadcast that fails mid-flight must never leave a half-synced
    replica group behind (regression: a dead worker pipe during a weight
    delta sync desynced survivors from the master)."""

    def test_failed_broadcast_discards_group_and_raises_task_error(self):
        from repro.exec.replicas import ReplicaSet
        from repro.graph.errors import ExecutorError, ExecutorTaskError

        class FakeGraph:
            version = 0

        class FakeGroup:
            def __init__(self):
                self.closed = False

            def broadcast(self, method, *args):
                raise ExecutorError("worker process 1 died (pid 123, exitcode 1)")

            def close(self):
                self.closed = True

        replica_set = ReplicaSet.__new__(ReplicaSet)
        replica_set._graph = FakeGraph()
        replica_set._group = FakeGroup()
        replica_set._synced_version = 0
        fake = replica_set._group
        with pytest.raises(ExecutorTaskError, match="discarded"):
            replica_set.broadcast("sync", [])
        assert fake.closed
        assert not replica_set.active

    def test_process_topology_fails_atomically_and_recovers_by_respawn(self):
        """Task-level broadcast failure: the group is discarded wholesale
        and the next batch respawns every replica from fresh live state."""
        from repro.graph.errors import ExecutorTaskError

        graph = road_network(6, 6, seed=13)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        with StormTopology(dtlp, num_workers=3, executor="process") as topology:
            queries = QueryGenerator(graph, seed=3, min_hops=3).generate(3, k=2)
            topology.run_queries(queries)  # spawns the replica group
            replica_set = topology._replica_set
            assert replica_set.active
            with pytest.raises(ExecutorTaskError):
                replica_set.broadcast("no_such_method")
            assert not replica_set.active  # discarded, not half-updated
            report = topology.run_queries(queries)  # respawn from live state
            for query, result in zip(queries, report.results):
                expected = yen_k_shortest_paths(
                    graph, query.source, query.target, query.k
                )
                assert [round(p.distance, 6) for p in result.paths] == [
                    round(p.distance, 6) for p in expected
                ]

    def test_dead_worker_pipe_mid_sync_raises_task_error(self):
        """A worker process dying between batches surfaces as one
        ExecutorTaskError on the next sync — never a partial delta."""
        from repro.dynamics import TrafficModel
        from repro.graph.errors import ExecutorTaskError

        graph = road_network(6, 6, seed=13)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        dtlp.attach()
        with StormTopology(dtlp, num_workers=3, executor="process") as topology:
            queries = QueryGenerator(graph, seed=3, min_hops=3).generate(3, k=2)
            topology.run_queries(queries)
            # Kill one OS worker under the replica group.
            victim = topology.executor._processes[0]
            victim.terminate()
            victim.join()
            updates = TrafficModel(graph, alpha=0.3, tau=0.4, seed=5).advance()
            topology.submit_weight_updates(updates)
            with pytest.raises(ExecutorTaskError):
                topology.run_queries(queries)
            assert not topology._replica_set.active


class TestServiceRecoveryReporting:
    def test_report_and_registry_surface_fault_counters(self):
        from repro.distributed import KSPDGEngine
        from repro.service import KSPService

        graph = road_network(7, 7, seed=31)
        dtlp = DTLP(graph, DTLPConfig(z=14, xi=2)).build()
        engine = KSPDGEngine.local(dtlp, num_workers=4)
        service = KSPService(graph, engine, owns_engine=True, dtlp=dtlp)
        try:
            queries = QueryGenerator(graph, seed=3, min_hops=3).generate(4, k=2)
            for query in queries:
                service.submit(query)
            service.drain()
            engine.topology.fail_worker(1)
            engine.topology.add_worker()
            report = service.report()
            assert report.workers_lost == 1
            assert report.workers_joined == 1
            assert report.workers_retired == 0
            assert report.recovery_seconds > 0.0
            row = report.as_dict()
            assert row["workers lost"] == 1
            assert row["workers joined"] == 1
            assert row["retried queries"] == 0
            assert row["dropped queries"] == 0
            assert row["recovery time (s)"] > 0.0
            registry = service.metrics_registry()
            rendered = registry.render_prometheus()
            assert "elasticity_workers_lost_total 1" in rendered
            assert "elasticity_workers_joined_total 1" in rendered
            # Wall-clock recovery time must stay out of the registry.
            assert "recovery_seconds" not in rendered
        finally:
            service.close()

    def test_non_topology_engine_reports_zero_elasticity(self):
        from repro.service import KSPService
        from repro.workloads import YenEngine

        graph = road_network(5, 5, seed=3)
        service = KSPService(graph, YenEngine(graph))
        try:
            report = service.report()
            assert report.workers_joined == 0
            assert report.workers_lost == 0
            assert report.recovery_seconds == 0.0
        finally:
            service.close()
