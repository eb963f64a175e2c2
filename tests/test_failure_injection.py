"""Failure-injection tests for the simulated cluster (worker loss and recovery)."""

from __future__ import annotations

import pytest

from repro.algorithms import yen_k_shortest_paths
from repro.core import DTLP, DTLPConfig
from repro.distributed import LoadReport, Placement, StormTopology
from repro.exec import EXECUTORS
from repro.graph import ClusterError, road_network
from repro.workloads import QueryGenerator

CONCURRENT = [name for name in EXECUTORS if name != "serial"]


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


class TestLoadReport:
    """The per-worker rollup that join and retirement plan over."""

    def test_from_loads_rollup_and_imbalance(self):
        placement = Placement(2, {0: 0, 1: 0, 2: 1})
        report = LoadReport.from_loads({0: 6.0, 1: 2.0, 2: 4.0}, placement)
        assert report.worker_load == {0: 8.0, 1: 4.0}
        assert report.imbalance() == pytest.approx(8.0 / 6.0)
        assert sum(report.subgraph_load.values()) == 12.0

    def test_unobserved_subgraphs_count_as_zero(self):
        placement = Placement(2, {0: 0, 1: 1})
        report = LoadReport.from_loads({0: 5.0}, placement)
        assert report.subgraph_load == {0: 5.0, 1: 0.0}
        assert report.worker_load == {0: 5.0, 1: 0.0}

    def test_empty_load_is_balanced(self):
        placement = Placement(3, {0: 0})
        assert LoadReport.from_loads({}, placement).imbalance() == 1.0

    def test_worker_subset_excludes_dead_workers(self):
        placement = Placement(3, {0: 0, 1: 1})
        report = LoadReport.from_loads({0: 4.0, 1: 4.0}, placement, workers=[0, 1])
        assert report.workers == (0, 1)
        assert report.imbalance() == 1.0


def _result_signature(report):
    return [
        ([(path.vertices, path.distance) for path in result.paths], result.iterations)
        for result in report.results
    ]


def _deterministic_counters(cluster):
    nodes = list(cluster.workers) + [cluster.master]
    return [
        (
            node.stats.worker_id,
            node.stats.messages_sent,
            node.stats.messages_received,
            node.stats.units_sent,
            node.stats.units_received,
            node.stats.tasks_executed,
            node.stats.memory_bytes,
            tuple(sorted(node.stats.subgraph_tasks.items())),
        )
        for node in nodes
    ]


class TestFailoverThroughMigrationPath:
    """Process replicas re-host a failed worker's subgraphs in place."""

    def test_process_backend_failover_without_respawn(self):
        graph = road_network(8, 8, seed=5)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        queries = QueryGenerator(graph, seed=9, min_hops=3).generate(6, k=2)
        with StormTopology(
            dtlp, num_workers=4, executor="process", executor_workers=2
        ) as topology:
            topology.run_queries(queries)  # spawn the resident replicas
            assert topology._replica_set.active
            migrated = topology.fail_worker(1)
            assert migrated > 0
            # The group was patched in place, not discarded.
            assert topology._replica_set.active
            report = topology.run_queries(queries)
            for query, result in zip(queries, report.results):
                expected = yen_k_shortest_paths(graph, query.source, query.target, query.k)
                assert [round(p.distance, 6) for p in result.paths] == [
                    round(p.distance, 6) for p in expected
                ]

    @pytest.mark.parametrize("executor", CONCURRENT)
    def test_post_failure_results_identical_across_backends(self, executor):
        def run(backend):
            graph = road_network(8, 8, seed=5)
            dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
            queries = QueryGenerator(graph, seed=9, min_hops=3).generate(6, k=2)
            with StormTopology(
                dtlp, num_workers=4, executor=backend, executor_workers=2
            ) as topology:
                first = topology.run_queries(queries)
                topology.fail_worker(2)
                second = topology.run_queries(queries)
                return (
                    _result_signature(first),
                    _result_signature(second),
                    _deterministic_counters(topology.cluster),
                    tuple(sorted(topology.placement.assignment.items())),
                )

        assert run(executor) == run("serial")


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
            failed_over = engine.topology.fail_worker(1)
            join = engine.topology.add_worker()
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
            # The surgery's one counter: every subgraph the kill and the
            # join re-hosted, counted once.
            migrated = failed_over + join.subgraphs_migrated
            assert failed_over > 0 and join.subgraphs_migrated > 0
            assert f"elasticity_subgraphs_recovered_total {migrated}" in rendered
            assert "rebalance_" not in rendered
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
