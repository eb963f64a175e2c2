"""Tests for the simulated Storm topology (distributed KSP-DG end to end)."""

from __future__ import annotations

import pytest

from repro.algorithms import yen_k_shortest_paths
from repro.core import DTLP, DTLPConfig, KSPDG
from repro.distributed import KSPDGEngine, StormTopology, distributed_build_report
from repro.distributed.placement import greedy_balance
from repro.dynamics import TrafficModel
from repro.graph import road_network
from repro.graph.errors import ClusterError
from repro.workloads import BatchRunner, QueryGenerator


@pytest.fixture(scope="module")
def deployed():
    graph = road_network(8, 8, seed=21)
    dtlp = DTLP(graph, DTLPConfig(z=20, xi=3)).build()
    topology = StormTopology(dtlp, num_workers=4)
    return graph, dtlp, topology


class TestTopologyConstruction:
    def test_requires_built_index(self):
        graph = road_network(4, 4, seed=21)
        with pytest.raises(ClusterError):
            StormTopology(DTLP(graph, DTLPConfig(z=8, xi=2)), num_workers=2)

    def test_every_subgraph_assigned_to_exactly_one_bolt(self, deployed):
        _, dtlp, topology = deployed
        seen = set()
        for bolt in topology.subgraph_bolts:
            for subgraph_id in bolt.subgraph_ids:
                assert subgraph_id not in seen
                seen.add(subgraph_id)
        assert seen == set(dtlp.subgraph_indexes())

    def test_one_query_bolt_per_worker_by_default(self, deployed):
        _, _, topology = deployed
        assert len(topology.query_bolts) == topology.cluster.num_workers

    def test_memory_attributed_to_workers(self, deployed):
        _, _, topology = deployed
        assert all(
            topology.cluster.worker(i).stats.memory_bytes > 0
            for i in range(topology.cluster.num_workers)
        )


class TestDistributedQueries:
    def test_results_match_yen(self, deployed):
        graph, _, topology = deployed
        queries = QueryGenerator(graph, seed=5, min_hops=3).generate(6, k=3)
        report = topology.run_queries(queries)
        assert len(report.results) == len(queries)
        for query, result in zip(queries, report.results):
            expected = yen_k_shortest_paths(graph, query.source, query.target, query.k)
            assert [round(p.distance, 6) for p in result.paths] == [
                round(p.distance, 6) for p in expected
            ]

    def test_results_match_single_process_ksp_dg(self, deployed):
        graph, dtlp, topology = deployed
        engine = KSPDG(dtlp)
        queries = QueryGenerator(graph, seed=9, min_hops=3).generate(4, k=2)
        report = topology.run_queries(queries)
        for query, result in zip(queries, report.results):
            local = engine.query(query.source, query.target, query.k)
            assert [round(p.distance, 6) for p in result.paths] == [
                round(d, 6) for d in local.distances
            ]

    def test_report_metrics_populated(self, deployed):
        graph, _, topology = deployed
        queries = QueryGenerator(graph, seed=6, min_hops=3).generate(4, k=2)
        report = topology.run_queries(queries)
        assert report.makespan_seconds > 0
        assert report.total_compute_seconds >= report.makespan_seconds
        assert report.communication_units > 0
        assert report.mean_iterations >= 1
        assert 0 <= report.load_balance["busy_spread"] <= 1

    def test_weight_updates_keep_results_correct(self):
        graph = road_network(6, 6, seed=22)
        dtlp = DTLP(graph, DTLPConfig(z=14, xi=2)).build()
        topology = StormTopology(dtlp, num_workers=3)
        model = TrafficModel(graph, alpha=0.4, tau=0.5, seed=7)
        for _ in range(2):
            model.advance()
        queries = QueryGenerator(graph, seed=8, min_hops=3).generate(3, k=3)
        report = topology.run_queries(queries)
        for query, result in zip(queries, report.results):
            expected = yen_k_shortest_paths(graph, query.source, query.target, query.k)
            assert [round(p.distance, 6) for p in result.paths] == [
                round(p.distance, 6) for p in expected
            ]

    def test_more_workers_reduce_makespan_relative_to_total(self, deployed):
        graph, dtlp, _ = deployed
        queries = QueryGenerator(graph, seed=10, min_hops=3).generate(6, k=2)
        narrow = StormTopology(dtlp, num_workers=1).run_queries(queries)
        wide = StormTopology(dtlp, num_workers=6).run_queries(queries)
        narrow_ratio = narrow.makespan_seconds / max(narrow.total_compute_seconds, 1e-9)
        wide_ratio = wide.makespan_seconds / max(wide.total_compute_seconds, 1e-9)
        assert wide_ratio <= narrow_ratio + 0.05


class TestKSPDGEngineAdapter:
    def test_engine_answers_single_query(self, deployed):
        graph, _, topology = deployed
        engine = KSPDGEngine(topology)
        queries = QueryGenerator(graph, seed=11, min_hops=3).generate(3, k=2)
        report = BatchRunner(engine, num_servers=2).run(queries)
        assert len(report.outcomes) == 3
        for outcome in report.outcomes:
            assert outcome.iterations >= 1
            expected = yen_k_shortest_paths(
                graph, outcome.query.source, outcome.query.target, outcome.query.k
            )
            assert [round(p.distance, 6) for p in outcome.paths] == [
                round(p.distance, 6) for p in expected
            ]

class TestDistributedBuild:
    def test_parallel_build_not_slower_than_serial_fraction(self):
        graph = road_network(6, 6, seed=23)
        report = distributed_build_report(graph, DTLPConfig(z=12, xi=2), num_workers=4)
        assert report.parallel_build_seconds <= report.total_build_seconds + 1e-9
        assert report.dtlp.built

    def test_more_workers_never_increase_parallel_time(self):
        graph = road_network(6, 6, seed=23)
        eight = distributed_build_report(graph, DTLPConfig(z=12, xi=2), num_workers=8)
        # Two separately timed builds differ by scheduling noise, so the
        # 2-worker makespan is modelled on the *same* per-subgraph build
        # times the 8-worker report measured.
        durations = {
            subgraph_id: index.build_seconds
            for subgraph_id, index in eight.dtlp.subgraph_indexes().items()
        }
        two_loads = [0.0, 0.0]
        for subgraph_id, worker_id in greedy_balance(durations, 2).items():
            two_loads[worker_id] += durations[subgraph_id]
        assert eight.parallel_build_seconds <= max(two_loads) + 1e-9
        assert max(two_loads) <= eight.total_build_seconds + 1e-9
