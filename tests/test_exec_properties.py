"""Cross-backend identity properties of the execution layer.

The serial executor is the reference; these tests assert that the process
backend produces **bit-identical** paths, distances, iteration
counts and deterministic cost accounting (message counts, transfer units,
task counts, memory attribution) on randomized graphs, across interleaved
weight-update rounds, under both compute kernels.  Busy *time* is excluded
— wall-clock measurements differ run to run even between two serial
executions.
"""

from __future__ import annotations

import random

import pytest

from repro.core import DTLP, DTLPConfig
from repro.distributed import StormTopology, distributed_build_report
from repro.dynamics import TrafficModel
from repro.exec import EXECUTORS
from repro.graph import random_graph, road_network
from repro.service import KSPService, generate_trace, replay
from repro.workloads import FindKSPEngine, QueryGenerator, YenEngine

CONCURRENT = [name for name in EXECUTORS if name != "serial"]
KERNELS = ("snapshot", "dict")


def _deterministic_worker_counters(cluster):
    """Every deterministic counter of every node (busy time excluded)."""
    nodes = [cluster.worker(i) for i in (*range(cluster.num_workers), cluster.MASTER_ID)]
    return [
        (
            node.stats.worker_id,
            node.stats.messages_sent,
            node.stats.messages_received,
            node.stats.units_sent,
            node.stats.units_received,
            node.stats.tasks_executed,
            node.stats.memory_bytes,
        )
        for node in nodes
    ]


def _result_signature(report):
    """Paths, exact distances and iteration counts of a topology report."""
    return [
        (
            [(path.vertices, path.distance) for path in result.paths],
            result.iterations,
        )
        for result in report.results
    ]


def _run_topology_rounds(executor: str, kernel: str, seed: int):
    """Three query batches interleaved with two maintenance rounds."""
    graph = road_network(6, 6, seed=seed)
    dtlp = DTLP(graph, DTLPConfig(z=14, xi=2)).build()
    queries = QueryGenerator(graph, seed=seed + 1, min_hops=3).generate(6, k=3)
    model = TrafficModel(graph, alpha=0.35, tau=0.5, seed=seed + 2)
    signatures = []
    with StormTopology(
        dtlp, num_workers=3, kernel=kernel, executor=executor, executor_workers=2
    ) as topology:
        for round_number in range(3):
            report = topology.run_queries(queries)
            signatures.append(
                (
                    _result_signature(report),
                    report.communication_units,
                    _deterministic_worker_counters(topology.cluster),
                )
            )
            if round_number < 2:
                model.advance()
    return signatures


class TestTopologyBackendIdentity:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("executor", CONCURRENT)
    def test_paths_distances_and_accounting_match_serial(self, executor, kernel):
        for seed in (31, 77):
            reference = _run_topology_rounds("serial", kernel, seed)
            concurrent = _run_topology_rounds(executor, kernel, seed)
            assert concurrent == reference

    def test_kernels_agree_on_every_backend(self):
        # Distances must match across kernels too (paths are identical by
        # the PR-2 kernel identity); here we pin the full signature per
        # backend so a kernel regression cannot hide behind a backend one.
        for executor in EXECUTORS:
            snapshot_sig = _run_topology_rounds(executor, "snapshot", 55)
            dict_sig = _run_topology_rounds(executor, "dict", 55)
            assert snapshot_sig == dict_sig


class TestRandomizedGraphs:
    @pytest.mark.parametrize("executor", CONCURRENT)
    def test_random_graphs_with_random_update_rounds(self, executor):
        rng = random.Random(2026)
        for trial in range(3):
            seed = rng.randrange(10_000)
            graph = random_graph(
                num_vertices=40, num_edges=90, seed=seed
            )
            dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
            generator = QueryGenerator(graph, seed=seed + 1, min_hops=2)
            queries = generator.generate(5, k=rng.choice((2, 3)))
            model = TrafficModel(graph, alpha=0.4, tau=0.6, seed=seed + 2)

            def run(backend):
                signatures = []
                with StormTopology(
                    dtlp, num_workers=2, executor=backend, executor_workers=2
                ) as topology:
                    for _ in range(2):
                        report = topology.run_queries(queries)
                        signatures.append(
                            (
                                _result_signature(report),
                                report.communication_units,
                                _deterministic_worker_counters(topology.cluster),
                            )
                        )
                        updates = model.generate_updates()
                        graph.apply_updates(updates)
                return signatures

            reference = run("serial")
            # The serial run mutated the shared graph; rebuild an identical
            # universe from the same seeds for the concurrent run.
            graph2 = random_graph(
                num_vertices=40, num_edges=90, seed=seed
            )
            dtlp2 = DTLP(graph2, DTLPConfig(z=12, xi=2)).build()
            queries2 = QueryGenerator(graph2, seed=seed + 1, min_hops=2).generate(
                5, k=queries[0].k
            )
            model2 = TrafficModel(graph2, alpha=0.4, tau=0.6, seed=seed + 2)
            signatures = []
            with StormTopology(
                dtlp2, num_workers=2, executor=executor, executor_workers=2
            ) as topology:
                for _ in range(2):
                    report = topology.run_queries(queries2)
                    signatures.append(
                        (
                            _result_signature(report),
                            report.communication_units,
                            _deterministic_worker_counters(topology.cluster),
                        )
                    )
                    updates = model2.generate_updates()
                    graph2.apply_updates(updates)
            assert signatures == reference


class TestCentralizedEngineIdentity:
    @pytest.mark.parametrize("engine_cls", [YenEngine, FindKSPEngine])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("executor", CONCURRENT)
    def test_batches_match_serial_across_updates(self, engine_cls, kernel, executor):
        def run(backend):
            graph = road_network(6, 6, seed=13)
            engine = engine_cls(
                graph, kernel=kernel, executor=backend, executor_workers=2
            )
            queries = QueryGenerator(graph, seed=14, min_hops=3).generate(6, k=3)
            model = TrafficModel(graph, alpha=0.3, tau=0.5, seed=15)
            signatures = []
            try:
                for _ in range(3):
                    outcomes = engine.answer_many(queries)
                    signatures.append(
                        [
                            [(path.vertices, path.distance) for path in outcome.paths]
                            for outcome in outcomes
                        ]
                    )
                    model.advance()
            finally:
                engine.close()
            return signatures

        assert run(executor) == run("serial")


class TestParallelBuildIdentity:
    @pytest.mark.parametrize("executor", CONCURRENT)
    def test_parallel_build_produces_equivalent_index(self, executor):
        graph = road_network(6, 6, seed=23)
        config = DTLPConfig(z=14, xi=2)
        serial = distributed_build_report(graph, config, num_workers=2)
        parallel = distributed_build_report(
            graph, config, num_workers=2, executor=executor
        )
        assert parallel.executor == executor
        assert parallel.dtlp.built
        # Same skeleton graph (the second-level index) edge for edge.
        serial_skeleton = {
            (u, v): w for u, v, w in serial.dtlp.skeleton_graph.edges()
        }
        parallel_skeleton = {
            (u, v): w for u, v, w in parallel.dtlp.skeleton_graph.edges()
        }
        assert parallel_skeleton == serial_skeleton
        # Same per-subgraph bounding-path population.
        for subgraph_id, index in serial.dtlp.subgraph_indexes().items():
            other = parallel.dtlp.subgraph_index(subgraph_id)
            assert other.num_bounding_paths() == index.num_bounding_paths()
        # The adopted indexes stay maintainable against the live graph:
        # queries agree after a maintenance round.
        model = TrafficModel(graph, alpha=0.3, tau=0.5, seed=5)
        updates = model.advance()
        serial.dtlp.handle_updates(updates)
        parallel.dtlp.handle_updates(updates)
        queries = QueryGenerator(graph, seed=6, min_hops=3).generate(4, k=2)
        with StormTopology(serial.dtlp, num_workers=2) as a, StormTopology(
            parallel.dtlp, num_workers=2
        ) as b:
            left = _result_signature(a.run_queries(queries))
            right = _result_signature(b.run_queries(queries))
        assert left == right


class TestServingLayerIdentity:
    @pytest.mark.parametrize("executor", CONCURRENT)
    def test_replay_serves_identical_fresh_results(self, executor):
        def run(backend):
            graph = road_network(6, 6, seed=41)
            dtlp = DTLP(graph, DTLPConfig(z=14, xi=2)).build()
            from repro.distributed import KSPDGEngine

            engine = KSPDGEngine.local(
                dtlp, num_workers=2, executor=backend, executor_workers=2
            )
            service = KSPService(graph, engine, dtlp=dtlp)
            trace = generate_trace(
                graph, num_queries=60, update_rounds=6, k=2, seed=42
            )
            outcome = replay(service, trace, validate=True)
            service.close()
            engine.close()
            return outcome

        reference = run("serial")
        concurrent = run(executor)
        assert concurrent.stale_served == 0
        assert reference.stale_served == 0
        assert concurrent.num_served == reference.num_served
        assert [
            [(path.vertices, path.distance) for path in served.paths]
            for served in concurrent.served
        ] == [
            [(path.vertices, path.distance) for path in served.paths]
            for served in reference.served
        ]
