"""Replica-group failure: a dead or failing worker process mid-sync.

The process backend keeps one resident topology replica per worker and
ships each weight round as one broadcast delta.  A broadcast that fails
part-way must discard the whole group — never leave some replicas one
delta ahead — and the next batch must respawn it from the master's live
state.
"""

from __future__ import annotations

import pytest

from repro.algorithms import yen_k_shortest_paths
from repro.core import DTLP, DTLPConfig
from repro.distributed import StormTopology
from repro.graph import road_network
from repro.workloads import QueryGenerator


class TestReplicaBroadcastAtomicity:
    """A broadcast that fails mid-flight must never leave a half-synced
    replica group behind (regression: a dead worker pipe during a weight
    delta sync desynced survivors from the master)."""

    def test_failed_broadcast_discards_group_and_raises_task_error(self):
        from repro.exec.replicas import ReplicaSet
        from repro.graph.errors import ExecutorError, ExecutorTaskError

        class FakeGraph:
            version = 0

            def edges_changed_since(self, version):
                return iter(())

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
        replica_set._graph.version = 1  # a weight round the replicas lack
        with pytest.raises(ExecutorTaskError, match="discarded"):
            replica_set.ensure(lambda: None)
        assert fake.closed
        assert not replica_set.active

    def test_process_topology_fails_atomically_and_recovers_by_respawn(
        self, monkeypatch
    ):
        """Task-level broadcast failure: the group is discarded wholesale
        and the next batch respawns every replica from fresh live state."""
        from repro.graph import WeightUpdate
        from repro.graph.errors import ExecutorTaskError

        graph = road_network(6, 6, seed=13)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        with StormTopology(dtlp, num_workers=3, executor="process") as topology:
            queries = QueryGenerator(graph, seed=3, min_hops=3).generate(3, k=2)
            topology.run_queries(queries)  # spawns the replica group
            replica_set = topology._replica_set
            assert replica_set.active
            u, v, weight = next(graph.edges())
            graph.apply_updates([WeightUpdate(u, v, weight * 1.5)])
            # The delta names an edge no replica has, so every replica's
            # sync raises inside the worker.
            with monkeypatch.context() as patch:
                patch.setattr(
                    graph, "edges_changed_since", lambda version: iter([(0, 10**6, 1.0)])
                )
                with pytest.raises(ExecutorTaskError):
                    replica_set.ensure(topology._make_bundle)
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
            TrafficModel(graph, alpha=0.3, tau=0.4, seed=5).advance()
            with pytest.raises(ExecutorTaskError):
                topology.run_queries(queries)
            assert not topology._replica_set.active
