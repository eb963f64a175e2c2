"""Tests for repro.service.server / replay and the supporting core hooks.

Covers the serving subsystem's hard edges called out in the issue: cache
invalidation under interleaved weight updates (stale-path detection), dedup
of concurrent identical queries, load shedding at queue capacity — plus the
end-to-end acceptance scenario (a mixed trace of 500 queries and 50 update
rounds with a positive cache hit rate and zero stale served results).
"""

from __future__ import annotations

import time

import pytest

from repro.algorithms import yen_k_shortest_paths
from repro.core import DTLP, DTLPConfig
from repro.dynamics import TrafficModel
from repro.graph import DynamicGraph, road_network
from repro.service import KSPService, ServiceOverloadedError, generate_trace, replay
from repro.service.errors import ServiceClosedError
from repro.obs.metrics import percentile
from repro.workloads import KSPQuery, YenEngine


class CountingEngine:
    """QueryEngine wrapper counting how many answers were computed."""

    def __init__(self, inner):
        self.inner = inner
        self.name = f"counting({inner.name})"
        self.calls = 0

    def answer(self, query):
        self.calls += 1
        return self.inner.answer(query)


@pytest.fixture()
def diamond():
    graph = DynamicGraph()
    graph.add_edge(0, 1, 1.0)
    graph.add_edge(1, 3, 1.0)
    graph.add_edge(0, 2, 2.0)
    graph.add_edge(2, 3, 2.0)
    return graph


def make_service(graph, **kwargs):
    engine = CountingEngine(YenEngine(graph))
    return KSPService(graph, engine, **kwargs), engine


class TestGraphVersioning:
    def test_edge_version_starts_at_zero_and_tracks_updates(self, diamond):
        assert list(diamond.edges_changed_since(0)) == []
        diamond.update_weight(1, 0, 5.0)  # undirected: reported as (0, 1)
        assert diamond.version == 1
        assert list(diamond.edges_changed_since(0)) == [(0, 1, 5.0)]
        assert list(diamond.edges_changed_since(1)) == []

    def test_snapshot_carries_edge_versions(self, diamond):
        diamond.update_weight(0, 1, 5.0)
        diamond.update_weight(2, 3, 5.0)
        clone = diamond.snapshot()
        # The clone has no change log, so this reads the per-edge versions.
        assert list(clone.edges_changed_since(1)) == [(2, 3, 5.0)]
        assert clone.version == diamond.version

    def test_apply_updates_is_atomic_on_bad_batch(self, diamond):
        from repro.graph import WeightUpdate
        from repro.graph.errors import EdgeNotFoundError

        with pytest.raises(EdgeNotFoundError):
            diamond.apply_updates(
                [WeightUpdate(0, 1, 5.0), WeightUpdate(7, 999, 2.0)]
            )
        # Nothing was applied: weight, version and edge versions untouched.
        assert diamond.weight(0, 1) == pytest.approx(1.0)
        assert diamond.version == 0
        assert list(diamond.edges_changed_since(-1)) == []


class TestDTLPAttach:
    def test_attach_is_idempotent_and_detach_unregisters(self):
        graph = road_network(6, 6, seed=2)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        dtlp.attach()
        dtlp.attach()
        assert dtlp.attached
        before = dtlp.last_maintenance_seconds
        graph.update_weight(*next(iter([(u, v) for u, v, _ in graph.edges()])), 9.0)
        assert dtlp.last_maintenance_seconds != before or dtlp.last_maintenance_seconds > 0
        dtlp.detach()
        assert not dtlp.attached
        dtlp.detach()  # no-op

    def test_attach_recognises_direct_listener_registration(self):
        graph = road_network(6, 6, seed=2)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        graph.add_listener(dtlp.handle_updates)  # the pre-service idiom
        dtlp.attach()
        # No second registration: maintenance must not run twice per batch.
        assert sum(1 for listener in graph._listeners
                   if listener == dtlp.handle_updates) == 1
        assert dtlp.attached


class TestTrafficPregenerate:
    def test_pregenerate_matches_live_generation(self):
        graph_a = road_network(5, 5, seed=3)
        graph_b = road_network(5, 5, seed=3)
        rounds = TrafficModel(graph_a, alpha=0.2, tau=0.3, seed=9).pregenerate(4)
        live_model = TrafficModel(graph_b, alpha=0.2, tau=0.3, seed=9)
        live_rounds = [live_model.advance() for _ in range(4)]
        assert rounds == live_rounds
        # Pre-generation applied nothing to its graph.
        assert graph_a.version == 0


class TestDedup:
    def test_identical_inflight_queries_computed_once(self, diamond):
        service, engine = make_service(diamond)
        for query_id in range(5):
            service.submit(KSPQuery(query_id=query_id, source=0, target=3, k=2))
        served = service.drain()
        assert len(served) == 5
        assert engine.calls == 1
        assert service.report().coalesced == 4
        # All waiters received the same answer.
        distances = {tuple(p.distance for p in answer.paths) for answer in served}
        assert len(distances) == 1

    def test_cache_serves_repeats_across_batches(self, diamond):
        service, engine = make_service(diamond)
        service.submit(KSPQuery(query_id=0, source=0, target=3, k=2))
        [first] = service.drain()
        service.submit(KSPQuery(query_id=1, source=0, target=3, k=2))
        [second] = service.drain()
        assert engine.calls == 1
        assert not first.from_cache
        assert second.from_cache
        assert service.report().hit_rate > 0

    def test_disabled_cache_always_computes(self, diamond):
        service, engine = make_service(diamond, enable_cache=False)
        service.submit(KSPQuery(query_id=0, source=0, target=3, k=2))
        service.drain()
        service.submit(KSPQuery(query_id=1, source=0, target=3, k=2))
        service.drain()
        assert engine.calls == 2
        assert service.cache is None
        assert service.report().hit_rate == 0.0


class TestInvalidationUnderUpdates:
    def test_update_on_cached_path_forces_recompute(self, diamond):
        service, engine = make_service(diamond)
        service.submit(KSPQuery(query_id=0, source=0, target=3, k=1))
        [before] = service.drain()
        assert before.paths[0].distance == pytest.approx(2.0)
        service.maintenance_step([_update(diamond, 0, 1, 10.0)])
        service.submit(KSPQuery(query_id=1, source=0, target=3, k=1))
        [after] = service.drain()
        assert engine.calls == 2  # cache entry was evicted
        assert not after.from_cache
        assert after.paths[0].vertices == (0, 2, 3)
        assert after.paths[0].distance == pytest.approx(4.0)

    def test_update_off_cached_paths_keeps_entry_exact(self, diamond):
        service, engine = make_service(diamond)
        service.submit(KSPQuery(query_id=0, source=0, target=3, k=1))
        service.drain()
        # k=1 answer is 0-1-3; the 0-2 edge is on no cached path.  The
        # round still evicts the entry: a change off every cached path (a
        # drop elsewhere) can open a shorter path the entry does not hold,
        # so the answer is computed afresh.
        service.maintenance_step([_update(diamond, 0, 2, 1.5)])
        assert len(service.cache) == 0
        service.submit(KSPQuery(query_id=1, source=0, target=3, k=1))
        [again] = service.drain()
        assert engine.calls == 2
        assert not again.from_cache
        assert again.paths[0].vertices == (0, 1, 3)
        assert again.paths[0].distance == pytest.approx(2.0)

    def test_external_updates_also_invalidate(self, diamond):
        # Updates applied directly to the graph (not via maintenance_step)
        # must reach the cache through the listener.
        service, engine = make_service(diamond)
        service.submit(KSPQuery(query_id=0, source=0, target=3, k=1))
        service.drain()
        diamond.update_weight(1, 3, 10.0)
        service.submit(KSPQuery(query_id=1, source=0, target=3, k=1))
        [answer] = service.drain()
        assert engine.calls == 2
        assert answer.paths[0].distance == pytest.approx(4.0)


class TestLoadShedding:
    def test_overload_raises_and_counts(self, diamond):
        service, _ = make_service(diamond, queue_capacity=2, max_batch_size=2)
        service.submit(KSPQuery(query_id=0, source=0, target=3, k=1))
        service.submit(KSPQuery(query_id=1, source=0, target=2, k=1))
        with pytest.raises(ServiceOverloadedError):
            service.submit(KSPQuery(query_id=2, source=1, target=2, k=1))
        # Identical in-flight query still coalesces at full capacity.
        assert service.submit(KSPQuery(query_id=3, source=0, target=3, k=1)) is True
        service.drain()
        report = service.report()
        assert report.shed == 1
        assert report.queries_served == 3
        assert report.max_queue_depth == 2

    def test_draining_frees_capacity(self, diamond):
        service, _ = make_service(diamond, queue_capacity=1)
        service.submit(KSPQuery(query_id=0, source=0, target=3, k=1))
        service.drain()
        service.submit(KSPQuery(query_id=1, source=0, target=2, k=1))  # no raise
        assert service.queue_depth == 1


class TestLifecycle:
    def test_closed_service_refuses_traffic(self, diamond):
        service, _ = make_service(diamond)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(KSPQuery(query_id=0, source=0, target=3, k=1))
        with pytest.raises(ServiceClosedError):
            service.maintenance_step([])
        service.close()  # idempotent

    def test_context_manager_detaches_listener(self, diamond):
        with make_service(diamond)[0] as service:
            service.submit(KSPQuery(query_id=0, source=0, target=3, k=1))
            service.drain()
        assert service.closed
        # After close, graph updates no longer touch the (closed) cache.
        diamond.update_weight(0, 1, 9.0)
        assert service.cache.get((0, 3, 1)) is not None

    def test_close_detaches_dtlp_it_attached(self):
        graph = road_network(6, 6, seed=2)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        service = KSPService(graph, YenEngine(graph), dtlp=dtlp)
        assert dtlp.attached
        service.close()
        assert not dtlp.attached

    def test_close_spares_directly_registered_dtlp_listener(self):
        # The pre-service idiom: caller wires maintenance with
        # graph.add_listener(dtlp.handle_updates) and never calls attach().
        # The service must not rip that listener out on close.
        graph = road_network(6, 6, seed=2)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        graph.add_listener(dtlp.handle_updates)
        service = KSPService(graph, YenEngine(graph), dtlp=dtlp)
        service.close()
        assert graph.has_listener(dtlp.handle_updates)

    def test_close_leaves_caller_attached_dtlp_alone(self):
        graph = road_network(6, 6, seed=2)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build().attach()
        service = KSPService(graph, YenEngine(graph), dtlp=dtlp)
        service.close()
        assert dtlp.attached
        dtlp.detach()

    def test_maintenance_builds_default_traffic_model(self, diamond):
        # No traffic model supplied: the documented default (paper's
        # alpha/tau) is built lazily and applies a snapshot.
        service, _ = make_service(diamond)
        updates = service.maintenance_step()
        assert updates
        assert diamond.version == 1


class TestPercentile:
    def test_empty_and_single(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 50) == 5.0

    def test_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestOneCountingPath:
    """Each count lives in one instrument; the report reads the same ones."""

    #: ``ServiceReport`` field → the ``metrics_registry()`` series it reads.
    SERIES = {
        "queries_served": "service_queries_served_total",
        "unique_computations": "service_unique_computations_total",
        "cache_hits": "service_cache_hits_total",
        "cache_misses": "service_cache_misses_total",
        "coalesced": "service_coalesced_total",
        "shed": "service_shed_total",
        "shed_deadline": "service_shed_deadline_total",
        "deadline_expired": "service_deadline_expired_total",
        "retried_submissions": "service_retried_submissions_total",
        "max_queue_depth": "service_max_queue_depth",
        "maintenance_rounds": "service_maintenance_rounds_total",
        "updates_applied": "service_updates_applied_total",
        "cache_invalidations": "service_cache_invalidations_total",
        "cache_full_flushes": "service_cache_full_flushes_total",
    }

    def test_report_counts_are_the_registry_series(self, diamond):
        service, _ = make_service(diamond, queue_capacity=2, max_batch_size=1)
        service.submit(KSPQuery(query_id=0, source=0, target=3, k=2))
        service.submit(KSPQuery(query_id=1, source=0, target=3, k=2))
        service.submit(KSPQuery(query_id=2, source=1, target=2, k=1))
        with pytest.raises(ServiceOverloadedError):
            service.submit(KSPQuery(query_id=3, source=0, target=2, k=1))
        service.note_retry()
        with pytest.raises(ServiceOverloadedError):
            service.submit(
                KSPQuery(query_id=4, source=0, target=2, k=1),
                deadline=time.perf_counter() - 1.0,
            )
        service.drain()
        service.submit(KSPQuery(query_id=5, source=0, target=3, k=2))
        service.drain()
        service.maintenance_step([_update(diamond, 0, 1, 10.0)])
        # A slot whose deadline lapses in the queue: the pipeline's clock
        # runs ten seconds ahead when it forms the batch.
        service.submit(
            KSPQuery(query_id=6, source=2, target=3, k=1),
            deadline=time.perf_counter() + 5.0,
        )
        next_batch = service.pipeline.next_batch
        service.pipeline.next_batch = lambda now=None: next_batch(
            time.perf_counter() + 10.0
        )
        service.drain()

        report = service.report()
        series = service.metrics_registry().as_dict()
        for field, name in self.SERIES.items():
            assert getattr(report, field) == series[name], field
        assert report.mean_queue_depth == (
            series["service_queue_depth_sum_total"] / series["service_submitted_total"]
        )
        assert report.hit_rate == report.cache_hits / (
            report.cache_hits + report.cache_misses
        )
        for field in ("coalesced", "shed", "shed_deadline", "deadline_expired",
                      "retried_submissions", "cache_hits", "cache_invalidations"):
            assert getattr(report, field) > 0, field
        # Wall-clock distributions stay out of the exposition.
        text = service.metrics_text()
        assert "latency" not in text and "maintenance_seconds" not in text
        assert "summary" not in text


class TestReplayAcceptance:
    """The issue's acceptance scenario, asserted end to end."""

    def test_mixed_workload_hits_cache_and_serves_nothing_stale(self):
        graph = road_network(10, 10, seed=5)
        engine = CountingEngine(YenEngine(graph))
        traffic = TrafficModel(graph, alpha=0.05, tau=0.3, seed=5)
        service = KSPService(graph, engine, traffic=traffic, queue_capacity=64)
        trace = generate_trace(
            graph,
            num_queries=500,
            update_rounds=50,
            k=2,
            seed=5,
            repeat_fraction=0.6,
        )
        assert sum(1 for event in trace if event.kind == "update") == 50
        outcome = replay(service, trace, validate=True)
        report = outcome.report

        assert outcome.num_served + outcome.num_shed == 500
        assert outcome.stale_served == 0
        # Re-pricing cannot see a hit that is priced right but no longer
        # the top k: compare every hit with Yen on a twin graph at the
        # version it was served at.
        twin = road_network(10, 10, seed=5)
        twins = {twin.version: twin.snapshot()}
        for event in trace:
            if event.kind == "update":
                twin.apply_updates(list(event.updates))
                twins[twin.version] = twin.snapshot()
        hits = [answer for answer in outcome.served if answer.from_cache]
        for answer in hits:
            query = answer.query
            expected = yen_k_shortest_paths(
                twins[answer.graph_version], query.source, query.target, query.k
            )
            assert [path.distance for path in answer.paths] == pytest.approx(
                [path.distance for path in expected]
            )
        assert report.hit_rate > 0
        assert report.cache_hits > 0
        assert report.maintenance_rounds == 50
        assert report.updates_applied >= 50
        # Dedup/caching means strictly fewer engine computations than queries.
        assert engine.calls == report.unique_computations < outcome.num_served
        # Telemetry exposes coherent percentiles.
        assert 0 < report.latency_p50_ms <= report.latency_p90_ms <= report.latency_p99_ms
        assert report.latency_max_ms >= report.latency_p99_ms
        assert report.max_queue_depth > 0
        assert report.shed == outcome.num_shed
        assert report.queries_served == outcome.num_served

    def test_replay_is_deterministic(self):
        results = []
        for _ in range(2):
            graph = road_network(6, 6, seed=7)
            service = KSPService(
                graph,
                YenEngine(graph),
                traffic=TrafficModel(graph, seed=7),
            )
            trace = generate_trace(graph, num_queries=60, update_rounds=6, seed=7)
            outcome = replay(service, trace, validate=True)
            results.append(
                [
                    (answer.query.key, answer.from_cache, tuple(p.distance for p in answer.paths))
                    for answer in outcome.served
                ]
            )
        assert results[0] == results[1]

    def test_trace_generation_validation(self):
        graph = road_network(4, 4, seed=1)
        with pytest.raises(ValueError):
            generate_trace(graph, num_queries=0, update_rounds=1)
        with pytest.raises(ValueError):
            generate_trace(graph, num_queries=10, update_rounds=-1)
        with pytest.raises(ValueError):
            generate_trace(graph, num_queries=10, update_rounds=1, repeat_fraction=1.5)


def _update(graph, u, v, new_weight):
    from repro.graph import WeightUpdate

    assert graph.has_edge(u, v)
    return WeightUpdate(u, v, new_weight)
