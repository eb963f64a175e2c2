"""Tests for :mod:`repro.obs` — metrics registry, span tracing, profiling.

Three layers of coverage:

* unit tests of the registry instruments (counter/gauge/histogram/absorb/
  Prometheus exposition) and the span-tree machinery (thread-local stack,
  Chrome export, tree reconstruction);
* kernel-profiling identity: every instrumented primitive returns results
  bit-identical to its lean loop, with counters populated;
* the cross-executor acceptance guarantee: a replayed 200-query service
  trace exports byte-identical Chrome trace JSON on the serial and process
  backends, with every query's span tree covering
  queue → batch → bolt → kernel, and the merged metrics registries equal.
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

from repro.core import DTLP, DTLPConfig
from repro.distributed import KSPDGEngine, StormTopology
from repro.graph import road_network
from repro.kernel.primitives import (
    bounded_dijkstra_arrays,
    dijkstra_arrays,
    dijkstra_arrays_multi,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import KernelCounters, collecting, kernel_counters
from repro.obs.trace import Span, TraceSession
from repro.obs.trace import (
    begin_trace,
    end_trace,
    mark,
    pop_span,
    push_span,
    render_tree,
    span,
    trace_active,
    trees_from_chrome,
)
from repro.service import KSPService, generate_trace, replay
from repro.workloads import QueryGenerator


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_set_and_set_max(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set_max(1)
        assert gauge.value == 3
        gauge.set_max(9)
        assert gauge.value == 9

    def test_histogram_aggregates_and_quantiles(self):
        histogram = Histogram("h")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 10.0
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(100.0) == 4.0
        assert histogram.quantile(50.0) == 2.5

    def test_merged_histogram_keeps_sampling_uniformly(self):
        """Regression: ``merge`` dropped the absorbed reservoir's ``count``,
        so the next 64 observations were each kept with probability 1
        (64 / 1, 64 / 2, ... capped) instead of 64 / n and pushed the 2,000
        absorbed observations out of the sample."""
        absorbed = Histogram("h", max_samples=64)
        for value in range(2000):
            absorbed.observe(value)
        merged = Histogram("h", max_samples=64)
        merged.merge(absorbed)
        for _ in range(200):
            merged.observe(10_000)
        assert merged._reservoir.count == merged.count == 2200
        exact = 1099.5  # the 1,100th of 0..1999 followed by 200 x 10,000
        assert abs(merged.quantile(50.0) - exact) < 0.15 * 2000


class TestMetricsRegistry:
    def test_instruments_are_memoised_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_as_dict_is_sorted_and_flat(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.gauge("a").set(7)
        registry.histogram("lat").observe(4.0)
        flat = registry.as_dict()
        assert list(flat) == sorted(flat)
        assert flat["b"] == 2
        assert flat["a"] == 7
        assert flat["lat_count"] == 1
        assert flat["lat_sum"] == 4.0

    def test_absorb_merges_all_instrument_kinds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.gauge("g").set(5)
        b.gauge("g").set(4)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(9.0)
        a.absorb(b)
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 5  # gauges max-merge
        assert a.histogram("h").count == 2
        assert a.histogram("h").total == 10.0

    def test_absorb_is_order_independent_below_reservoir_cap(self):
        def build(values):
            registry = MetricsRegistry()
            for value in values:
                registry.histogram("h").observe(value)
            return registry

        chunks = [[1.0, 5.0], [2.0], [9.0, 3.0, 7.0]]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for chunk in chunks:
            forward.absorb(build(chunk))
        for chunk in reversed(chunks):
            backward.absorb(build(chunk))
        assert forward.histogram("h").quantile(50.0) == backward.histogram(
            "h"
        ).quantile(50.0)
        assert forward.as_dict() == backward.as_dict()

    def test_pickle_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("c", help="a counter").inc(3)
        registry.histogram("h").observe(2.0)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.as_dict() == registry.as_dict()
        clone.absorb(registry)  # still a live registry after the roundtrip
        assert clone.counter("c").value == 6

    def test_render_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("queries_total", help="queries").inc(7)
        registry.gauge("depth").set(3)
        for value in [1.0, 2.0, 3.0]:
            registry.histogram("latency").observe(value)
        text = registry.render_prometheus()
        assert "# HELP queries_total queries" in text
        assert "# TYPE queries_total counter" in text
        assert "queries_total 7" in text
        assert "# TYPE depth gauge" in text
        assert "# TYPE latency summary" in text
        assert 'latency{quantile="0.5"} 2.0' in text
        assert "latency_count 3" in text
        assert "latency_sum 6.0" in text
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# span machinery
# ----------------------------------------------------------------------


class TestSpanMachinery:
    def test_inactive_sites_are_noops(self):
        assert not trace_active()
        assert push_span("x") is None
        pop_span(None)
        mark("event")
        with span("y") as node:
            assert node is None

    def test_tree_construction(self):
        root = begin_trace(Span("query", {"seq": 0}))
        with span("step1", attachments=2):
            mark("probe", vertex=7)
        token = push_span("route", bolt="qb-0")
        pop_span(token)
        assert end_trace() is root
        assert not trace_active()
        assert [child.name for child in root.children] == ["step1", "route"]
        assert root.children[0].children[0].args == {"vertex": 7}

    def test_kernel_span_records_counter_delta(self):
        with collecting() as prof:
            root = begin_trace(Span("query"))
            token = push_span("search", _kernel=True)
            prof.settled += 11
            prof.searches += 2
            pop_span(token)
            end_trace()
        assert root.children[0].args["settled"] == 11
        assert root.children[0].args["searches"] == 2

    def test_chrome_export_layout_and_durations(self):
        session = TraceSession()
        session.event("batch", size=2)
        root = Span("query", {"settled": 4})
        root.child("a").args["settled"] = 2
        root.child("b")
        session.add_query(0, root)
        payload = session.to_chrome_trace()
        assert payload["displayTimeUnit"] == "ms"
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        by_name = {event["name"]: event for event in complete}
        # own cost 1 + settled; parent duration covers the children.
        assert by_name["a"]["dur"] == 3
        assert by_name["b"]["dur"] == 1
        assert by_name["query"]["dur"] == 3 + 1 + (1 + 4)
        assert by_name["b"]["ts"] == by_name["a"]["ts"] + by_name["a"]["dur"]
        # query tracks are tid = seq + 1; the session track is tid 0.
        assert by_name["batch"]["tid"] == 0
        assert by_name["query"]["tid"] == 1

    def test_chrome_bytes_are_canonical(self):
        session = TraceSession()
        session.event("e", z=1, a=2)
        payload = session.to_chrome_bytes()
        assert payload == session.to_chrome_bytes()
        assert json.loads(payload.decode("ascii"))["traceEvents"]

    def test_trees_from_chrome_roundtrip(self):
        session = TraceSession()
        root = Span("query", {"seq": 3})
        child = root.child("route", bolt="qb-1")
        child.child("iteration", index=1)
        root.child("tail")
        session.add_query(3, root)
        tracks = trees_from_chrome(session.to_chrome_trace())
        assert [tid for tid, _ in tracks] == [4]
        (rebuilt,) = tracks[0][1]
        assert rebuilt.name == "query"
        assert [c.name for c in rebuilt.children] == ["route", "tail"]
        assert rebuilt.children[0].children[0].args["index"] == 1
        assert "route" in render_tree(rebuilt)

    def test_write_chrome_trace(self, tmp_path):
        session = TraceSession()
        session.event("e")
        path = tmp_path / "trace.json"
        written = session.write_chrome_trace(str(path))
        assert path.stat().st_size == written
        assert json.loads(path.read_text())["traceEvents"]


# ----------------------------------------------------------------------
# kernel profiling hooks
# ----------------------------------------------------------------------


def _random_rows(seed: int, n: int = 50, edges: int = 200):
    rng = random.Random(seed)
    rows = [[] for _ in range(n)]
    for _ in range(edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            rows[u].append((v, float(rng.randint(1, 9))))
    return [tuple(row) for row in rows]


class TestKernelProfiling:
    def test_disabled_by_default(self):
        assert kernel_counters() is None

    def test_profiled_twins_match_lean_paths(self):
        rows = _random_rows(11)
        n = len(rows)
        bounds = [0.0] * n
        calls = [
            lambda: dijkstra_arrays(rows, n, 0),
            lambda: dijkstra_arrays(rows, n, 0, target=n - 1, track_touched=False),
            lambda: dijkstra_arrays(
                rows, n, 0, target=n - 1,
                banned_vertices={2, 3}, banned_pairs={(0, 1)},
            ),
            lambda: dijkstra_arrays_multi(rows, n, 0, {n - 1, n - 2}),
            lambda: bounded_dijkstra_arrays(rows, n, 0, n - 1, bounds, 30.0),
            lambda: bounded_dijkstra_arrays(rows, n, 0, n - 1, None, 30.0),
        ]
        for call in calls:
            lean = call()
            with collecting() as prof:
                instrumented = call()
            assert instrumented == lean
            assert prof.searches >= 1
            assert prof.settled > 0

    def test_bounded_search_counts_pruned_pushes(self):
        rows = _random_rows(12)
        n = len(rows)
        with collecting() as prof:
            bounded_dijkstra_arrays(rows, n, 0, n - 1, None, 5.0)
        assert prof.pruned > 0

    def test_counters_fold_into_registry(self):
        registry = MetricsRegistry()
        counters = KernelCounters()
        counters.searches = 2
        counters.settled = 10
        counters.heap_peak = 7
        counters.fold_into(registry)
        flat = registry.as_dict()
        assert flat["kernel_searches_total"] == 2
        assert flat["kernel_settled_total"] == 10
        assert flat["kernel_heap_peak"] == 7


# ----------------------------------------------------------------------
# topology + service integration
# ----------------------------------------------------------------------


def _topology_run(executor: str, num_queries: int = 8):
    graph = road_network(8, 8, seed=21)
    dtlp = DTLP(graph, DTLPConfig(z=20, xi=3)).build()
    tracer = TraceSession()
    with StormTopology(
        dtlp, num_workers=4, executor=executor, executor_workers=2,
        tracer=tracer, pruning=False,
    ) as topology:
        queries = QueryGenerator(graph, seed=5, min_hops=3).generate(
            num_queries, k=2
        )
        report = topology.run_queries(queries)
        metrics = topology.cluster.metrics.as_dict()
    return report, tracer, metrics


class TestTopologyObservability:
    def test_untraced_topology_attaches_nothing(self):
        graph = road_network(6, 6, seed=22)
        dtlp = DTLP(graph, DTLPConfig(z=14, xi=2)).build()
        with StormTopology(dtlp, num_workers=2) as topology:
            queries = QueryGenerator(graph, seed=5, min_hops=2).generate(3, k=2)
            report = topology.run_queries(queries)
        assert all(result.trace is None for result in report.results)

    def test_traced_batch_collects_every_query(self):
        report, tracer, metrics = _topology_run("serial")
        assert len(tracer.queries) == 8
        for seq, root in tracer.queries:
            assert root.name == "query"
            assert "kernel" in root.args
            names = {node.name for node in root.walk()}
            assert "route" in names and "iteration" in names
        assert metrics["bolt_queries_total"] == 8
        assert metrics["kernel_searches_total"] > 0

    @pytest.mark.parametrize("executor", ["process"])
    def test_cross_backend_traces_and_metrics_match_serial(self, executor):
        serial_report, serial_tracer, serial_metrics = _topology_run("serial")
        other_report, other_tracer, other_metrics = _topology_run(executor)
        assert [
            [path.distance for path in result.paths]
            for result in other_report.results
        ] == [
            [path.distance for path in result.paths]
            for result in serial_report.results
        ]
        assert other_tracer.to_chrome_bytes() == serial_tracer.to_chrome_bytes()
        assert other_metrics == serial_metrics


def _service_replay(executor: str, num_queries: int = 200):
    """Replay a mixed update/query trace with full tracing enabled.

    ``pruning=False`` keeps per-query work backend-independent (the
    cross-round partial-path memo is per-process state) and the cache is
    off so every query produces a compute span — the acceptance setting of
    ARCHITECTURE.md, "Observability".
    """
    graph = road_network(8, 8, seed=13)
    dtlp = DTLP(graph, DTLPConfig(z=20, xi=3)).build()
    engine = KSPDGEngine.local(
        dtlp, num_workers=4, executor=executor, executor_workers=2,
        pruning=False,
    )
    service = KSPService(
        graph, engine, owns_engine=True, dtlp=dtlp,
        enable_cache=False, tracer=TraceSession(),
    )
    events = generate_trace(
        graph, num_queries=num_queries, update_rounds=8, k=2, seed=3,
        repeat_fraction=0.0,
    )
    outcome = replay(service, events)
    payload = service.tracer.to_chrome_bytes()
    tracer = service.tracer
    metrics = service.metrics_text()
    service.close()
    return outcome, tracer, payload, metrics


class TestServiceTraceAcceptance:
    def test_replayed_trace_covers_lifecycle_and_is_backend_identical(self):
        outcome, tracer, serial_payload, serial_metrics = _service_replay("serial")
        assert outcome.num_served == 200
        queries = tracer.queries
        assert len(queries) == 200
        assert [seq for seq, _ in queries] == list(range(200))
        for seq, root in queries:
            assert root.name == "service_query"
            children = [child.name for child in root.children]
            assert children[:3] == ["queue", "batch", "cache"]
            assert "compute" in children  # cache off: every query computes
            names = {node.name for node in root.walk()}
            # bolt-level work items and at least one kernel-bearing span
            assert "route" in names or "step1" in names
            assert any(
                "settled" in node.args or "kernel" in node.args
                for node in root.walk()
            )
        # The exported JSON parses and carries one track per query.
        payload = json.loads(serial_payload.decode("ascii"))
        tids = {
            event["tid"]
            for event in payload["traceEvents"]
            if event.get("ph") == "X" and event["tid"] > 0
        }
        assert tids == set(range(1, 201))

        _, _, process_payload, process_metrics = _service_replay("process")
        assert process_payload == serial_payload
        assert process_metrics == serial_metrics
