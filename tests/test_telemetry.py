"""Tests for the serving-layer latency record and its shared obs machinery.

:class:`KSPService` records each served query's latency into a seeded
:class:`~repro.obs.metrics.Histogram` built on :func:`percentile` and
:class:`ReservoirSampler`; these tests pin the edge cases of both (empty
input, single sample, extreme quantiles, reservoir overflow determinism)
and the report surface (``latency_p95_ms`` and its ``as_dict`` row).
"""

from __future__ import annotations

import pytest

from repro.graph import road_network
from repro.obs.metrics import ReservoirSampler, percentile
from repro.service import KSPService
from repro.service.server import ServiceReport
from repro.workloads import YenEngine


class TestPercentile:
    def test_empty_input_is_zero(self):
        assert percentile([], 50.0) == 0.0

    def test_single_sample_is_constant(self):
        for q in (0.0, 37.5, 100.0):
            assert percentile([4.2], q) == 4.2

    def test_extreme_quantiles_hit_min_and_max(self):
        values = [5.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 5.0

    def test_linear_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert percentile([0.0, 10.0], 25.0) == 2.5

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)

    def test_input_order_is_irrelevant(self):
        assert percentile([3.0, 1.0, 2.0], 90.0) == percentile(
            [1.0, 2.0, 3.0], 90.0
        )


class TestReservoirSampler:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0)

    def test_below_capacity_keeps_everything_in_order(self):
        sampler = ReservoirSampler(10, seed=0)
        for value in [3.0, 1.0, 2.0]:
            sampler.add(value)
        assert sampler.samples == [3.0, 1.0, 2.0]
        assert sampler.count == 3
        assert len(sampler) == 3

    def test_overflow_is_bounded_and_deterministic(self):
        a = ReservoirSampler(16, seed=0)
        b = ReservoirSampler(16, seed=0)
        stream = [float(i) for i in range(500)]
        for value in stream:
            a.add(value)
            b.add(value)
        assert len(a) == 16
        assert a.count == 500
        # Same seed + same stream -> bit-identical reservoirs.
        assert a.samples == b.samples
        # And the sample is drawn from the stream, not invented.
        assert set(a.samples) <= set(stream)

    def test_different_seeds_diverge_after_overflow(self):
        a = ReservoirSampler(8, seed=0)
        b = ReservoirSampler(8, seed=1)
        for i in range(200):
            a.add(float(i))
            b.add(float(i))
        assert a.samples != b.samples


class TestServiceLatency:
    @pytest.fixture(scope="class")
    def graph(self):
        return road_network(3, 3, seed=1)

    def _service(self, graph, latencies_ms) -> KSPService:
        service = KSPService(graph, YenEngine(graph))
        for latency in latencies_ms:
            service.latency_ms.observe(latency)
        return service

    def test_reservoir_bounds_latency_memory(self, graph):
        overflow = 100_000 + 50
        latency = self._service(graph, range(overflow)).latency_ms
        assert len(latency._reservoir.samples) == 100_000
        assert latency.count == overflow
        # Exact aggregates are unaffected by the sampling.
        assert latency.max == overflow - 1

    def test_replayed_streams_build_identical_reservoirs(self, graph):
        def run():
            stream = (i * 7919 % 100 for i in range(100_000 + 300))
            return self._service(graph, stream).latency_ms._reservoir.samples

        assert run() == run()

    def _report(self, graph, latencies_ms) -> ServiceReport:
        return self._service(graph, latencies_ms).report()

    def test_report_percentile_ordering_includes_p95(self, graph):
        report = self._report(graph, [float(i) for i in range(1, 101)])
        assert (
            report.latency_p50_ms
            <= report.latency_p90_ms
            <= report.latency_p95_ms
            <= report.latency_p99_ms
            <= report.latency_max_ms
        )
        assert report.latency_p95_ms == pytest.approx(95.05, rel=1e-6)

    def test_as_dict_has_p95_row_but_not_metrics_block(self, graph):
        report = self._report(graph, [1.0, 2.0])
        table = report.as_dict()
        keys = list(table)
        assert "latency p95 (ms)" in table
        # Ordered between p90 and p99, like the exposition order.
        assert keys.index("latency p90 (ms)") < keys.index("latency p95 (ms)")
        assert keys.index("latency p95 (ms)") < keys.index("latency p99 (ms)")
        # Every row is one table cell: no multi-line exposition block.
        assert all(not isinstance(value, str) or "\n" not in value
                   for value in table.values())
