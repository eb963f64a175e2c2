"""Tests for repro.workloads (query generation and batch runners)."""

from __future__ import annotations

import pytest

from repro.workloads import (
    BatchRunner,
    FindKSPEngine,
    KSPQuery,
    QueryGenerator,
    YenEngine,
)
from repro.graph import DynamicGraph


class TestKSPQuery:
    def test_as_tuple(self):
        query = KSPQuery(query_id=1, source=3, target=9, k=4)
        assert query.as_tuple() == (3, 9, 4)

    def test_frozen(self):
        query = KSPQuery(query_id=1, source=3, target=9, k=4)
        with pytest.raises(AttributeError):
            query.k = 5  # type: ignore[misc]


class TestQueryGenerator:
    def test_generates_requested_count(self, small_road_network):
        generator = QueryGenerator(small_road_network, seed=1)
        queries = generator.generate(20, k=3)
        assert len(queries) == 20
        assert all(query.k == 3 for query in queries)

    def test_source_differs_from_target(self, small_road_network):
        generator = QueryGenerator(small_road_network, seed=1)
        for query in generator.generate(30, k=2):
            assert query.source != query.target

    def test_min_hops_constraint(self, small_road_network):
        generator = QueryGenerator(small_road_network, seed=1, min_hops=4)
        query = generator.generate_one(0, k=2)
        # BFS check: target not reachable within 3 hops.
        frontier = {query.source}
        seen = {query.source}
        for _ in range(3):
            frontier = {
                neighbor
                for vertex in frontier
                for neighbor in small_road_network.neighbors(vertex)
                if neighbor not in seen
            }
            seen |= frontier
        assert query.target not in seen

    def test_reproducible(self, small_road_network):
        first = QueryGenerator(small_road_network, seed=5).generate(10, k=2)
        second = QueryGenerator(small_road_network, seed=5).generate(10, k=2)
        assert [(q.source, q.target) for q in first] == [
            (q.source, q.target) for q in second
        ]

    def test_requires_two_vertices(self):
        graph = DynamicGraph()
        graph.add_vertex(1)
        with pytest.raises(ValueError):
            QueryGenerator(graph)

    def test_stream(self, small_road_network):
        generator = QueryGenerator(small_road_network, seed=1)
        assert len(list(generator.stream(5, k=2))) == 5


class _ReplayEngine:
    """Hands back already-measured outcomes, one per ``answer`` call."""

    name = "replay"

    def __init__(self, outcomes):
        self._outcomes = iter(outcomes)

    def answer(self, query):
        return next(self._outcomes)


class TestBatchRunner:
    def test_yen_engine_answers_queries(self, small_road_network):
        engine = YenEngine(small_road_network)
        generator = QueryGenerator(small_road_network, seed=2)
        report = BatchRunner(engine, num_servers=1).run(generator.generate(5, k=2))
        assert report.num_queries == 5
        assert report.total_cpu_seconds > 0
        for outcome in report.outcomes:
            assert len(outcome.paths) == 2

    def test_findksp_engine_matches_yen_distances(self, small_road_network):
        generator = QueryGenerator(small_road_network, seed=3)
        queries = generator.generate(5, k=3)
        yen_report = BatchRunner(YenEngine(small_road_network)).run(queries)
        findksp_report = BatchRunner(FindKSPEngine(small_road_network)).run(queries)
        for yen_outcome, findksp_outcome in zip(yen_report.outcomes, findksp_report.outcomes):
            assert [p.distance for p in yen_outcome.paths] == pytest.approx(
                [p.distance for p in findksp_outcome.paths]
            )

    def test_parallel_time_decreases_with_more_servers(self, small_road_network):
        generator = QueryGenerator(small_road_network, seed=4)
        queries = generator.generate(8, k=2)
        single = BatchRunner(YenEngine(small_road_network), num_servers=1).run(queries)
        # Two separately timed runs differ by scheduling noise; replay the
        # outcomes just measured so both makespans model the same durations.
        quad = BatchRunner(_ReplayEngine(single.outcomes), num_servers=4).run(queries)
        assert quad.total_cpu_seconds == single.total_cpu_seconds
        assert quad.parallel_seconds <= single.parallel_seconds + 1e-9
        assert quad.parallel_seconds >= single.total_cpu_seconds / 4 - 1e-9
        assert single.parallel_seconds == pytest.approx(single.total_cpu_seconds)

    def test_mean_statistics(self, small_road_network):
        generator = QueryGenerator(small_road_network, seed=4)
        report = BatchRunner(YenEngine(small_road_network)).run(generator.generate(4, k=2))
        assert report.mean_seconds_per_query == pytest.approx(
            report.total_cpu_seconds / 4
        )
        assert report.mean_iterations == 0.0

    def test_invalid_server_count(self, small_road_network):
        with pytest.raises(ValueError):
            BatchRunner(YenEngine(small_road_network), num_servers=0)

    def test_empty_batch(self, small_road_network):
        report = BatchRunner(YenEngine(small_road_network)).run([])
        assert report.num_queries == 0
        assert report.parallel_seconds == 0.0
        assert report.mean_seconds_per_query == 0.0
