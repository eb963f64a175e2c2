"""Tests for repro.core.variants (constrained and diversified KSP queries)."""

from __future__ import annotations

import pytest

from repro.algorithms import yen_k_shortest_paths
from repro.core import KSPDG
from repro.core.variants import constrained_ksp, diverse_ksp, path_overlap
from repro.graph.errors import QueryError


@pytest.fixture(scope="module")
def engine(request):
    small_dtlp = request.getfixturevalue("small_dtlp")
    return KSPDG(small_dtlp)


class TestPathOverlap:
    def test_identical_paths_fully_overlap(self, small_road_network):
        path = yen_k_shortest_paths(small_road_network, 0, 63, 1)[0]
        assert path_overlap(path, path) == pytest.approx(1.0)

    def test_disjoint_paths(self, small_road_network):
        from repro.graph.paths import Path

        first = Path(1.0, (0, 1))
        second = Path(1.0, (10, 11))
        assert path_overlap(first, second) == 0.0

    def test_single_vertex_path_has_zero_overlap(self):
        from repro.graph.paths import Path

        assert path_overlap(Path(0.0, (1,)), Path(1.0, (1, 2))) == 0.0


class TestConstrainedKSP:
    def test_paths_visit_waypoint(self, engine, small_road_network):
        paths = constrained_ksp(engine, 0, 63, k=3, via=[27])
        assert paths
        for path in paths:
            assert 27 in path.vertices
            assert path.is_simple()
            assert path.source == 0
            assert path.target == 63
            assert small_road_network.path_distance(path.vertices) == pytest.approx(
                path.distance
            )

    def test_waypoints_visited_in_order(self, engine):
        paths = constrained_ksp(engine, 0, 63, k=2, via=[18, 45])
        for path in paths:
            assert path.vertices.index(18) < path.vertices.index(45)

    def test_distances_sorted(self, engine):
        paths = constrained_ksp(engine, 0, 63, k=4, via=[27])
        distances = [path.distance for path in paths]
        assert distances == sorted(distances)

    def test_empty_via_matches_plain_ksp(self, engine):
        plain = engine.query(0, 63, 3).distances
        constrained = [p.distance for p in constrained_ksp(engine, 0, 63, 3, via=[])]
        assert constrained == pytest.approx(plain)

    def test_constrained_never_shorter_than_unconstrained(self, engine):
        unconstrained = engine.query(0, 63, 1).paths[0]
        constrained = constrained_ksp(engine, 0, 63, 1, via=[27])[0]
        assert constrained.distance >= unconstrained.distance - 1e-9

    def test_invalid_arguments(self, engine):
        with pytest.raises(QueryError):
            constrained_ksp(engine, 0, 63, 0, via=[27])
        with pytest.raises(QueryError):
            constrained_ksp(engine, 0, 63, 2, via=[0])
        with pytest.raises(QueryError):
            constrained_ksp(engine, 0, 63, 2, via=[99_999])


class TestDiverseKSP:
    def test_pairwise_overlap_bounded(self, engine):
        threshold = 0.5
        paths = diverse_ksp(engine, 0, 63, k=3, max_overlap=threshold)
        assert paths
        for index, first in enumerate(paths):
            for second in paths[index + 1:]:
                assert path_overlap(first, second) <= threshold + 1e-9

    def test_first_path_is_the_shortest(self, engine):
        shortest = engine.query(0, 63, 1).paths[0]
        diverse = diverse_ksp(engine, 0, 63, k=3, max_overlap=0.5)
        assert diverse[0].distance == pytest.approx(shortest.distance)

    def test_zero_overlap_yields_disjoint_paths(self, engine):
        paths = diverse_ksp(engine, 0, 63, k=2, max_overlap=0.0)
        if len(paths) == 2:
            assert path_overlap(paths[0], paths[1]) == 0.0

    def test_loose_threshold_returns_k_paths(self, engine):
        paths = diverse_ksp(engine, 0, 63, k=3, max_overlap=1.0)
        assert len(paths) == 3

    def test_invalid_arguments(self, engine):
        with pytest.raises(QueryError):
            diverse_ksp(engine, 0, 63, 0)
        with pytest.raises(QueryError):
            diverse_ksp(engine, 0, 63, 2, max_overlap=1.5)
