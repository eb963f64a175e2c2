"""Tests for repro.graph.paths."""

from __future__ import annotations

import pytest

from repro.graph.paths import Path, is_simple, merge_paths, path_edges


class TestPathEdges:
    def test_edges_of_three_vertices(self):
        assert list(path_edges((1, 2, 3))) == [(1, 2), (2, 3)]

    def test_edges_of_single_vertex(self):
        assert list(path_edges((7,))) == []

    def test_edges_of_empty_sequence(self):
        assert list(path_edges(())) == []


class TestIsSimple:
    def test_simple_path(self):
        assert is_simple((1, 2, 3, 4))

    def test_repeated_vertex(self):
        assert not is_simple((1, 2, 3, 2))

    def test_single_vertex_is_simple(self):
        assert is_simple((5,))


class TestPath:
    def test_source_and_target(self):
        path = Path(10.0, (3, 4, 5))
        assert path.source == 3
        assert path.target == 5

    def test_num_edges(self):
        assert Path(1.0, (1, 2, 3)).num_edges == 2
        assert Path(0.0, (1,)).num_edges == 0

    def test_vertices_coerced_to_tuple(self):
        path = Path(2.0, [1, 2])
        assert isinstance(path.vertices, tuple)

    def test_ordering_by_distance(self):
        shorter = Path(1.0, (1, 2))
        longer = Path(2.0, (1, 3))
        assert shorter < longer
        assert sorted([longer, shorter])[0] is shorter

    def test_ordering_ties_broken_by_vertices(self):
        first = Path(1.0, (1, 2))
        second = Path(1.0, (1, 3))
        assert first < second

    def test_contains_vertex(self):
        path = Path(3.0, (1, 2, 3))
        assert 2 in path
        assert 9 not in path

    def test_len_and_iter(self):
        path = Path(3.0, (1, 2, 3))
        assert len(path) == 3
        assert list(path) == [1, 2, 3]

    def test_with_distance_returns_new_path(self):
        path = Path(3.0, (1, 2))
        updated = path.with_distance(7.5)
        assert updated.distance == 7.5
        assert updated.vertices == path.vertices
        assert path.distance == 3.0

    def test_is_simple_method(self):
        assert Path(1.0, (1, 2, 3)).is_simple()
        assert not Path(1.0, (1, 2, 1)).is_simple()

    def test_hashable_and_equal(self):
        assert Path(1.0, (1, 2)) == Path(1.0, (1, 2))
        assert hash(Path(1.0, (1, 2))) == hash(Path(1.0, (1, 2)))


class TestMergePaths:
    def test_merge_at_junction(self):
        first = Path(2.0, (1, 2, 3))
        second = Path(4.0, (3, 4))
        merged = merge_paths(first, second)
        assert merged.vertices == (1, 2, 3, 4)
        assert merged.distance == pytest.approx(6.0)

    def test_merge_mismatched_junction_raises(self):
        with pytest.raises(ValueError):
            merge_paths(Path(1.0, (1, 2)), Path(1.0, (3, 4)))

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_paths(Path(0.0, ()), Path(1.0, (1, 2)))

    def test_merge_single_vertex_extension(self):
        merged = merge_paths(Path(5.0, (1, 2)), Path(0.0, (2,)))
        assert merged.vertices == (1, 2)
        assert merged.distance == pytest.approx(5.0)
