"""Tests for repro.graph.dimacs (DIMACS .gr/.co readers and writer)."""

from __future__ import annotations

import gzip

import pytest

from repro.graph import DynamicGraph, read_gr, write_gr
from repro.graph.errors import GraphError
from repro.graph import road_network


class TestRoundTrip:
    def test_write_then_read_undirected(self, tmp_path):
        graph = road_network(5, 5, seed=2)
        path = tmp_path / "net.gr"
        write_gr(graph, path)
        loaded = read_gr(path, directed=False)
        assert loaded.num_vertices == graph.num_vertices
        assert loaded.num_edges == graph.num_edges
        for u, v, weight in graph.edges():
            assert loaded.weight(u, v) == pytest.approx(weight)

    def test_write_then_read_directed(self, tmp_path):
        graph = road_network(4, 4, seed=2, directed=True)
        path = tmp_path / "net.gr"
        write_gr(graph, path)
        loaded = read_gr(path, directed=True)
        assert loaded.num_edges == graph.num_edges

    def test_weight_scale(self, tmp_path):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 10.0)
        path = tmp_path / "tiny.gr"
        write_gr(graph, path)
        loaded = read_gr(path, directed=False, weight_scale=0.1)
        assert loaded.weight(1, 2) == pytest.approx(1.0)

    def test_gzip_input(self, tmp_path):
        content = "c tiny\np sp 2 1\na 1 2 5\n"
        path = tmp_path / "tiny.gr.gz"
        with gzip.open(path, "wt", encoding="ascii") as handle:
            handle.write(content)
        loaded = read_gr(path)
        assert loaded.weight(1, 2) == 5.0


class TestMalformedInput:
    def test_bad_problem_line(self, tmp_path):
        path = tmp_path / "bad.gr"
        path.write_text("p wrong 2 1\na 1 2 3\n")
        with pytest.raises(GraphError):
            read_gr(path)

    def test_bad_arc_line(self, tmp_path):
        path = tmp_path / "bad.gr"
        path.write_text("p sp 2 1\na 1 2\n")
        with pytest.raises(GraphError):
            read_gr(path)

    def test_unknown_line_type(self, tmp_path):
        path = tmp_path / "bad.gr"
        path.write_text("x nonsense\n")
        with pytest.raises(GraphError):
            read_gr(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "ok.gr"
        path.write_text("c comment\n\np sp 2 1\na 1 2 3\n")
        loaded = read_gr(path)
        assert loaded.weight(1, 2) == 3.0


