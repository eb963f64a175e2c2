"""Tests for repro.bench (experiment harness and reporting helpers)."""

from __future__ import annotations


from repro.bench import (
    DATASET_DEFAULT_Z,
    FULL_SCALE,
    QUICK_SCALE,
    build_dataset,
    build_dtlp,
    make_queries,
    print_experiment,
)
from repro.bench.reporting import format_table


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]

    def test_format_table_float_formatting(self):
        table = format_table(["x"], [[0.123456]])
        assert "0.1235" in table

    def test_format_table_large_numbers(self):
        table = format_table(["x"], [[123456.0]])
        assert "123,456" in table

    def test_print_experiment_returns_text(self, capsys):
        text = print_experiment("Demo", ["a"], [[1]], notes="scaled")
        captured = capsys.readouterr()
        assert "Demo" in text
        assert "Demo" in captured.out
        assert "scaled" in text


class TestScales:
    def test_quick_scale_smaller_than_full(self):
        assert QUICK_SCALE.num_queries <= FULL_SCALE.num_queries
        assert QUICK_SCALE.graph_scale <= FULL_SCALE.graph_scale

    def test_default_z_known_for_every_dataset(self):
        for name in ("NY", "COL", "FLA", "CUSA"):
            assert name in DATASET_DEFAULT_Z
            assert name in FULL_SCALE.z_values


class TestHarnessBuilders:
    def test_build_dataset_cached(self):
        first = build_dataset("NY", scale=0.3)
        second = build_dataset("NY", scale=0.3)
        assert first is second

    def test_build_dtlp_cached_and_built(self):
        dtlp = build_dtlp("NY", z=24, xi=1, scale=0.3)
        assert dtlp.built
        assert build_dtlp("NY", z=24, xi=1, scale=0.3) is dtlp

    def test_make_queries_shapes(self):
        graph = build_dataset("NY", scale=0.3)
        queries = make_queries(graph, 5, k=3)
        assert len(queries) == 5
        assert all(query.k == 3 for query in queries)
