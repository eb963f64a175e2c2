"""Tests for repro.cli (command-line interface)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.cli import build_parser, main
from repro.graph import road_network, write_gr


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(
            ["generate", "--dataset", "NY", "--scale", "0.3", "--out", "x.gr"]
        )
        assert args.command == "generate"
        assert args.dataset == "NY"
        assert args.out == "x.gr"

    def test_query_arguments(self):
        args = build_parser().parse_args(
            ["query", "--dataset", "COL", "--source", "1", "--target", "2", "--k", "4"]
        )
        assert args.k == 4

    def test_removed_heuristic_flag_is_an_argparse_error(self, capsys):
        # Not a silently accepted no-op: the knob is gone everywhere it was.
        for command in ("query", "bench", "replay", "serve"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(
                    [command, "--dataset", "NY", "--source", "0", "--target", "5",
                     "--heuristic", "landmark"]
                )
            assert excinfo.value.code == 2
            assert "--heuristic" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["gpu", "thread"])
    def test_bad_repro_executor_exits_2_before_any_graph_is_built(
        self, value, monkeypatch, capsys
    ):
        def no_graph(args):
            raise AssertionError("a graph was built")

        monkeypatch.setenv("REPRO_EXECUTOR", value)
        monkeypatch.setattr(cli, "_load_graph", no_graph)
        for command in ("bench", "stats"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--dataset", "NY", "--scale", "0.1"])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert repr(value) in err and "serial, process" in err
        # An explicit flag wins over the environment; the flag itself only
        # accepts the two backends.
        args = build_parser().parse_args(["bench", "--dataset", "NY", "--executor", "serial"])
        assert args.executor == "serial"
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench", "--dataset", "NY", "--executor", "thread"])
        assert excinfo.value.code == 2


class TestCommands:
    def test_generate_then_stats_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "tiny.gr"
        code = main(["generate", "--dataset", "NY", "--scale", "0.25", "--out", str(out)])
        assert code == 0
        assert out.exists()
        code = main(["stats", "--gr", str(out), "--z", "16", "--xi", "2"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "num_subgraphs" in captured
        assert "skeleton_vertices" in captured

    def test_query_with_verification(self, capsys):
        code = main(
            [
                "query",
                "--dataset", "NY",
                "--scale", "0.25",
                "--z", "16",
                "--xi", "2",
                "--source", "0",
                "--target", "20",
                "--k", "2",
                "--verify",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "verification against Yen's algorithm: OK" in captured

    def test_bench_command(self, capsys):
        code = main(
            [
                "bench",
                "--dataset", "NY",
                "--scale", "0.25",
                "--z", "16",
                "--xi", "2",
                "--num-queries", "3",
                "--workers", "2",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "parallel time (s)" in captured

    def test_replay_command_validates_and_reports(self, capsys):
        code = main(
            [
                "replay",
                "--dataset", "NY",
                "--scale", "0.25",
                "--engine", "yen",
                "--num-queries", "60",
                "--update-rounds", "6",
                "--validate",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "stale served results: 0" in captured
        assert "cache hit rate" in captured
        assert "latency p99 (ms)" in captured

    def test_store_partitioner_follows_the_store_unless_told_otherwise(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        graph_args = ["--dataset", "NY", "--scale", "0.25", "--z", "12"]
        replay = ["replay", *graph_args, "--num-queries", "10", "--update-rounds", "1",
                  "--store", str(store)]
        assert main(["partition", *graph_args, "--out", str(store)]) == 0
        manifest = (store / "manifest.json").read_bytes()
        assert json.loads(manifest)["config"]["partitioner"] == "mincut"
        capsys.readouterr()

        # No --partitioner: the store's own record wins over any default,
        # so the store is loaded, not silently rebuilt as bfs.
        assert main(replay) == 0
        assert "loaded index from store" in capsys.readouterr().err
        assert (store / "manifest.json").read_bytes() == manifest

        # An explicit disagreeing flag keeps the rebuild-and-overwrite
        # contract, announced with both configurations.
        assert main([*replay, "--partitioner", "bfs"]) == 0
        err = capsys.readouterr().err
        assert "partitioner='mincut'" in err and "partitioner='bfs'" in err
        assert "built index and saved to store" in err
        rebuilt = json.loads((store / "manifest.json").read_bytes())
        assert rebuilt["config"]["partitioner"] == "bfs"

    def test_serve_command_sheds_instead_of_crashing(self, capsys):
        # An epoch wave larger than the admission queue: the overflow must
        # be shed (not crash with ServiceOverloadedError) and the shed
        # count must show up in the per-epoch line.
        code = main(
            [
                "serve",
                "--dataset", "NY",
                "--scale", "0.25",
                "--engine", "yen",
                "--epochs", "2",
                "--queries-per-epoch", "30",
                "--queue-capacity", "4",
                "--batch-size", "8",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        match = re.search(r"epoch   1: .* \(\d+ from cache, (\d+) shed\)", captured)
        assert match is not None
        assert int(match.group(1)) > 0
        assert "shed requests" in captured

    def test_loadtest_pinned_faults_write_their_report(self, tmp_path, capsys):
        graph_file = tmp_path / "grid.gr"
        write_gr(road_network(5, 5, seed=3), graph_file)
        out = tmp_path / "loadtest.json"
        code = main(
            [
                "loadtest",
                "--gr", str(graph_file),
                "--requests", "24",
                "--concurrency", "2",
                "--replicas", "3",
                "--pin-faults",
                "--json", str(out),
            ]
        )
        assert code == 0
        assert "OK: zero wrong answers" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert sorted(report) == ["budget_ms", "chaos", "knee", "slo_ms", "sweep"]
        assert sorted(report["chaos"]) == [
            "availability", "breaker_trips", "breakers_recovered",
            "cooldown_unavailable", "cooldown_windows", "degraded",
            "final_breaker_states", "kills", "maintenance_rounds", "ok",
            "p99_ms", "qps", "retries", "status_counts", "total",
            "unavailable", "windows", "wrong_answer_count", "wrong_answers",
        ]
        assert report["chaos"]["wrong_answer_count"] == 0
        assert report["chaos"]["kills"] == 1

    def test_serve_http_runs_for_its_duration_and_reports(self, capsys):
        code = main(["serve-http", "--dataset", "NY", "--scale", "0.3", "--duration", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "front door listening on http://" in out
        assert re.search(r"^served 0 ok / 0 degraded of 0 requests", out, re.MULTILINE)

    def test_missing_graph_source_fails(self):
        with pytest.raises(SystemExit):
            main(["stats", "--z", "16"])


def test_package_imports_nothing_outside_the_standard_library():
    """"Zero runtime dependencies", checked: a fresh interpreter imports every
    module under ``repro`` and only stdlib and ``repro.*`` modules appear."""
    script = (
        "import pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import repro\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    __import__(module.name)\n"
        "# __mp_main__ is multiprocessing's alias of __main__\n"
        "allowed = sys.stdlib_module_names | {'repro', '__mp_main__'}\n"
        "foreign = sorted(\n"
        "    name for name in set(sys.modules) - before\n"
        "    if name.split('.')[0] not in allowed\n"
        ")\n"
        "assert not foreign, foreign\n"
    )
    source_root = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": source_root},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
