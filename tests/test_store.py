"""Tests for repro.store (on-disk partition/index store).

The store's contract is *answer identity*: a DTLP loaded from disk must
answer every query exactly like one built from scratch against the same
live graph — including after post-save weight updates, which exercise the
staleness tiers (weights-fingerprint short-circuit, same-lineage
``edges_changed_since`` candidates, full per-edge compare).  On top of
that the layout itself is pinned (DGL's ``part<k>/`` + ``node_map``
shape, contiguous local ids).
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import DTLP, DTLPConfig
from repro.distributed import KSPDGEngine, distributed_build_report
from repro.dynamics import TrafficModel
from repro.graph import DynamicGraph, road_network
from repro.store import partition_store
from repro.store import PartitionStore, StoreError, load_or_build
from repro.store.partition_store import graph_structure_fingerprint, graph_weights_fingerprint
from repro.workloads import QueryGenerator

CONFIG = DTLPConfig(z=12, xi=2, partitioner="mincut")
#: Former ``DTLPConfig`` fields, with the defaults old manifests carry.
RETIRED_CONFIG_KEYS = {
    "max_paths_per_count": 4,
    "build_mfp_trees": False,
    "lsh_num_hashes": 16,
    "lsh_num_bands": 4,
}


def _signature(outcomes):
    return [
        ([(p.vertices, p.distance) for p in o.paths], o.iterations)
        for o in outcomes
    ]


def _answers(dtlp, queries):
    engine = KSPDGEngine.local(dtlp)
    try:
        return _signature(engine.answer_many(queries))
    finally:
        engine.close()


@pytest.fixture()
def saved(tmp_path):
    """A built DTLP saved to a store, plus its graph and query batch."""
    graph = road_network(6, 6, seed=31)
    dtlp = DTLP(graph, CONFIG).build()
    store = PartitionStore.save(dtlp, tmp_path / "store")
    queries = QueryGenerator(graph, seed=32, min_hops=3).generate(10, k=3)
    return graph, dtlp, store, queries


class TestLayout:
    def test_manifest_keys(self, saved):
        graph, dtlp, store, _ = saved
        manifest = store.manifest
        assert manifest["format_version"] == 1
        assert manifest["structure_fingerprint"] == graph_structure_fingerprint(graph)
        assert manifest["weights_fingerprint"] == graph_weights_fingerprint(graph)
        assert manifest["epoch"] == graph.version
        assert manifest["directed"] is False
        assert manifest["num_partitions"] == dtlp.partition.num_subgraphs
        assert manifest["num_vertices"] == graph.num_vertices
        assert manifest["num_edges"] == graph.num_edges
        assert manifest["num_boundary_vertices"] == len(
            dtlp.partition.boundary_vertices
        )
        assert store.config() == dtlp.config

    def test_part_directories_self_contained_in_local_ids(self, saved):
        graph, dtlp, store, _ = saved
        assert store.num_partitions == dtlp.partition.num_subgraphs
        for subgraph in dtlp.partition.subgraphs:
            part_dir = store.partition_path(subgraph.subgraph_id)
            node_state = json.loads((part_dir / "nodes.json").read_text())
            assert node_state["nodes"] == sorted(subgraph.vertices)
            # Boundary is stored as local ids valid for this part alone.
            local_boundary = {
                node_state["nodes"][local] for local in node_state["boundary"]
            }
            assert local_boundary == set(subgraph.boundary_vertices)
            edges = json.loads((part_dir / "edges.json").read_text())
            n = len(node_state["nodes"])
            assert all(0 <= lu < n and 0 <= lv < n for lu, lv, _, _ in edges)
            assert len(edges) == len(subgraph.edge_set)
            assert (part_dir / "index.json").is_file()

    def test_node_map_assigns_every_vertex_one_home(self, saved):
        graph, dtlp, store, _ = saved
        node_map = json.loads((store.root / "node_map.json").read_text())
        assert [vertex for vertex, _ in node_map] == sorted(graph.vertices())
        for vertex, home in node_map:
            assert home in dtlp.partition.subgraphs_of_vertex(vertex)

    def test_save_rejects_unbuilt(self, tmp_path):
        graph = road_network(3, 3, seed=1)
        with pytest.raises(StoreError):
            PartitionStore.save(DTLP(graph, CONFIG), tmp_path / "s")


class TestFingerprints:
    def test_structure_stable_across_insertion_order(self):
        base = road_network(5, 5, seed=7)
        edges = [(u, v, w) for u, v, w in base.edges()]
        shuffled = DynamicGraph()
        for u, v, w in reversed(edges):
            shuffled.add_edge(u, v, w)
        assert graph_structure_fingerprint(shuffled) == graph_structure_fingerprint(
            base
        )

    def test_weight_update_changes_weights_not_structure(self):
        graph = road_network(5, 5, seed=7)
        structure = graph_structure_fingerprint(graph)
        weights = graph_weights_fingerprint(graph)
        u, v, w = next(iter(graph.edges()))
        graph.update_weight(u, v, w + 1.0)
        assert graph_structure_fingerprint(graph) == structure
        assert graph_weights_fingerprint(graph) != weights


class TestLoadGraph:
    def test_reconstructs_vertices_edges_and_both_weights(self, saved):
        graph, _, store, _ = saved
        model = TrafficModel(graph, alpha=0.3, tau=0.4, seed=33)
        model.advance()  # post-save drift must NOT leak into the store
        loaded = PartitionStore(store.root).load_graph()
        # Reconstruction restores the *save-time* state: structure and
        # initial weights exactly, current weights via one update batch.
        assert graph_structure_fingerprint(loaded) == store.manifest[
            "structure_fingerprint"
        ]
        assert graph_weights_fingerprint(loaded) == store.manifest[
            "weights_fingerprint"
        ]
        assert loaded.directed == graph.directed


class TestRoundTrip:
    def test_cold_load_answers_identical(self, saved):
        graph, dtlp, store, queries = saved
        fresh = _answers(dtlp, queries)
        loaded = PartitionStore(store.root).load(graph)
        assert loaded.built
        assert _answers(loaded, queries) == fresh

    def test_store_with_legacy_landmarks_table_still_loads(self, saved):
        graph, dtlp, store, queries = saved
        # Stores written before the landmark tables were dropped carry a
        # "landmarks" key in skeleton.json; it is ignored, not an error.
        skeleton_path = store.root / "skeleton.json"
        state = json.loads(skeleton_path.read_text())
        assert set(state) == {"edges"}
        state["landmarks"] = {
            "num_landmarks": 1, "landmarks": [0], "forward": [[0.0]], "reverse": [],
        }
        skeleton_path.write_text(json.dumps(state))
        loaded = PartitionStore(store.root).load(graph)
        assert _answers(loaded, queries) == _answers(dtlp, queries)

    def test_store_with_retired_max_paths_per_count_still_loads(self, saved):
        graph, dtlp, store, queries = saved
        # Stores written while these were still DTLPConfig fields carry all
        # of them in the manifest's config; ``max_paths_per_count`` was also
        # written into every index state.
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert not set(RETIRED_CONFIG_KEYS) & set(manifest["config"])
        manifest["config"].update(RETIRED_CONFIG_KEYS)
        manifest_path.write_text(json.dumps(manifest))
        for part_dir in store.partition_paths():
            state = json.loads((part_dir / "index.json").read_text())
            assert "max_paths_per_count" not in state
            state["max_paths_per_count"] = 4
            (part_dir / "index.json").write_text(json.dumps(state))
        legacy = PartitionStore(store.root)
        assert legacy.config() == CONFIG
        assert _answers(legacy.load(graph), queries) == _answers(dtlp, queries)

    def test_same_lineage_refresh_after_updates(self, saved):
        graph, _, store, queries = saved
        model = TrafficModel(graph, alpha=0.3, tau=0.4, seed=34)
        for _ in range(2):
            model.advance()
        # graph.version is now ahead of the save epoch: tier 2.
        loaded = PartitionStore(store.root).load(graph)
        fresh = DTLP(graph, CONFIG).build()
        assert _answers(loaded, queries) == _answers(fresh, queries)

    def test_different_lineage_refresh(self, saved):
        _, _, store, queries = saved
        # A structurally identical graph rebuilt from its generator with
        # different weights applied: no shared version counter (tier 3).
        replay = road_network(6, 6, seed=31)
        model = TrafficModel(replay, alpha=0.3, tau=0.4, seed=35)
        model.advance()
        loaded = PartitionStore(store.root).load(replay)
        fresh = DTLP(replay, CONFIG).build()
        assert _answers(loaded, queries) == _answers(fresh, queries)

    def test_structure_mismatch_rejected(self, saved):
        *_, store, _ = saved
        other = road_network(6, 6, seed=99)
        with pytest.raises(StoreError):
            PartitionStore(store.root).load(other)
        with pytest.raises(StoreError):
            store.stale_updates(other)

    def test_unsupported_format_version_rejected(self, saved):
        graph, _, store, _ = saved
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError):
            PartitionStore(store.root).load(graph)

    def test_missing_store_rejected(self, tmp_path):
        graph = road_network(3, 3, seed=1)
        with pytest.raises(StoreError):
            PartitionStore(tmp_path / "nowhere").load(graph)

    def test_stale_updates_catchup_batch(self, saved):
        graph, _, store, _ = saved
        assert store.stale_updates(graph) == []
        model = TrafficModel(graph, alpha=0.3, tau=0.4, seed=36)
        updates = model.advance()
        stale = store.stale_updates(graph)
        # Every applied change whose weight actually differs from the
        # stored one is reported, with the live weight.
        expected = {(u.u, u.v): u.new_weight for u in updates}
        assert stale
        for update in stale:
            assert update.new_weight == graph.weight(update.u, update.v)
            assert expected.get((update.u, update.v)) == update.new_weight


class TestInterruptedSave:
    """Files appear whole or not at all; no manifest means no store."""

    @staticmethod
    def _die_on(monkeypatch, file_name):
        real_replace = partition_store.os.replace

        def replace_or_die(source, target):
            if Path(target).name == file_name:
                raise KeyboardInterrupt(f"killed before {file_name} landed")
            real_replace(source, target)

        monkeypatch.setattr(partition_store.os, "replace", replace_or_die)

    @staticmethod
    def _assert_only_whole_json(root):
        files = [path for path in root.rglob("*") if path.is_file()]
        assert files
        for path in files:
            assert path.suffix == ".json", f"leftover temp file {path}"
            json.loads(path.read_text())

    def test_fresh_directory_is_not_a_store(self, tmp_path, monkeypatch):
        graph = road_network(6, 6, seed=31)
        dtlp = DTLP(graph, CONFIG).build()
        self._die_on(monkeypatch, "manifest.json")
        with pytest.raises(KeyboardInterrupt):
            PartitionStore.save(dtlp, tmp_path / "store")
        self._assert_only_whole_json(tmp_path / "store")
        assert not PartitionStore(tmp_path / "store").exists()
        with pytest.raises(StoreError):
            PartitionStore(tmp_path / "store").load(graph)

    @pytest.mark.parametrize(
        "file_name", ["index.json", "skeleton.json", "manifest.json"]
    )
    def test_previous_store_stays_loadable(self, saved, monkeypatch, file_name):
        graph, dtlp, store, queries = saved
        fresh = _answers(dtlp, queries)
        self._die_on(monkeypatch, file_name)
        with pytest.raises(KeyboardInterrupt):
            PartitionStore.save(dtlp, store.root)
        monkeypatch.undo()
        self._assert_only_whole_json(store.root)
        assert PartitionStore(store.root).exists()
        assert _answers(PartitionStore(store.root).load(graph), queries) == fresh

    def test_each_file_is_synced_before_it_lands_and_its_directory_after(
        self, tmp_path, monkeypatch
    ):
        dtlp = DTLP(road_network(6, 6, seed=31), CONFIG).build()
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        def replace_file(source, target):
            events.append("replace")
            real_replace(source, target)

        monkeypatch.setattr(partition_store.os, "fsync", fsync)
        monkeypatch.setattr(partition_store.os, "replace", replace_file)
        PartitionStore.save(dtlp, tmp_path / "store")
        written = list((tmp_path / "store").rglob("*.json"))
        assert events == ["file", "replace", "dir"] * len(written)


class TestLoadOrBuild:
    def test_builds_then_loads(self, tmp_path):
        graph = road_network(5, 5, seed=41)
        queries = QueryGenerator(graph, seed=42, min_hops=3).generate(6, k=2)
        first, loaded_first = load_or_build(graph, CONFIG, tmp_path / "s")
        assert loaded_first is False
        second, loaded_second = load_or_build(graph, CONFIG, tmp_path / "s")
        assert loaded_second is True
        assert _answers(second, queries) == _answers(first, queries)

    def test_config_mismatch_rebuilds(self, tmp_path):
        graph = road_network(5, 5, seed=41)
        load_or_build(graph, CONFIG, tmp_path / "s")
        other = replace(CONFIG, z=8)
        dtlp, loaded = load_or_build(graph, other, tmp_path / "s")
        assert loaded is False
        assert PartitionStore(tmp_path / "s").config().z == 8
        assert dtlp.config.z == 8

    def test_parallel_build_writes_parts_in_workers(self, tmp_path):
        graph = road_network(6, 6, seed=43)
        queries = QueryGenerator(graph, seed=44, min_hops=3).generate(6, k=2)
        store_dir = tmp_path / "s"
        report = distributed_build_report(
            graph, CONFIG, num_workers=2, executor="process",
            store_dir=str(store_dir),
        )
        store = PartitionStore.save(report.dtlp, store_dir, parts_written=True)
        assert store.num_partitions == report.dtlp.partition.num_subgraphs
        loaded = PartitionStore(store_dir).load(graph)
        assert _answers(loaded, queries) == _answers(report.dtlp, queries)


class TestStoreShippedReplicas:
    def test_process_replicas_cold_start_from_store(self, tmp_path):
        """Replicas loading only partition files match the serial engine.

        Covers the full shipping path: bundle carries ``store_path`` +
        catch-up batch instead of a pickled DTLP, replicas reconstruct the
        graph from the store, and the ongoing ``edges_changed_since``
        delta-sync layers on top across a maintenance round.
        """
        graph = road_network(6, 6, seed=51)
        dtlp = DTLP(graph, CONFIG).build()
        store = PartitionStore.save(dtlp, tmp_path / "s")
        model = TrafficModel(graph, alpha=0.3, tau=0.4, seed=52)
        generator = QueryGenerator(graph, seed=53, min_hops=3)

        serial = KSPDGEngine.local(dtlp)
        process = KSPDGEngine.local(
            dtlp, executor="process", executor_workers=2,
            store_path=str(store.root),
        )
        try:
            # Post-save drift before the replicas spawn → catchup batch.
            updates = model.advance()
            serial.topology.submit_weight_updates(updates)
            process.topology.submit_weight_updates(updates)
            batch = generator.generate(6, k=3)
            assert _signature(process.answer_many(batch)) == _signature(
                serial.answer_many(batch)
            )
            # And the normal delta-sync keeps working afterwards.
            updates = model.advance()
            serial.topology.submit_weight_updates(updates)
            process.topology.submit_weight_updates(updates)
            batch = generator.generate(6, k=3)
            assert _signature(process.answer_many(batch)) == _signature(
                serial.answer_many(batch)
            )
        finally:
            serial.close()
            process.close()
