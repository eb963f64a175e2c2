"""On-disk partition/index store (the DGL ``part0/`` + ``node_map`` layout).

Layout of a store directory::

    store/
      manifest.json        # format, fingerprints, epoch, DTLP config
      node_map.json        # sorted [vertex, home partition] pairs
      skeleton.json        # skeleton edges
      part0/
        nodes.json         # {"nodes": sorted global ids, "boundary": local ids}
        edges.json         # [lu, lv, initial w, current w] in local ids
        index.json         # SubgraphIndex.export_state() in local ids
      part1/
        ...

Every vertex id inside a ``part<k>/`` directory is a contiguous *local* id
(its position in ``nodes``), so a worker loading one partition never
materialises global tables — boundary membership is stored per partition.
The manifest carries two fingerprints:

* the **structure fingerprint** — directedness, vertex set, edge set and
  initial weights.  A mismatch means the store describes a different graph
  and loading raises :class:`StoreError`.
* the **weights fingerprint** — the current weights at save time, plus the
  save-time graph ``version`` (epoch).  On load these drive the staleness
  tiers (cheapest first):

  1. weights fingerprint matches → nothing changed; the stored skeleton
     is adopted as-is.
  2. the live graph's version is ahead of the save epoch (same lineage,
     e.g. a long-running process reloading its own store) →
     ``edges_changed_since(epoch)`` yields exactly the candidate edges;
     only those are weight-compared.
  3. otherwise (different lineage, e.g. a replayed graph) → per-edge
     compare of stored current weight vs live weight.

  Differing edges are refreshed through the normal maintenance path
  (one :meth:`~repro.core.dtlp.DTLP.handle_updates` round), which recomputes
  exactly the bounding-path distances the changes touched.  Either way the
  expensive part of a build — the bounding-path searches — never reruns,
  which is where the O(load) cold start comes from.

Every file is written to a sibling temp file, fsynced, moved into place with
``os.replace`` and its directory fsynced, and the manifest goes last: a save
that dies midway, or a host that crashes, leaves each file absent, in its
previous version or complete — never half-written — and a directory without
a manifest is not a store (:meth:`PartitionStore.exists`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..core.dtlp import DTLP, DTLPConfig
from ..core.skeleton import SkeletonGraph
from ..core.subgraph_index import SubgraphIndex
from ..graph.errors import ReproError
from ..graph.graph import DynamicGraph, WeightUpdate, edge_key
from ..graph.partition import GraphPartition
from ..graph.subgraph import Subgraph

__all__ = [
    "PartitionStore",
    "StoreError",
    "graph_structure_fingerprint",
    "graph_weights_fingerprint",
    "load_or_build",
    "write_partition_files",
]

FORMAT_VERSION = 1
_MANIFEST = "manifest.json"
_NODE_MAP = "node_map.json"
_SKELETON = "skeleton.json"


class StoreError(ReproError):
    """A partition store is missing, malformed or does not match the graph."""


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def _canonical_edges(graph: DynamicGraph) -> List[Tuple[int, int]]:
    if graph.directed:
        keys = {(u, v) for u, v, _ in graph.edges()}
    else:
        keys = {edge_key(u, v) for u, v, _ in graph.edges()}
    return sorted(keys)


def graph_structure_fingerprint(graph: DynamicGraph) -> str:
    """Hash of the graph's *stable* identity: vertices, edges, initial weights.

    Stable across python hash seeds because every collection is visited in
    sorted order (the same determinism contract the partitioners follow),
    so a store written by one process validates in any other.
    """
    hasher = hashlib.sha256()
    hasher.update(b"directed:1;" if graph.directed else b"directed:0;")
    for vertex in sorted(graph.vertices()):
        hasher.update(b"v%d;" % vertex)
    for u, v in _canonical_edges(graph):
        hasher.update(
            ("e%d,%d,%r;" % (u, v, graph.initial_weight(u, v))).encode("ascii")
        )
    return hasher.hexdigest()


def graph_weights_fingerprint(graph: DynamicGraph) -> str:
    """Hash of the graph's current weights (sorted canonical edge order)."""
    hasher = hashlib.sha256()
    for u, v in _canonical_edges(graph):
        hasher.update(("w%d,%d,%r;" % (u, v, graph.weight(u, v))).encode("ascii"))
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# JSON helpers
# ----------------------------------------------------------------------
def _write_json(path: Path, payload: object) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, "w", encoding="ascii") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    # The rename is durable only once the directory entry is.
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _read_json(path: Path) -> object:
    try:
        return json.loads(path.read_text(encoding="ascii"))
    except FileNotFoundError:
        raise StoreError(f"store file missing: {path}") from None
    except ValueError as exc:
        raise StoreError(f"store file corrupt: {path}: {exc}") from None


# ----------------------------------------------------------------------
# local-id remapping
# ----------------------------------------------------------------------
def _remap_index_state(
    state: Dict[str, object], mapping: Mapping[int, int]
) -> Dict[str, object]:
    """Rewrite every vertex id in an index snapshot through ``mapping``."""
    remapped = dict(state)
    remapped["paths"] = [
        [path_id, mapping[source], mapping[target],
         [mapping[v] for v in vertices], vfrags, distance]
        for path_id, source, target, vertices, vfrags, distance in state["paths"]
    ]
    remapped["pairs"] = [
        [mapping[u], mapping[v], path_ids]
        for u, v, path_ids in state["pairs"]
    ]
    return remapped


def write_partition_files(
    part_dir, subgraph: Subgraph, index: SubgraphIndex
) -> None:
    """Write one ``part<k>/`` directory (nodes, edges, index in local ids).

    Module-level (not a method) so the parallel build path
    (:func:`repro.distributed.engine.distributed_build_report` with a
    ``store_dir``) can ship it to executor workers, each writing its own
    partition directory.
    """
    part_dir = Path(part_dir)
    part_dir.mkdir(parents=True, exist_ok=True)
    nodes = sorted(subgraph.vertices)
    to_local = {vertex: local for local, vertex in enumerate(nodes)}
    parent = subgraph.parent
    edges = sorted(
        [to_local[u], to_local[v],
         parent.initial_weight(u, v), parent.weight(u, v)]
        for u, v in subgraph.edge_set
    )
    _write_json(
        part_dir / "nodes.json",
        {
            "nodes": nodes,
            "boundary": sorted(to_local[v] for v in subgraph.boundary_vertices),
        },
    )
    _write_json(part_dir / "edges.json", edges)
    _write_json(
        part_dir / "index.json",
        _remap_index_state(index.export_state(), to_local),
    )


class PartitionStore:
    """Reader/writer for one on-disk partition store directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._manifest: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    @property
    def manifest(self) -> Dict[str, object]:
        """The parsed manifest (cached after the first read)."""
        if self._manifest is None:
            manifest = _read_json(self.root / _MANIFEST)
            if not isinstance(manifest, dict):
                raise StoreError(f"manifest is not an object: {self.root}")
            if manifest.get("format_version") != FORMAT_VERSION:
                raise StoreError(
                    f"unsupported store format {manifest.get('format_version')!r} "
                    f"in {self.root} (expected {FORMAT_VERSION})"
                )
            self._manifest = manifest
        return self._manifest

    def exists(self) -> bool:
        """Whether ``root`` holds a loadable manifest."""
        return (self.root / _MANIFEST).is_file()

    @property
    def num_partitions(self) -> int:
        """Number of ``part<k>/`` directories the manifest declares."""
        return int(self.manifest["num_partitions"])

    def config(self) -> DTLPConfig:
        """The DTLP configuration the store was built with.

        Keys that are no longer ``DTLPConfig`` fields are dropped, so a store
        written before an option was retired still loads.
        """
        known = {field.name for field in fields(DTLPConfig)}
        stored = self.manifest["config"]
        return DTLPConfig(**{key: stored[key] for key in stored if key in known})

    def partition_path(self, part_id: int) -> Path:
        """Directory of one partition's files."""
        return self.root / f"part{part_id}"

    def partition_paths(self) -> List[Path]:
        """All partition directories, in partition-id order."""
        return [self.partition_path(i) for i in range(self.num_partitions)]

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------
    @classmethod
    def save(cls, dtlp: DTLP, root, *, parts_written: bool = False) -> "PartitionStore":
        """Persist a built DTLP (partition + first-level indexes) to ``root``.

        The write follows DGL's layout: ``node_map.json`` maps every vertex
        to its *home* partition (the smallest subgraph id containing it;
        boundary vertices appear in several ``part<k>/nodes.json`` files but
        have exactly one home) and each partition directory is
        self-contained in local ids.  ``parts_written=True`` skips the
        per-partition files — the parallel build path writes them from its
        workers and only needs the manifest, node map and skeleton here.
        """
        if not dtlp.built:
            raise StoreError("cannot save an unbuilt DTLP")
        store = cls(root)
        store.root.mkdir(parents=True, exist_ok=True)
        graph = dtlp.graph
        partition = dtlp.partition
        if not parts_written:
            for subgraph in partition.subgraphs:
                write_partition_files(
                    store.partition_path(subgraph.subgraph_id),
                    subgraph,
                    dtlp.subgraph_index(subgraph.subgraph_id),
                )
        node_map = [
            [vertex, min(partition.subgraphs_of_vertex(vertex))]
            for vertex in sorted(graph.vertices())
        ]
        _write_json(store.root / _NODE_MAP, node_map)
        skeleton = dtlp.skeleton_graph
        _write_json(
            store.root / _SKELETON,
            {"edges": sorted([u, v, w] for u, v, w in skeleton.edges())},
        )
        manifest = {
            "format_version": FORMAT_VERSION,
            "structure_fingerprint": graph_structure_fingerprint(graph),
            "weights_fingerprint": graph_weights_fingerprint(graph),
            "epoch": graph.version,
            "directed": graph.directed,
            "num_partitions": partition.num_subgraphs,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "num_boundary_vertices": len(partition.boundary_vertices),
            "config": asdict(dtlp.config),
        }
        _write_json(store.root / _MANIFEST, manifest)
        store._manifest = manifest
        return store

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def load_graph(self) -> DynamicGraph:
        """Reconstruct the saved graph purely from the store's files.

        Edges come back with their original *initial* weights (so vfrag
        counts and the structure fingerprint are preserved exactly) and one
        update batch restores the save-time current weights — after which
        the store's weights fingerprint matches and :meth:`load` takes the
        tier-1 no-refresh path.  This is how process replicas cold-start
        from a shipped store path without a pickled graph.
        """
        from ..graph.graph import DirectedDynamicGraph

        directed = bool(self.manifest["directed"])
        graph = DirectedDynamicGraph() if directed else DynamicGraph()
        for vertex, _home in _read_json(self.root / _NODE_MAP):
            graph.add_vertex(int(vertex))
        restore: List[WeightUpdate] = []
        for part_dir in self.partition_paths():
            node_state = _read_json(part_dir / "nodes.json")
            to_global = [int(v) for v in node_state["nodes"]]
            for lu, lv, initial, current in _read_json(part_dir / "edges.json"):
                u, v = to_global[lu], to_global[lv]
                graph.add_edge(u, v, float(initial))
                if current != initial:
                    restore.append(WeightUpdate(u, v, float(current)))
        if restore:
            graph.apply_updates(restore)
        return graph

    def stale_updates(self, graph: DynamicGraph) -> List[WeightUpdate]:
        """Edges whose live weight differs from the stored current weight.

        The catch-up batch a master computes when shipping this store's
        path to replicas: applying these updates to a replica that loaded
        the store brings its weights to the master's.  Uses the same
        staleness tiers as :meth:`load`.
        """
        self._validate_structure(graph)
        if self.manifest["weights_fingerprint"] == graph_weights_fingerprint(graph):
            return []
        candidates = self._stale_candidates(graph)
        stale: List[WeightUpdate] = []
        for part_dir in self.partition_paths():
            node_state = _read_json(part_dir / "nodes.json")
            to_global = [int(v) for v in node_state["nodes"]]
            for lu, lv, _, stored_weight in _read_json(part_dir / "edges.json"):
                u, v = to_global[lu], to_global[lv]
                if candidates is not None:
                    key = (u, v) if graph.directed else edge_key(u, v)
                    if key not in candidates:
                        continue
                live_weight = graph.weight(u, v)
                if live_weight != stored_weight:
                    stale.append(WeightUpdate(u, v, live_weight))
        return stale

    def _validate_structure(self, graph: DynamicGraph) -> None:
        expected = self.manifest["structure_fingerprint"]
        actual = graph_structure_fingerprint(graph)
        if actual != expected:
            raise StoreError(
                f"store {self.root} was built for a different graph "
                f"(structure fingerprint {expected[:12]}… != {actual[:12]}…)"
            )

    def _stale_candidates(self, graph: DynamicGraph) -> Optional[Set[Tuple[int, int]]]:
        """Canonical keys of edges that *may* be stale, or ``None`` for all.

        Implements the tier-2 fast path: when the live graph's version is
        ahead of the save epoch (same lineage), only edges changed after
        the epoch can differ from their stored weights.  Returns ``None``
        when the lineages diverged and every edge must be compared.
        """
        epoch = int(self.manifest["epoch"])
        if graph.version <= epoch:
            return None
        return {
            (u, v) if graph.directed else edge_key(u, v)
            for u, v, _ in graph.edges_changed_since(epoch)
        }

    def _read_partition(
        self,
        graph: DynamicGraph,
        part_id: int,
        candidates: Optional[Set[Tuple[int, int]]],
        compare: bool,
    ) -> Tuple[Subgraph, SubgraphIndex, List[WeightUpdate]]:
        """Load one partition and collect its stale-edge refresh batch.

        ``compare=False`` skips staleness detection entirely (tier 1);
        ``candidates`` restricts the weight compare to the given canonical
        keys (tier 2); ``candidates=None`` with ``compare=True`` compares
        every edge (tier 3).  The returned updates are **not yet applied**
        — the caller routes them through the maintenance path once the
        index is installed.
        """
        part_dir = self.partition_path(part_id)
        node_state = _read_json(part_dir / "nodes.json")
        edges = _read_json(part_dir / "edges.json")
        to_global = [int(v) for v in node_state["nodes"]]
        subgraph = Subgraph(
            part_id,
            graph,
            to_global,
            [(to_global[lu], to_global[lv]) for lu, lv, _, _ in edges],
        )
        subgraph.set_boundary_vertices(
            to_global[local] for local in node_state["boundary"]
        )
        state = _remap_index_state(
            _read_json(part_dir / "index.json"),
            dict(enumerate(to_global)),
        )
        index = SubgraphIndex.from_state(subgraph, state)
        stale: List[WeightUpdate] = []
        if compare:
            for lu, lv, _, stored_weight in edges:
                u, v = to_global[lu], to_global[lv]
                if candidates is not None:
                    key = (u, v) if graph.directed else edge_key(u, v)
                    if key not in candidates:
                        continue
                live_weight = graph.weight(u, v)
                if live_weight != stored_weight:
                    stale.append(WeightUpdate(u, v, live_weight))
        return subgraph, index, stale

    def load(self, graph: DynamicGraph) -> DTLP:
        """Restore a built DTLP against the live ``graph``.

        Validates the structure fingerprint, restores every partition and
        first-level index, applies the staleness tiers described in the
        module docstring, and assembles the DTLP — adopting the stored
        skeleton when no edge was stale, otherwise refreshing through the
        normal maintenance path.  Keys of ``skeleton.json`` other than
        ``edges`` (older stores wrote more) are ignored.
        """
        self._validate_structure(graph)
        manifest = self.manifest
        config = replace(self.config(), directed=graph.directed)
        compare = manifest["weights_fingerprint"] != graph_weights_fingerprint(graph)
        candidates = self._stale_candidates(graph) if compare else None
        subgraphs: List[Subgraph] = []
        indexes: Dict[int, SubgraphIndex] = {}
        stale: List[WeightUpdate] = []
        for part_id in range(self.num_partitions):
            subgraph, index, part_stale = self._read_partition(
                graph, part_id, candidates, compare
            )
            subgraphs.append(subgraph)
            indexes[part_id] = index
            stale.extend(part_stale)
        partition = GraphPartition(graph, subgraphs)
        skeleton_state = _read_json(self.root / _SKELETON)
        skeleton: Optional[SkeletonGraph] = None
        if not stale:
            skeleton = SkeletonGraph(directed=graph.directed)
            for vertex in partition.boundary_vertices:
                skeleton.add_vertex(vertex)
            for u, v, w in skeleton_state["edges"]:
                skeleton.set_edge(int(u), int(v), float(w))
        dtlp = DTLP.assemble(graph, config, partition, indexes, skeleton=skeleton)
        if stale:
            # Boundary-pair distances and skeleton edges touched by the
            # changed weights refresh through the normal Algorithm 2 path.
            dtlp.handle_updates(stale)
        return dtlp


def load_or_build(
    graph: DynamicGraph,
    config: DTLPConfig,
    store_dir,
    *,
    num_workers: int = 4,
    executor=None,
) -> Tuple[DTLP, bool]:
    """Load a DTLP from ``store_dir`` if valid, else build one and save it.

    Returns ``(dtlp, loaded)`` where ``loaded`` says whether the store was
    used.  A store that exists but does not match the graph's structure or
    the requested configuration is rebuilt and overwritten rather than
    rejected — the CLI's ``--store`` contract.  ``executor`` optionally
    parallelises a fresh build (and its per-partition file writes) via
    :func:`repro.distributed.engine.distributed_build_report`.
    """
    expected_config = replace(config, directed=graph.directed)
    store = PartitionStore(store_dir)
    if store.exists():
        try:
            if store.config() == expected_config:
                return store.load(graph), True
        except (StoreError, TypeError, KeyError):
            pass
    if executor is not None and executor != "serial":
        from ..distributed.engine import distributed_build_report

        report = distributed_build_report(
            graph,
            expected_config,
            num_workers=num_workers,
            executor=executor,
            store_dir=store_dir,
        )
        dtlp = report.dtlp
        PartitionStore.save(dtlp, store_dir, parts_written=True)
    else:
        dtlp = DTLP(graph, expected_config).build()
        PartitionStore.save(dtlp, store_dir)
    return dtlp, False
