"""Partition quality and cold start: min-cut vs BFS, store load vs rebuild.

Not a paper figure — the paper's Section 3.3 partitions with arbitrary-start
BFS and never revisits the choice, but everything downstream scales with
the quantity that partitioner ignores: boundary vertices drive DTLP index
size, CANDS table builds and every boundary-pair search a query performs.
This benchmark measures that leverage on a clustered road network (city
grids joined by sparse highways — the two-scale structure of the paper's
continental datasets, where partition quality actually matters; uniform
grids cap any partitioner's gap at around ten percent):

* **boundary vertices** — ``partition_mincut`` (multilevel heavy-edge
  coarsening + KL/FM refinement) vs the paper's ``partition_graph`` BFS at
  the same ``z``.  Acceptance floor: at least a 25% reduction.
* **KSP-DG batch throughput** — the same query batch over a DTLP built on
  each partition; distances asserted identical first (answers are a
  function of the graph, not the partition).
* **cold start** — ``PartitionStore`` load vs full partition + DTLP
  rebuild, answers asserted identical.  Acceptance floor: load at least
  2x faster — the contract of ``repro.store`` is "a load is O(load) and
  cheaper than a rebuild", not a fixed ratio against a slow build: the
  index-space bounding-path search (PR 22) took the rebuild side from
  ~140 ms to ~48 ms with the load side unchanged at ~11.5 ms, so the ratio
  went 12x -> 4.2x while nothing about the store moved.

Paper map: ``docs/paper_map.md`` ties every benchmark to its figure/table.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import print_experiment
from repro.core import DTLP, DTLPConfig
from repro.distributed import StormTopology
from repro.graph import clustered_road_network, partition_graph, partition_mincut
from repro.store import PartitionStore
from repro.workloads import QueryGenerator


def _run_batch(dtlp, queries):
    """One cold serial KSP-DG batch; returns (wall seconds, signature)."""
    topology = StormTopology(dtlp, num_workers=4)
    with topology:
        started = time.perf_counter()
        report = topology.run_queries(queries)
        elapsed = time.perf_counter() - started
    signature = [
        [(path.vertices, path.distance) for path in result.paths]
        for result in report.results
    ]
    return elapsed, signature


@pytest.mark.paper_figure("partition")
def test_partition_quality(scale, benchmark, tmp_path) -> None:
    if scale.name == "quick":
        clusters_per_side, rows, cols, z = 3, 8, 8, 64
    else:
        clusters_per_side, rows, cols, z = 4, 10, 10, 100
    xi = 3
    graph = clustered_road_network(
        clusters_per_side=clusters_per_side,
        cluster_rows=rows,
        cluster_cols=cols,
        seed=7,
    )
    queries = QueryGenerator(graph, seed=11, min_hops=4).generate(16, k=3)

    # --- boundary-vertex counts at equal z --------------------------------
    bfs_partition = partition_graph(graph, z)
    mincut_partition = partition_mincut(graph, z)
    bfs_boundary = len(bfs_partition.boundary_vertices)
    mincut_boundary = len(mincut_partition.boundary_vertices)
    reduction = 1.0 - mincut_boundary / bfs_boundary

    # --- KSP-DG batch, same queries, each partition -----------------------
    timings = {}
    signatures = {}
    dtlps = {}
    for name in ("bfs", "mincut"):
        dtlp = DTLP(graph, DTLPConfig(z=z, xi=xi, partitioner=name)).build()
        dtlps[name] = dtlp
        timings[name], signatures[name] = _run_batch(dtlp, queries)

    # Identity first: the partition must not change what queries return.
    bfs_distances = [[d for _, d in result] for result in signatures["bfs"]]
    mincut_distances = [[d for _, d in result] for result in signatures["mincut"]]
    assert mincut_distances == bfs_distances, "partitioner changed query distances"

    # --- cold start: store load vs full rebuild ---------------------------
    store_root = tmp_path / "store"
    PartitionStore.save(dtlps["mincut"], store_root)

    started = time.perf_counter()
    rebuilt = DTLP(graph, DTLPConfig(z=z, xi=xi, partitioner="mincut")).build()
    rebuild_seconds = time.perf_counter() - started

    started = time.perf_counter()
    loaded = PartitionStore(store_root).load(graph)
    load_seconds = time.perf_counter() - started

    _, rebuilt_signature = _run_batch(rebuilt, queries)
    _, loaded_signature = _run_batch(loaded, queries)
    assert loaded_signature == rebuilt_signature, "store load changed answers"

    benchmark.pedantic(
        lambda: PartitionStore(store_root).load(graph), rounds=1, iterations=1
    )

    print_experiment(
        f"Partition quality at z={z} on a clustered road network "
        f"({graph.num_vertices} vertices, {graph.num_edges} edges, "
        f"{clusters_per_side}x{clusters_per_side} cities)",
        ["metric", "bfs", "mincut", "change"],
        [
            [
                "boundary vertices",
                bfs_boundary,
                mincut_boundary,
                f"-{reduction:.0%}",
            ],
            [
                "partitions",
                bfs_partition.num_subgraphs,
                mincut_partition.num_subgraphs,
                "",
            ],
            [
                f"KSP-DG batch of {len(queries)} (ms)",
                round(timings["bfs"] * 1e3, 1),
                round(timings["mincut"] * 1e3, 1),
                f"{timings['bfs'] / timings['mincut']:.2f}x",
            ],
            [
                "cold start (ms)",
                round(rebuild_seconds * 1e3, 1),
                round(load_seconds * 1e3, 1),
                f"{rebuild_seconds / load_seconds:.2f}x (store load)",
            ],
        ],
        notes="identical distances asserted between partitions and identical "
        "answers between store load and fresh rebuild before any timing is "
        "trusted; cold start compares a full partition+DTLP build against "
        "PartitionStore.load on the saved index",
    )

    # Acceptance floors (ISSUE 8).
    assert reduction >= 0.25, (
        f"min-cut boundary reduction {reduction:.0%} below the 25% floor "
        f"({bfs_boundary} -> {mincut_boundary})"
    )
    assert rebuild_seconds / load_seconds >= 2.0, (
        f"store cold load only {rebuild_seconds / load_seconds:.1f}x faster "
        f"than a full partition + rebuild (floor: 2x; ~4.2x measured): a load "
        f"must stay O(load) and cheaper than rebuilding"
    )
