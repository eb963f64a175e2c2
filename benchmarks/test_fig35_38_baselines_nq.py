"""Figures 35-38: KSP-DG vs FindKSP vs Yen, scalability in the number of queries.

The paper compares the total processing time of the three algorithms as the
query batch grows, per dataset.  KSP-DG runs distributed on the cluster; the
two centralized baselines are replicated on every server with queries spread
across servers.  KSP-DG wins with a lower growth rate, and the gap widens on
larger graphs.

The scaled version uses the simulated cluster (4 workers) for KSP-DG and the
parallel-makespan model with the same number of servers for the baselines.

Paper map: ``docs/paper_map.md`` ties every benchmark to its figure/table.
"""

from __future__ import annotations

import pytest

from repro.bench import DATASET_DEFAULT_Z, build_dataset, make_queries, print_experiment
from repro.core import DTLP, DTLPConfig
from repro.distributed import StormTopology
from repro.workloads import BatchRunner, FindKSPEngine, YenEngine

NUM_SERVERS = 4


@pytest.mark.paper_figure("fig35-38")
def test_fig35_38_baseline_comparison_vs_nq(scale, benchmark):
    rows = []
    wins = 0
    comparisons = 0
    for name in scale.datasets:
        graph = build_dataset(name, scale=scale.graph_scale)
        dtlp = DTLP(graph, DTLPConfig(z=DATASET_DEFAULT_Z[name], xi=3)).build()
        # pruning=False for the same reason the baselines pass
        # prune=False: the figure compares the paper's algorithms, and the
        # cross-query memo would let later (larger) batches run warm.
        topology = StormTopology(dtlp, num_workers=NUM_SERVERS, pruning=False)
        for batch_size in scale.num_query_batches:
            queries = make_queries(graph, batch_size, k=2, seed=61)
            ksp_dg_report = topology.run_queries(queries)
            yen_report = BatchRunner(YenEngine(graph, prune=False), num_servers=NUM_SERVERS).run(queries)
            findksp_report = BatchRunner(
                FindKSPEngine(graph, prune=False), num_servers=NUM_SERVERS
            ).run(queries)
            rows.append(
                [
                    name,
                    batch_size,
                    round(ksp_dg_report.makespan_seconds, 4),
                    round(findksp_report.parallel_seconds, 4),
                    round(yen_report.parallel_seconds, 4),
                ]
            )
            comparisons += 1
            if ksp_dg_report.makespan_seconds <= yen_report.parallel_seconds:
                wins += 1

    name = scale.datasets[0]

    def kernel():
        graph = build_dataset(name, scale=scale.graph_scale)
        queries = make_queries(graph, scale.num_query_batches[0], k=2, seed=61)
        return BatchRunner(YenEngine(graph, prune=False), num_servers=NUM_SERVERS).run(queries)

    benchmark.pedantic(kernel, rounds=1, iterations=1)

    print_experiment(
        f"Figures 35-38: KSP-DG vs FindKSP vs Yen, time vs Nq (k=2, xi=3, {NUM_SERVERS} servers, scaled)",
        ["dataset", "Nq", "KSP-DG (s)", "FindKSP (s)", "Yen (s)"],
        rows,
        notes=(
            "paper: KSP-DG outperforms both baselines with a lower growth rate. "
            f"At this reduced scale KSP-DG won {wins}/{comparisons} configurations — "
            "on graphs this small a full-graph Yen query is already cheap, so the "
            "crossover the paper reports requires larger graphs (see docs/paper_map.md)."
        ),
    )
    # Sanity checks: every engine produced timings, and both KSP-DG and Yen
    # grow with the batch size (the growth-rate comparison is reported above).
    assert rows
    per_dataset = {}
    for name, batch_size, ksp_dg_time, _, yen_time in rows:
        per_dataset.setdefault(name, []).append((batch_size, ksp_dg_time, yen_time))
    for name, series in per_dataset.items():
        series.sort()
        assert series[-1][1] >= series[0][1], f"{name}: KSP-DG time should grow with Nq"
        assert series[-1][2] >= series[0][2], f"{name}: Yen time should grow with Nq"
