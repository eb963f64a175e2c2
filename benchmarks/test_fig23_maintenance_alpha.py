"""Figure 23: DTLP maintenance cost with varying alpha (fraction of changed edges).

The paper fixes xi=10, tau=50% and varies the percentage of edges whose
weight changes per snapshot from 10% to 50%; the maintenance time rises with
alpha because more bounding paths and unit weights must be refreshed.

Paper map: ``docs/paper_map.md`` ties every benchmark to its figure/table.
"""

from __future__ import annotations

import pytest

from repro.bench import build_dataset, print_experiment
from repro.core import DTLP, DTLPConfig
from repro.dynamics import TrafficModel


@pytest.mark.paper_figure("fig23")
def test_fig23_maintenance_cost_vs_alpha(scale, benchmark, maintenance_seconds):
    alpha_grid = (0.1, 0.2, 0.3, 0.4, 0.5)
    rows = []
    per_dataset_times = {}
    for name in scale.datasets:
        times = []
        for alpha in alpha_grid:
            graph = build_dataset(name, scale=scale.graph_scale).snapshot()
            dtlp = DTLP(graph, DTLPConfig(z=scale.z_values[name][1], xi=10)).build()
            model = TrafficModel(graph, alpha=alpha, tau=0.5, seed=29)
            updates = model.generate_updates()
            elapsed = maintenance_seconds(graph, dtlp, updates)
            times.append(elapsed)
            rows.append([name, f"{int(alpha * 100)}%", len(updates), round(elapsed, 4)])
        per_dataset_times[name] = times

    def kernel():
        name = scale.datasets[0]
        graph = build_dataset(name, scale=scale.graph_scale).snapshot()
        dtlp = DTLP(graph, DTLPConfig(z=scale.z_values[name][1], xi=10)).build()
        updates = TrafficModel(graph, alpha=0.3, tau=0.5, seed=29).advance()
        return dtlp.handle_updates(updates)

    benchmark.pedantic(kernel, rounds=1, iterations=1)

    print_experiment(
        "Figure 23: DTLP maintenance time vs alpha (xi=10, tau=50%, scaled)",
        ["dataset", "alpha", "#updates", "maintenance time (s)"],
        rows,
        notes="paper: maintenance time grows with the fraction of changed edges",
    )
    for name, times in per_dataset_times.items():
        assert times[-1] >= times[0], (
            f"maintenance time for {name} should grow from alpha=10% to alpha=50%"
        )
