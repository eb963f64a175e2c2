"""Figure 22: DTLP maintenance cost with varying xi (number of bounding paths).

The paper applies a heavy update batch (alpha=50%, tau=50%) and measures the
maintenance time for xi from 5 to 30, observing an ascending trend that
flattens once additional bounding paths stop materialising.

Paper map: ``docs/paper_map.md`` ties every benchmark to its figure/table.
"""

from __future__ import annotations

import pytest

from repro.bench import build_dataset, print_experiment
from repro.core import DTLP, DTLPConfig
from repro.dynamics import TrafficModel


@pytest.mark.paper_figure("fig22")
def test_fig22_maintenance_cost_vs_xi(scale, benchmark, maintenance_seconds):
    rows = []
    per_dataset_times = {}
    xi_grid = tuple(scale.xi_values) + ((10,) if 10 not in scale.xi_values else ())
    for name in scale.datasets:
        times = []
        for xi in xi_grid:
            graph = build_dataset(name, scale=scale.graph_scale).snapshot()
            dtlp = DTLP(graph, DTLPConfig(z=scale.z_values[name][1], xi=xi)).build()
            model = TrafficModel(graph, alpha=0.5, tau=0.5, seed=23)
            elapsed = maintenance_seconds(graph, dtlp, model.generate_updates())
            times.append(elapsed)
            rows.append([name, xi, dtlp.statistics().num_bounding_paths, round(elapsed, 4)])
        per_dataset_times[name] = times

    def kernel():
        name = scale.datasets[0]
        graph = build_dataset(name, scale=scale.graph_scale).snapshot()
        dtlp = DTLP(graph, DTLPConfig(z=scale.z_values[name][1], xi=xi_grid[0])).build()
        updates = TrafficModel(graph, alpha=0.5, tau=0.5, seed=23).advance()
        return dtlp.handle_updates(updates)

    benchmark.pedantic(kernel, rounds=1, iterations=1)

    print_experiment(
        "Figure 22: DTLP maintenance time vs xi (alpha=50%, tau=50%, scaled)",
        ["dataset", "xi", "#bounding paths", "maintenance time (s)"],
        rows,
        notes="paper: maintenance cost rises with xi, then flattens",
    )
    for name, times in per_dataset_times.items():
        assert times[-1] >= times[0] * 0.5, (
            f"maintenance time for {name} should not shrink drastically as xi grows"
        )
