"""Figure 19: DTLP maintenance cost, directed vs undirected, with varying z.

The paper applies a heavy update batch (alpha=50%, tau=50%) to CUSA and
measures the time to refresh the DTLP index, for several z values and for
both the undirected and directed variants; the directed index costs roughly
twice as much to maintain.

Paper map: ``docs/paper_map.md`` ties every benchmark to its figure/table.
"""

from __future__ import annotations

import pytest

from repro.bench import build_dataset, print_experiment
from repro.core import DTLP, DTLPConfig
from repro.dynamics import TrafficModel


@pytest.mark.paper_figure("fig19")
def test_fig19_maintenance_directed_vs_undirected(scale, benchmark, maintenance_seconds):
    name = "CUSA" if "CUSA" in scale.datasets else scale.datasets[-1]
    graph_scale = min(scale.graph_scale, 0.5)
    rows = []
    timings = {}
    for directed in (False, True):
        graph = build_dataset(name, scale=graph_scale, directed=directed).snapshot()
        for z in scale.z_values[name][:2]:
            dtlp = DTLP(graph, DTLPConfig(z=z, xi=5)).build()
            model = TrafficModel(graph, alpha=0.5, tau=0.5, seed=17)
            updates = model.generate_updates()
            elapsed = maintenance_seconds(graph, dtlp, updates)
            label = "directed" if directed else "undirected"
            rows.append([label, z, len(updates), round(elapsed, 4)])
            timings[(label, z)] = elapsed

    def kernel():
        graph = build_dataset(name, scale=graph_scale, directed=False).snapshot()
        dtlp = DTLP(graph, DTLPConfig(z=scale.z_values[name][0], xi=5)).build()
        updates = TrafficModel(graph, alpha=0.5, tau=0.5, seed=17).advance()
        return dtlp.handle_updates(updates)

    benchmark.pedantic(kernel, rounds=1, iterations=1)

    print_experiment(
        f"Figure 19: DTLP maintenance cost ({name}, alpha=50%, tau=50%, scaled)",
        ["graph type", "z", "#updates", "maintenance time (s)"],
        rows,
        notes="paper: directed maintenance costs roughly 2x the undirected one",
    )
    for z in scale.z_values[name][:2]:
        assert timings[("directed", z)] >= timings[("undirected", z)] * 0.8, (
            "directed maintenance should not be cheaper than undirected"
        )
