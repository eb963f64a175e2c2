"""Figure 20: DTLP build and maintenance time vs graph size Ng.

The paper carves subgraphs of 50k-250k vertices out of COL and shows that
both the construction time and the maintenance time of DTLP grow roughly
linearly with the graph size.  Here the graph sizes are scaled grids of
increasing size, and the figure's statement is asserted as a same-host
ratio: construction seconds *per vertex* at the largest size stay within 2x
of the smallest (1.3x measured, 100 -> 676 vertices), each size timed as
the minimum of three fresh partition + build runs.

Paper map: ``docs/paper_map.md`` ties every benchmark to its figure/table.
"""

from __future__ import annotations

import pytest

from repro.bench import print_experiment
from repro.core import DTLP, DTLPConfig
from repro.dynamics import TrafficModel
from repro.graph import road_network


@pytest.mark.paper_figure("fig20")
def test_fig20_build_and_maintenance_vs_graph_size(scale, benchmark):
    sides = (10, 14, 18, 22, 26) if scale.name == "quick" else (12, 17, 22, 27, 32)
    rows = []
    build_per_vertex = []
    for side in sides:
        graph = road_network(side, side, seed=31)
        build_seconds = float("inf")
        for _ in range(3):
            dtlp = DTLP(graph, DTLPConfig(z=32, xi=5)).build()
            build_seconds = min(build_seconds, dtlp.build_seconds)
        model = TrafficModel(graph, alpha=0.5, tau=0.5, seed=13)
        updates = model.advance()
        maintenance = dtlp.handle_updates(updates)
        rows.append(
            [
                graph.num_vertices,
                graph.num_edges,
                round(build_seconds, 4),
                round(maintenance, 4),
            ]
        )
        build_per_vertex.append(build_seconds / graph.num_vertices)

    def kernel():
        graph = road_network(sides[0], sides[0], seed=31)
        return DTLP(graph, DTLPConfig(z=32, xi=5)).build()

    benchmark.pedantic(kernel, rounds=1, iterations=1)

    print_experiment(
        "Figure 20: DTLP build/maintenance time vs graph size Ng (xi=5, alpha=50%)",
        ["Ng (vertices)", "#edges", "build time (s)", "maintenance time (s)"],
        rows,
        notes="paper: both costs grow roughly linearly with the graph size",
    )
    growth = build_per_vertex[-1] / build_per_vertex[0]
    assert growth <= 2.0, (
        f"build cost per vertex grew {growth:.2f}x from {rows[0][0]} to "
        f"{rows[-1][0]} vertices ({build_per_vertex[0] * 1e3:.3f} -> "
        f"{build_per_vertex[-1] * 1e3:.3f} ms/vertex); Fig. 20 says near-linear "
        "construction, i.e. a roughly constant cost per vertex (ceiling: 2x)"
    )
