"""Figure 21: update throughput and per-update latency vs graph size Ng.

The paper streams 1000 rounds of weight changes (half of the edges each) and
reports the maximum sustained throughput (edges/s) and the average per-update
latency, observing that both are largely insensitive to the graph size.  The
scaled version streams fewer rounds but reports the same two series.

Paper map: ``docs/paper_map.md`` ties every benchmark to its figure/table.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.bench import print_experiment
from repro.core import DTLP, DTLPConfig
from repro.dynamics import TrafficModel
from repro.graph import road_network


def _attached_round_seconds(graph, dtlp, updates) -> float:
    """The route an attached replica pays for one round: the graph applies
    it with the index listening, then the first search image and subgraph
    snapshot reads take what the round left them."""
    started = time.perf_counter()
    graph.apply_updates(updates)
    dtlp.skeleton_search_view()
    for subgraph_id in range(dtlp.partition.num_subgraphs):
        dtlp.subgraph_snapshot(subgraph_id)
    return time.perf_counter() - started


@pytest.mark.paper_figure("fig21")
def test_fig21_update_throughput_and_latency(scale, benchmark):
    sides = (10, 14, 18, 22) if scale.name == "quick" else (12, 17, 22, 27)
    rounds = 3 if scale.name == "quick" else 10
    rows = []
    throughputs = []
    attached_throughputs = []
    for side in sides:
        graph = road_network(side, side, seed=37)
        dtlp = DTLP(graph, DTLPConfig(z=32, xi=10)).build()
        twin_graph, twin = pickle.loads(pickle.dumps((graph, dtlp)))
        model = TrafficModel(graph, alpha=0.5, tau=0.5, seed=19)
        total_updates = 0
        total_seconds = 0.0
        for _ in range(rounds):
            updates = model.advance()
            total_updates += len(updates)
            total_seconds += dtlp.handle_updates(updates)
        throughput = total_updates / total_seconds if total_seconds else float("inf")
        latency_us = (total_seconds / total_updates) * 1e6 if total_updates else 0.0
        throughputs.append(throughput)

        # The same rounds on an attached twin whose kernel views exist.
        twin.attach()
        twin.skeleton_search_view()
        for subgraph_id in range(twin.partition.num_subgraphs):
            twin.subgraph_snapshot(subgraph_id)
        twin_model = TrafficModel(twin_graph, alpha=0.5, tau=0.5, seed=19)
        attached_seconds = sum(
            _attached_round_seconds(twin_graph, twin, twin_model.generate_updates())
            for _ in range(rounds)
        )
        attached = total_updates / attached_seconds if attached_seconds else float("inf")
        attached_throughputs.append(attached)
        rows.append(
            [graph.num_vertices, total_updates, round(throughput, 1), round(latency_us, 1),
             round(attached, 1)]
        )

    def kernel():
        graph = road_network(sides[0], sides[0], seed=37)
        dtlp = DTLP(graph, DTLPConfig(z=32, xi=10)).build()
        updates = TrafficModel(graph, alpha=0.5, tau=0.5, seed=19).advance()
        return dtlp.handle_updates(updates)

    benchmark.pedantic(kernel, rounds=1, iterations=1)

    print_experiment(
        "Figure 21: update throughput and per-update latency vs graph size (xi=10, alpha=50%)",
        ["Ng (vertices)", "#updates applied", "throughput (edges/s)", "latency (us/update)",
         "attached route (edges/s)"],
        rows,
        notes="paper: throughput ~8k-12k edges/s and latency ~70-90us, roughly flat in Ng; "
        "the attached route adds the graph write and the first kernel-view reads",
    )
    # Throughput should not collapse as the graph grows (same order of
    # magnitude), on either route.
    assert max(throughputs) / max(min(throughputs), 1e-9) < 50
    assert max(attached_throughputs) / max(min(attached_throughputs), 1e-9) < 50
