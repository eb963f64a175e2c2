"""Ablation benchmarks for DTLP's design choices.

These experiments are not figures in the paper; they isolate the design
decisions the paper argues for qualitatively:

* **vfrag bounds vs hop-count bounds** (Section 3.4's two refinements).
  The first-attempt index bounds a path by the sum of the m smallest *edge*
  weights (m = number of edges); DTLP bounds it by the sum of the phi
  smallest *unit* weights (phi = number of vfrags).  The ablation measures
  how much tighter the vfrag bound is on a real subgraph after a traffic
  snapshot — the tighter the bound, the fewer KSP-DG iterations.
* **Partial-path caching across iterations** (Section 5.2's optimisation).
  Compares the number of per-pair Yen computations KSP-DG performs with the
  number it would perform if every iteration recomputed all pairs.

Paper map: ``docs/paper_map.md`` ties every benchmark to its figure/table.
"""

from __future__ import annotations

import pytest

from repro.bench import DATASET_DEFAULT_Z, build_dataset, make_queries, print_experiment
from repro.core import DTLP, DTLPConfig, KSPDG
from repro.dynamics import TrafficModel


@pytest.mark.paper_figure("ablation-bounds")
def test_ablation_vfrag_vs_edge_count_bounds(scale, benchmark):
    name = scale.datasets[0]
    graph = build_dataset(name, scale=scale.graph_scale).snapshot()
    dtlp = DTLP(graph, DTLPConfig(z=DATASET_DEFAULT_Z[name], xi=3)).build()
    graph.add_listener(dtlp.handle_updates)
    TrafficModel(graph, alpha=0.5, tau=0.5, seed=97).advance()

    rows = []
    vfrag_total, hop_total, exact_total = 0.0, 0.0, 0.0
    pairs_checked = 0
    for index in dtlp.subgraph_indexes().values():
        subgraph = index.subgraph
        # Hop-count bound: m smallest edge weights for an m-edge path.
        edge_weights = sorted(weight for _, _, weight in subgraph.edges())
        for pair in list(index.boundary_pairs())[:10]:
            paths = index.bounding_paths(*pair)
            if not paths:
                continue
            first = paths[0]
            hops = len(first.vertices) - 1
            hop_bound = sum(edge_weights[:hops])
            vfrag_bound = index.lower_bound_distance(*pair)
            exact = min(path.distance for path in paths)
            vfrag_total += vfrag_bound
            hop_total += hop_bound
            exact_total += exact
            pairs_checked += 1
        if pairs_checked >= 200:
            break

    benchmark.pedantic(lambda: dtlp.statistics(), rounds=1, iterations=1)

    rows.append(
        [
            pairs_checked,
            round(hop_total / max(exact_total, 1e-9), 3),
            round(vfrag_total / max(exact_total, 1e-9), 3),
        ]
    )
    print_experiment(
        "Ablation: edge-count bound vs vfrag bound tightness (ratio to witness distance)",
        ["#pairs", "hop-count bound ratio", "vfrag bound ratio"],
        rows,
        notes="closer to 1.0 is tighter; the paper's vfrag refinement should dominate",
    )
    assert vfrag_total >= hop_total * 0.99, (
        "the vfrag bound should be at least as tight as the edge-count bound"
    )


@pytest.mark.paper_figure("ablation-cache")
def test_ablation_partial_path_cache(scale, benchmark):
    name = scale.datasets[0]
    graph = build_dataset(name, scale=scale.graph_scale).snapshot()
    dtlp = DTLP(graph, DTLPConfig(z=DATASET_DEFAULT_Z[name], xi=1)).build()
    graph.add_listener(dtlp.handle_updates)
    TrafficModel(graph, alpha=0.3, tau=0.5, seed=101).advance()
    engine = KSPDG(dtlp)
    queries = make_queries(graph, max(4, scale.num_queries // 2), k=4, seed=103)

    with_cache = 0
    without_cache = 0
    for query in queries:
        result = engine.query(query.source, query.target, query.k)
        with_cache += result.partial_computations
        # Without the cache every iteration recomputes every pair of its
        # reference path (one Yen call per subgraph containing the pair).
        for reference in result.reference_paths:
            vertices = reference.vertices
            for index in range(len(vertices) - 1):
                without_cache += max(
                    1,
                    len(
                        dtlp.partition.subgraphs_containing_pair(
                            vertices[index], vertices[index + 1]
                        )
                    ),
                )

    benchmark.pedantic(
        lambda: engine.query(queries[0].source, queries[0].target, queries[0].k),
        rounds=1, iterations=1,
    )
    print_experiment(
        "Ablation: partial-KSP computations with and without cross-iteration caching",
        ["with cache", "without cache (recompute every pair)", "saving"],
        [[with_cache, without_cache,
          f"{(1 - with_cache / max(without_cache, 1)) * 100:.0f}%"]],
        notes="Section 5.2: neighbouring reference paths share pairs, so caching saves most refine work",
    )
    assert with_cache <= without_cache
