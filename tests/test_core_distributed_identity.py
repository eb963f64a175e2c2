"""KSP-DG answers the same, in the same number of rounds, wherever it runs.

``KSPDG.query`` (in-process) and ``StormTopology.run_queries`` (spout →
QueryBolt → SubgraphBolts) both evaluate a query with
``repro.core.ksp_dg.KSPDGQuery.run``; they differ only in where the partial
paths of the refine step are solved.  This suite pins that: identical paths
(vertices and distances) *and* identical iteration counts on random
connected graphs — directed and undirected, integer weights so ties are
common — before and after a random weight-update round, on the
``snapshot`` and ``dict`` kernels with pruning on and off.  A second copy of
the loop drifting from the first shows up here as a differing iteration
count long before it shows up as a wrong distance.

Derandomized hypothesis with a fixed example budget and no example
database, so tier-1 runs are repeatable.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DTLP, DTLPConfig, KSPDG
from repro.distributed import StormTopology
from repro.graph import random_graph, road_network
from repro.graph.graph import WeightUpdate
from repro.workloads import KSPQuery

FIXED_BUDGET = dict(
    max_examples=12,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
MODES = [
    (kernel, pruning) for kernel in ("snapshot", "dict") for pruning in (True, False)
]


@st.composite
def networks(draw):
    """A random connected integer-weight graph, its ``z`` and an rng seed."""
    num_vertices = draw(st.integers(min_value=8, max_value=24))
    extra_edges = draw(st.integers(min_value=0, max_value=num_vertices))
    graph = random_graph(
        num_vertices,
        num_vertices - 1 + extra_edges,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        directed=draw(st.booleans()),
    )
    return graph, max(4, num_vertices // 3), draw(st.integers(0, 10_000))


def assert_topology_matches_engine(dtlp, queries):
    for kernel, pruning in MODES:
        engine = KSPDG(dtlp, kernel=kernel, pruning=pruning)
        with StormTopology(
            dtlp, num_workers=3, kernel=kernel, pruning=pruning, executor="serial"
        ) as topology:
            routed = topology.run_queries(queries).results
        for query, result in zip(queries, routed):
            local = engine.query(query.source, query.target, query.k)
            assert result.paths == local.paths, (kernel, pruning, query)
            assert result.iterations == local.iterations, (kernel, pruning, query)


@given(network=networks(), k=st.integers(min_value=1, max_value=4))
@settings(**FIXED_BUDGET)
def test_topology_matches_engine_in_paths_and_iterations(network, k):
    graph, z, seed = network
    dtlp = DTLP(graph, DTLPConfig(z=z, xi=2)).build().attach()
    rng = random.Random(seed)
    vertices = sorted(graph.vertices())
    queries = [
        KSPQuery(query_id=index, source=source, target=target, k=k)
        for index, (source, target) in enumerate(
            rng.sample(vertices, 2) for _ in range(4)
        )
    ]
    assert_topology_matches_engine(dtlp, queries)
    edges = [(u, v) for u, v, _ in graph.edges()]
    graph.apply_updates(
        [
            WeightUpdate(u, v, graph.initial_weight(u, v) * rng.choice((1, 2, 3)))
            for u, v in rng.sample(edges, max(1, len(edges) // 3))
        ]
    )
    assert_topology_matches_engine(dtlp, queries)


def test_same_endpoint_query_is_the_trivial_path_on_both():
    graph = road_network(6, 6, seed=3)
    dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
    boundary = min(dtlp.partition.boundary_vertices)
    interior = min(set(graph.vertices()) - set(dtlp.partition.boundary_vertices))
    queries = [
        KSPQuery(query_id=index, source=vertex, target=vertex, k=2)
        for index, vertex in enumerate((boundary, interior))
    ]
    with StormTopology(dtlp, num_workers=2, executor="serial") as topology:
        routed = topology.run_queries(queries).results
    for query, result in zip(queries, routed):
        local = KSPDG(dtlp).query(query.source, query.target, query.k)
        assert [path.vertices for path in local.paths] == [(query.source,)]
        assert (result.paths, result.iterations) == (local.paths, local.iterations)
