"""Overlay ≡ rebuild: the filter step's per-query skeleton view and its bounds.

The array kernels no longer copy and re-flatten the skeleton graph per
query; they lay the query endpoints over a per-epoch image of the shared
skeleton snapshot (:class:`repro.core.skeleton.SkeletonSearchView`) and
bound every reference-path spur search by the exact distance to the target.
The contract is identity with the reference tier,
``CSRSnapshot(skeleton.augmented(...))`` searched unbounded:

* the first paths Yen enumerates on the overlay are the rebuilt snapshot's,
  vertex for vertex — on graphs with **integer weights**, where distance
  ties are everywhere and any divergence in index or row order shows;
* full ``KSPDG.query`` / ``StormTopology.run_queries`` answers, reference
  paths, iteration counts and communication units equal the ``dict`` tier;
* the bounds are admissible under whatever Yen bans.

Hypothesis searches graphs, endpoints and update rounds under a fixed
(derandomized) example budget, so tier-1 runs are repeatable.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import dijkstra
from repro.algorithms.yen import LazyYen
from repro.core import DTLP, DTLPConfig, KSPDG
from repro.core.skeleton import SkeletonSearchView
from repro.distributed import StormTopology
from repro.graph import clustered_road_network, random_graph, road_network
from repro.graph.errors import PathNotFoundError
from repro.graph.graph import WeightUpdate
from repro.kernel import CSRSnapshot
from repro.workloads import KSPQuery

FIXED_BUDGET = dict(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
FIRST_PATHS = 8


@st.composite
def indexed_networks(draw):
    """A built, attached DTLP over an integer-weight network, after 0-2
    rounds of integer-factor weight updates (so ties survive maintenance)."""
    directed = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        graph = clustered_road_network(2, 4, 4, seed=seed, directed=directed)
        z = 16
    else:
        graph = road_network(6, 6, seed=seed, directed=directed)
        z = draw(st.sampled_from((9, 12)))
    dtlp = DTLP(graph, DTLPConfig(z=z, xi=2)).build().attach()
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    edges = [(u, v) for u, v, _ in graph.edges()]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        # A query between rounds builds the shared snapshot and the image,
        # so the next round exercises their refresh, not a first build.
        KSPDG(dtlp).query(*rng.sample(sorted(graph.vertices()), 2), 2)
        graph.apply_updates(
            [
                WeightUpdate(u, v, graph.initial_weight(u, v) * rng.choice((1, 2, 3)))
                for u, v in rng.sample(edges, max(1, len(edges) // 3))
            ]
        )
    return graph, dtlp, rng


def endpoint_pairs(dtlp: DTLP, rng: random.Random) -> List[Tuple[int, int]]:
    """One pair per endpoint class the overlay treats differently."""
    partition = dtlp.partition
    boundary = sorted(partition.boundary_vertices)
    interior = sorted(set(dtlp.graph.vertices()) - set(boundary))
    pairs = [
        tuple(rng.sample(boundary, 2)),  # no attachment at all
        (rng.choice(boundary), rng.choice(interior)),
        (rng.choice(interior), rng.choice(boundary)),
        tuple(rng.sample(interior, 2)),
    ]
    # Two interior vertices of one subgraph: the direct s-t edge.
    subgraph = rng.choice(partition.subgraphs)
    inside = sorted(set(subgraph.vertices) - set(boundary))
    if len(inside) >= 2:
        pairs.append(tuple(rng.sample(inside, 2)))
    # Both endpoints in one id gap of the skeleton: no boundary id between.
    same_gap = [
        (a, b)
        for a, b in zip(interior, interior[1:])
        if not any(a < vertex < b for vertex in boundary)
    ]
    if same_gap:
        low, high = rng.choice(same_gap)
        pairs.append((high, low))
    return pairs


def attachments_of(
    dtlp: DTLP, source: int, target: int
) -> Tuple[Dict[int, Dict[int, float]], Optional[Tuple[int, int, float]]]:
    """Section 5.3 attachments and direct edge, from public pieces only."""
    partition = dtlp.partition
    attachments = {
        endpoint: dtlp.attachment_edges(endpoint, kernel="snapshot")
        for endpoint in (source, target)
        if not partition.is_boundary(endpoint)
    }
    direct = None
    if attachments:
        shared = set(partition.subgraphs_of_vertex(source)) & set(
            partition.subgraphs_of_vertex(target)
        )
        distances = [
            dijkstra(partition.subgraph(sid), source, target=target)[0].get(target)
            for sid in shared
        ]
        distances = [d for d in distances if d is not None]
        if distances:
            direct = (source, target, min(distances))
    return attachments, direct


def rebuilt_snapshot(dtlp: DTLP, attachments, direct) -> CSRSnapshot:
    """The reference: copy the skeleton, attach, flatten."""
    skeleton = dtlp.skeleton_graph.augmented(attachments)
    if direct is not None:
        skeleton.update_edge_minimum(*direct)
    return CSRSnapshot(skeleton)


def first_paths(enumerator: LazyYen, count: int = FIRST_PATHS):
    paths = []
    try:
        for _ in range(count):
            paths.append(enumerator.next_path())
    except (StopIteration, PathNotFoundError):
        pass
    return [(path.distance, path.vertices) for path in paths]


def assert_overlay_matches_rebuild(dtlp, source, target, attachments, direct):
    view = dtlp.skeleton_search_view()
    if attachments:
        view = view.overlay(attachments, direct)
        assert view is not None
    reference = first_paths(
        LazyYen(rebuilt_snapshot(dtlp, attachments, direct), source, target)
    )
    assert first_paths(LazyYen(view, source, target)) == reference
    if not reference:
        return
    # Bounded the way KSP-DG bounds it: exact lower bounds plus an upper
    # bound installed after the first path.  Everything within the bound
    # must come out, in the same order.
    bound = reference[min(3, len(reference) - 1)][0]
    bounded = LazyYen(view, source, target, heuristic=view)
    head = first_paths(bounded, 1)
    bounded.set_upper_bound(bound)
    pruned = head + first_paths(bounded, FIRST_PATHS - 1)
    assert pruned == reference[: len(pruned)]
    assert len(pruned) >= sum(1 for distance, _ in reference if distance <= bound)


class TestOverlayMatchesRebuild:
    @given(network=indexed_networks())
    @settings(**FIXED_BUDGET)
    def test_first_paths_equal_vertex_for_vertex(self, network):
        _graph, dtlp, rng = network
        for source, target in endpoint_pairs(dtlp, rng):
            attachments, direct = attachments_of(dtlp, source, target)
            assert_overlay_matches_rebuild(dtlp, source, target, attachments, direct)

    @given(network=indexed_networks())
    @settings(**FIXED_BUDGET)
    def test_attachment_lowering_an_existing_skeleton_edge(self, network):
        # ``augmented`` accepts a vertex the skeleton already has: a cheaper
        # attachment lowers the existing arc in place (row position kept),
        # a dearer one changes nothing, an absent one is appended.
        _graph, dtlp, rng = network
        skeleton = dtlp.skeleton_graph
        boundary = sorted(skeleton.vertices())
        hub = rng.choice([v for v in boundary if skeleton.neighbors(v)])
        neighbors = list(skeleton.neighbors(hub).items())
        edges = {}
        for position, (neighbor, weight) in enumerate(neighbors):
            edges[neighbor] = weight - 1 if position % 2 == 0 else weight + 1
        stranger = rng.choice([v for v in boundary if v != hub])
        edges.setdefault(stranger, 1.0)
        attachments = {hub: edges}
        for target in rng.sample([v for v in boundary if v != hub], 2):
            assert_overlay_matches_rebuild(dtlp, hub, target, attachments, None)
            assert_overlay_matches_rebuild(dtlp, target, hub, attachments, None)

    @given(network=indexed_networks())
    @settings(**FIXED_BUDGET)
    def test_attached_vertices_break_ties_by_id(self, network):
        # Query endpoints are only ever the start or the end of a search, so
        # their index cannot change a tie-break.  A vertex attached *between*
        # others can: give a boundary vertex twins with its exact edges, and
        # every shortest path through it ties with one through each twin —
        # which one the search keeps is decided by index order alone.
        _graph, dtlp, rng = network
        skeleton = dtlp.skeleton_graph
        boundary = sorted(skeleton.vertices())
        interior = sorted(set(dtlp.graph.vertices()) - set(boundary))
        original = rng.choice([v for v in boundary if len(skeleton.neighbors(v)) >= 2])
        same_gap = [
            (a, b)
            for a, b in zip(interior, interior[1:])
            if not any(a < vertex < b for vertex in boundary)
        ]
        twins = list(rng.choice(same_gap)) if same_gap else rng.sample(interior, 2)
        rng.shuffle(twins)
        attachments = {twin: dict(skeleton.neighbors(original)) for twin in twins}
        others = [v for v in boundary if v != original]
        for _ in range(4):
            source, target = rng.sample(others, 2)
            assert_overlay_matches_rebuild(dtlp, source, target, attachments, None)

    def test_full_gap_falls_back_to_the_rebuild(self):
        graph = road_network(6, 6, seed=5)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        boundary = sorted(dtlp.partition.boundary_vertices)
        # Three new vertices above every skeleton id share the last gap.
        top = max(graph.vertices()) + 1
        attachments = {
            top + offset: {boundary[offset]: 1.0 + offset} for offset in range(3)
        }
        assert dtlp.skeleton_search_view().overlay(attachments) is None
        two = {vertex: attachments[vertex] for vertex in (top, top + 1)}
        assert dtlp.skeleton_search_view().overlay(two) is not None
        for kernel in ("snapshot", "dict"):
            enumerator = dtlp.reference_enumerator(
                top, boundary[-1], attachments, kernel=kernel
            )
            assert first_paths(enumerator) == first_paths(
                LazyYen(rebuilt_snapshot(dtlp, attachments, None), top, boundary[-1])
            )

    def test_image_is_rebuilt_only_when_skeleton_weights_move(self):
        graph = road_network(6, 6, seed=5)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build().attach()
        image = dtlp.skeleton_search_view()
        assert dtlp.skeleton_search_view() is image
        edges = list(graph.edges())
        # A round that bumps the graph version but moves no weight.
        graph.apply_updates([WeightUpdate(u, v, weight) for u, v, weight in edges[:3]])
        assert dtlp.skeleton_search_view() is image
        graph.apply_updates([WeightUpdate(u, v, weight * 5) for u, v, weight in edges])
        refreshed = dtlp.skeleton_search_view()
        assert refreshed is not image
        skeleton = dtlp.skeleton_graph
        for u, v, weight in skeleton.edges():
            assert refreshed.weight(u, v) == weight == 5 * image.weight(u, v)


class TestAnswersMatchTheDictTier:
    @given(network=indexed_networks(), k=st.integers(min_value=1, max_value=4))
    @settings(**FIXED_BUDGET)
    def test_kspdg_query(self, network, k):
        _graph, dtlp, rng = network
        reference_engine = KSPDG(dtlp, kernel="dict")
        engine = KSPDG(dtlp, kernel="snapshot")
        for source, target in endpoint_pairs(dtlp, rng):
            expected = reference_engine.query(source, target, k)
            actual = engine.query(source, target, k)
            assert actual.paths == expected.paths
            assert actual.reference_paths == expected.reference_paths
            assert actual.iterations == expected.iterations

    @given(network=indexed_networks())
    @settings(**{**FIXED_BUDGET, "max_examples": 6})
    def test_storm_topology(self, network):
        _graph, dtlp, rng = network
        queries = [
            KSPQuery(query_id=index, source=source, target=target, k=3)
            for index, (source, target) in enumerate(endpoint_pairs(dtlp, rng))
        ]
        outcomes = []
        for kernel in ("dict", "snapshot"):
            with StormTopology(dtlp, num_workers=3, kernel=kernel) as topology:
                report = topology.run_queries(queries)
                outcomes.append(
                    (
                        [(r.paths, r.iterations) for r in report.results],
                        report.communication_units,
                    )
                )
        assert outcomes[0] == outcomes[1]


class TestBoundsAreAdmissible:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        directed=st.booleans(),
        ban_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(**{**FIXED_BUDGET, "max_examples": 20})
    def test_never_above_the_true_distance_under_yen_bans(
        self, seed, directed, ban_seed
    ):
        graph = random_graph(24, 50, seed=seed, directed=directed)
        rng = random.Random(ban_seed)
        if directed:
            # Opposite arcs start out equal; make the graph asymmetric so a
            # transposition mistake cannot hide.
            arcs = [(u, v) for u, v, _ in graph.edges()]
            graph.apply_updates(
                [
                    WeightUpdate(u, v, graph.weight(u, v) + rng.randint(1, 9))
                    for u, v in rng.sample(arcs, len(arcs) // 2)
                ]
            )
        vertices = sorted(graph.vertices())
        target = rng.choice(vertices)
        outsider = max(vertices) + 1
        base = SkeletonSearchView(graph)
        attached = base.overlay(
            {outsider: {v: float(rng.randint(1, 9)) for v in rng.sample(vertices, 3)}}
        )
        ban_sets = [(set(), set())]
        for _ in range(4):
            banned_edges = set()
            for u, v, _weight in rng.sample(list(graph.edges()), 6):
                banned_edges.update({(u, v), (v, u)})
            ban_sets.append((set(rng.sample(vertices, 4)) - {target}, banned_edges))
        for view in (base, attached):
            bounds = view.bounds_to(target)
            assert bounds[view.index_of[target]] == 0.0
            for banned_vertices, banned_edges in ban_sets:
                for vertex in set(view.index_of) - banned_vertices:
                    # The true distance: a forward search on the same view,
                    # where the bounds came from one search out of the target.
                    distances, _ = dijkstra(
                        view, vertex, target=target,
                        banned_vertices=banned_vertices, banned_edges=banned_edges,
                    )
                    true_distance = distances.get(target, float("inf"))
                    bound = bounds[view.index_of[vertex]]
                    if banned_vertices or banned_edges:
                        assert bound <= true_distance
                    else:
                        assert bound == true_distance  # integer weights: exact

    def test_unknown_target_has_no_bounds(self):
        view = SkeletonSearchView(road_network(3, 3, seed=1))
        assert view.bounds_to(10_000) is None

