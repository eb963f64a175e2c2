"""Identity properties of the goal-directed, bound-pruned query stack.

The contract (``ARCHITECTURE.md``, "Goal-directed search & pruning"): every
pruned configuration — upper-bound cutoffs, admissible lower bounds,
one-to-many boundary searches, cross-query partial-KSP memos — returns
**bit-identical** paths and distances to the unpruned reference, on both
compute kernels, across weight-update rounds, and on the serial and
process execution backends.  These tests pin that down on randomized
graphs; integer base weights make distance ties frequent, so tie-breaking
divergence cannot hide — and :class:`TestTiesUnderTraffic` takes the same
ties to the non-integer weights a ``TrafficModel`` round leaves behind,
where a cutoff that compares two float sums exactly loses them to rounding.
"""

from __future__ import annotations

import random
from typing import List

import pytest
from conftest import LooseLowerBounds
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms.find_ksp import find_ksp
from repro.algorithms.yen import LazyYen, yen_k_shortest_paths
from repro.core import DTLP, DTLPConfig, KSPDG
from repro.distributed import StormTopology
from repro.dynamics import TrafficModel
from repro.graph import random_graph, road_network
from repro.graph.errors import PathNotFoundError
from repro.graph.graph import WeightUpdate
from repro.kernel import CSRSnapshot
from repro.workloads import QueryGenerator


def _signature(paths):
    return [(path.distance, path.vertices) for path in paths]


class TestYenPruningIdentity:
    def test_pruned_matches_unpruned_on_random_graphs(self):
        rng = random.Random(2027)
        for trial in range(6):
            seed = rng.randrange(100_000)
            graph = (
                random_graph(num_vertices=32, num_edges=75, seed=seed)
                if trial % 2
                else road_network(6, 6, seed=seed)
            )
            snapshot = CSRSnapshot(graph)
            loose = LooseLowerBounds(snapshot, seed)
            vertices = sorted(snapshot.ids)
            for _ in range(6):
                source, target = rng.sample(vertices, 2)
                k = rng.choice((1, 2, 4))
                try:
                    reference = yen_k_shortest_paths(graph, source, target, k, prune=False)
                except PathNotFoundError:
                    continue
                expected = _signature(reference)
                assert _signature(
                    yen_k_shortest_paths(graph, source, target, k, prune=True)
                ) == expected
                assert _signature(
                    yen_k_shortest_paths(snapshot, source, target, k, prune=True)
                ) == expected
                bounded = LazyYen(snapshot, source, target, prune_k=k, heuristic=loose)
                assert _signature(
                    [bounded.next_path() for _ in expected]
                ) == expected

    def test_pruned_respects_allowed_vertices(self):
        graph = road_network(6, 6, seed=9)
        snapshot = CSRSnapshot(graph)
        allowed = set(range(0, 24))
        for prune in (False, True):
            try:
                paths = yen_k_shortest_paths(
                    snapshot, 0, 20, 3, allowed_vertices=allowed, prune=prune
                )
            except PathNotFoundError:
                paths = []
            for path in paths:
                assert set(path.vertices) <= allowed
        base = yen_k_shortest_paths(graph, 0, 20, 3, allowed_vertices=allowed, prune=False)
        fast = yen_k_shortest_paths(
            snapshot, 0, 20, 3, allowed_vertices=allowed, prune=True
        )
        assert _signature(base) == _signature(fast)

    def test_external_upper_bound_never_loses_needed_paths(self):
        # The enumerator may drop paths strictly beyond the bound but must
        # deliver everything at or below it, in the unpruned order.
        graph = road_network(5, 5, seed=3)
        snapshot = CSRSnapshot(graph)
        reference = LazyYen(snapshot, 0, 24)
        expected = [reference.next_path() for _ in range(5)]
        bound = expected[-1].distance
        pruned = LazyYen(snapshot, 0, 24)
        pruned.set_upper_bound(bound)
        produced = []
        for _ in range(5):
            produced.append(pruned.next_path())
        assert _signature(produced) == _signature(expected)


class NoLowerBounds:
    """``heuristic=`` override that knows nothing: plain cutoff pruning on a
    snapshot, which otherwise always bounds itself."""

    def __init__(self, snapshot: CSRSnapshot) -> None:
        self._size = snapshot.num_vertices

    def bounds_to(self, target: int) -> List[float]:
        return [0.0] * self._size


def _near_tie_network(seed: int, directed: bool):
    """A 6x6 network in the state ``TrafficModel`` leaves a graph in: every
    edge at 1.0, 2.0 or 3.0 (ties everywhere), then a third of them up by at
    most 10 %, rounded to 6 places (sums that tie only up to rounding)."""
    graph = road_network(6, 6, seed=seed, directed=directed)
    rng = random.Random(seed)
    edges = [(u, v) for u, v, _ in graph.edges()]
    graph.apply_updates(
        [WeightUpdate(u, v, float(rng.randint(1, 3))) for u, v in edges]
    )
    graph.apply_updates(
        [
            WeightUpdate(u, v, round(graph.weight(u, v) * (1 + rng.uniform(0, 0.1)), 6))
            for u, v in rng.sample(edges, len(edges) // 3)
        ]
    )
    return graph, rng


class TestTiesUnderTraffic:
    """pruned ≡ unpruned when the k-th best distance is tied and weights are
    not integers.  ``bound - root_distance`` and the spur's own sum add the
    same weights in different orders, so the path that ties the bound could
    come out an ulp above it and be discarded; ``(distance, vertices)``
    order then picked the other path.  Fails before ``PRUNE_SLACK``."""

    @settings(
        max_examples=12,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=39),
        directed=st.booleans(),
    )
    # Networks with a case that differed before the slack: seed 4, 16 -> 24,
    # k=3 — third path (16, 15, 14, 20, 26, 25, 24) unpruned against
    # (16, 15, 21, 20, 26, 25, 24) pruned, both 10.005135; seed 16, 32 -> 1;
    # directed seed 5, 19 -> 35 and 11 -> 30; FindKSP on seed 0, 34 -> 17.
    @example(seed=4, directed=False)
    @example(seed=16, directed=False)
    @example(seed=5, directed=True)
    @example(seed=0, directed=False)
    def test_pruned_matches_unpruned_on_near_ties(self, seed, directed):
        graph, rng = _near_tie_network(seed, directed)
        snapshot = CSRSnapshot(graph)
        overrides = (NoLowerBounds(snapshot), LooseLowerBounds(snapshot, seed))
        vertices = sorted(graph.vertices())
        for _ in range(60):
            source, target = rng.sample(vertices, 2)
            k = rng.choice((2, 3, 4, 6))
            try:
                reference = yen_k_shortest_paths(graph, source, target, k, prune=False)
            except PathNotFoundError:
                continue
            expected = _signature(reference)
            case = (seed, directed, source, target, k)
            # plain cutoffs on the dict tier, self-computed bounds on the snapshot
            for tier in (graph, snapshot):
                assert _signature(
                    yen_k_shortest_paths(tier, source, target, k, prune=True)
                ) == expected, case
            for heuristic in overrides:
                bounded = LazyYen(
                    snapshot, source, target, prune_k=k, heuristic=heuristic
                )
                assert _signature(
                    [bounded.next_path() for _ in expected]
                ) == expected, case
            assert _signature(find_ksp(graph, source, target, k, prune=True)) == (
                _signature(find_ksp(graph, source, target, k, prune=False))
            ), case


class TestFindKSPPruningIdentity:
    def test_pruned_matches_unpruned(self):
        rng = random.Random(404)
        for _ in range(5):
            seed = rng.randrange(100_000)
            graph = road_network(5, 5, seed=seed)
            snapshot = CSRSnapshot(graph)
            vertices = sorted(snapshot.ids)
            source, target = rng.sample(vertices, 2)
            k = rng.choice((2, 3, 5))
            try:
                reference = find_ksp(graph, source, target, k, prune=False)
            except PathNotFoundError:
                continue
            assert _signature(find_ksp(graph, source, target, k, prune=True)) == (
                _signature(reference)
            )
            assert _signature(find_ksp(snapshot, source, target, k, prune=True)) == (
                _signature(reference)
            )


class TestKSPDGPruningIdentity:
    # One value: the id says no lower-bound source besides the filter
    # step's own, and keeps the name it had when there was a second.
    @pytest.mark.parametrize("heuristic", ("none",))
    def test_identical_across_update_rounds(self, heuristic):
        graph = road_network(7, 7, seed=23)
        dtlp = DTLP(graph, DTLPConfig(z=14, xi=2)).build()
        graph.add_listener(dtlp.handle_updates)
        baseline = KSPDG(dtlp, pruning=False)
        pruned = KSPDG(dtlp, pruning=True)
        queries = QueryGenerator(graph, seed=24, min_hops=3).generate(6, k=3)
        model = TrafficModel(graph, alpha=0.4, tau=0.6, seed=25)
        for _ in range(3):
            for query in queries:
                expected = baseline.query(query.source, query.target, query.k)
                actual = pruned.query(query.source, query.target, query.k)
                assert _signature(actual.paths) == _signature(expected.paths)
                assert actual.iterations == expected.iterations
                assert [
                    reference.vertices for reference in actual.reference_paths
                ] == [reference.vertices for reference in expected.reference_paths]
            model.advance()

    def test_dict_kernel_pruning_matches_dict_reference(self):
        graph = road_network(6, 6, seed=29)
        dtlp = DTLP(graph, DTLPConfig(z=14, xi=2)).build()
        baseline = KSPDG(dtlp, kernel="dict", pruning=False)
        pruned = KSPDG(dtlp, kernel="dict", pruning=True)
        queries = QueryGenerator(graph, seed=30, min_hops=3).generate(6, k=3)
        for query in queries:
            expected = baseline.query(query.source, query.target, query.k)
            actual = pruned.query(query.source, query.target, query.k)
            assert _signature(actual.paths) == _signature(expected.paths)

    def test_memo_reuse_is_invisible_in_results(self):
        graph = road_network(7, 7, seed=31)
        dtlp = DTLP(graph, DTLPConfig(z=14, xi=2)).build()
        engine = KSPDG(dtlp, pruning=True)
        first = engine.query(0, 44, 3)
        second = engine.query(0, 44, 3)
        assert _signature(first.paths) == _signature(second.paths)
        assert second.partial_reused > 0
        assert second.partial_computations == 0
        # A weight change inside a crossed subgraph forces recomputation.
        graph.add_listener(dtlp.handle_updates)
        TrafficModel(graph, alpha=0.9, tau=0.8, seed=32).advance()
        third = engine.query(0, 44, 3)
        assert third.partial_computations > 0
        fresh = KSPDG(DTLP(graph, DTLPConfig(z=14, xi=2)).build(), pruning=False)
        assert _signature(third.paths) == _signature(fresh.query(0, 44, 3).paths)


class TestTopologyPruningIdentity:
    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_pruned_topology_matches_unpruned_serial(self, executor):
        def run(backend, pruning):
            graph = road_network(6, 6, seed=35)
            dtlp = DTLP(graph, DTLPConfig(z=14, xi=2)).build()
            queries = QueryGenerator(graph, seed=36, min_hops=3).generate(6, k=3)
            model = TrafficModel(graph, alpha=0.35, tau=0.5, seed=37)
            signatures = []
            with StormTopology(
                dtlp, num_workers=3, executor=backend, executor_workers=2,
                pruning=pruning,
            ) as topology:
                for round_number in range(2):
                    report = topology.run_queries(queries)
                    signatures.append(
                        (
                            [
                                _signature(result.paths)
                                for result in report.results
                            ],
                            report.communication_units,
                            [
                                (
                                    worker.stats.worker_id,
                                    worker.stats.messages_sent,
                                    worker.stats.units_sent,
                                    worker.stats.tasks_executed,
                                )
                                for worker in map(
                                    topology.cluster.worker,
                                    range(topology.cluster.num_workers),
                                )
                            ],
                        )
                    )
                    if round_number == 0:
                        topology.submit_weight_updates(model.advance())
            return signatures

        reference = run("serial", False)
        assert run(executor, True) == reference
