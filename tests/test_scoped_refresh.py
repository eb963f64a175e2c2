"""Scoped refresh ≡ pull refresh: one change fold per graph version.

``DTLP.subgraph_snapshot`` no longer lets each cached snapshot re-walk the
whole graph's change list; one fold per graph version files every changed
edge under its owner subgraph and a snapshot is brought current from its own
bucket on the next read.  The contract is identity with what a reader could
always check — a fresh ``CSRSnapshot(partition.subgraph(i))``:

* every snapshot handed out, to the test or to a query, equals the fresh one
  on ``rows`` and ``path_distance`` and carries the graph's
  version, and its ``_weights_epoch`` moves iff an edge it owns was rewritten
  since it was last read;
* ``KSPDG.query`` on the snapshot tier equals the ``dict`` tier of a twin
  (graph, index) pair that lived through the same history — paths,
  distances, iterations;
* a maintenance round leaves the index where ``DTLP.build()`` would on a
  pickled twin with the same partition: every bounding-path price, every
  pair's lower bound and every skeleton weight, bit for bit.

Hypothesis searches networks (grid, clustered, random; directed or not;
integer or float weights) and histories — index attached, detached or
attached late; snapshots first read before, between or after rounds;
subgraphs left unread for several rounds; several rounds with no read at
all, so the fold itself falls behind a log compaction — under a fixed
(derandomized) example budget, so tier-1 runs are repeatable.  Deterministic
guards pin the complexity claim as a count, the snapshot first built
mid-history, and concurrent readers.
"""

from __future__ import annotations

import pickle
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Set, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DTLP, DTLPConfig, KSPDG
from repro.core.subgraph_index import SubgraphIndex
from repro.core.skeleton import SkeletonSearchView
from repro.distributed import StormTopology
from repro.frontdoor import FrontDoorClient, build_replicas, start_front_door
from repro.dynamics import TrafficModel
from repro.graph import clustered_road_network, random_graph, road_network
from repro.graph.errors import PathNotFoundError
from repro.graph.generators import grid_graph
from repro.graph.graph import DynamicGraph, WeightUpdate
from repro.graph.subgraph import Subgraph
from repro.kernel import CSRSnapshot
from repro.workloads import QueryGenerator

FIXED_BUDGET = dict(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
READS = ("none", "none", "some", "all", "query")


@st.composite
def networks(draw) -> DynamicGraph:
    """A small network of one of the three generator families."""
    directed = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    kind = draw(st.sampled_from(("grid", "clustered", "random")))
    if kind == "grid":
        return grid_graph(4, 5, rng=random.Random(seed), directed=directed)
    if kind == "clustered":
        return clustered_road_network(2, 3, 3, seed=seed, directed=directed)
    return random_graph(16, 30, seed=seed, directed=directed)


def random_batch(graph: DynamicGraph, rng: random.Random, integer: bool) -> List[WeightUpdate]:
    """A few updates or up to |E| of them, edges repeated now and then.

    Weights move around the *initial* ones (integer factors keep distance
    ties alive), as traffic does: KSP-DG's iteration count explodes when
    unit weights drift far apart, which is not what is under test here.
    """
    edges = [(u, v) for u, v, _ in graph.edges()]
    batch = rng.choices(edges, k=rng.choice((1, 3, len(edges) // 3, len(edges))))

    def factor() -> float:
        return rng.choice((1, 2, 3)) if integer else rng.uniform(0.8, 1.6)

    return [WeightUpdate(u, v, graph.initial_weight(u, v) * factor()) for u, v in batch]


class CheckedSnapshots:
    """Stands in for ``dtlp.subgraph_snapshot`` and checks every hand-out.

    Installed as an instance attribute, so the reads KSP-DG makes go through
    it too.  ``dirty`` holds the subgraphs that own an edge updated since
    their snapshot was last read (maintained by :meth:`note_updates`).
    """

    def __init__(self, dtlp: DTLP, rng: random.Random) -> None:
        self.dtlp = dtlp
        self.rng = rng
        self.read = dtlp.subgraph_snapshot
        self.dirty: Set[int] = set()
        self.epochs: Dict[int, int] = {}
        self.compared: Dict[int, int] = {}
        dtlp.subgraph_snapshot = self

    def note_updates(self, updates: List[WeightUpdate]) -> None:
        owner_of_edge = self.dtlp.partition.owner_of_edge
        self.dirty.update(owner_of_edge(update.u, update.v) for update in updates)

    def __call__(self, subgraph_id: int) -> CSRSnapshot:
        snapshot = self.read(subgraph_id)
        graph = self.dtlp.graph
        assert snapshot.version == graph.version
        if subgraph_id not in self.epochs:
            assert snapshot._weights_epoch == 0  # first build reads live weights
        else:
            moved = snapshot._weights_epoch - self.epochs[subgraph_id]
            assert moved == (1 if subgraph_id in self.dirty else 0)
        self.dirty.discard(subgraph_id)
        self.epochs[subgraph_id] = snapshot._weights_epoch
        if self.compared.get(subgraph_id) != graph.version:
            self.compared[subgraph_id] = graph.version
            self.compare_with_fresh(subgraph_id, snapshot)
        return snapshot

    def compare_with_fresh(self, subgraph_id: int, snapshot: CSRSnapshot) -> None:
        subgraph = self.dtlp.partition.subgraph(subgraph_id)
        fresh = CSRSnapshot(subgraph)
        assert snapshot.rows == fresh.rows
        walk = [self.rng.choice(sorted(subgraph.vertices))]
        for _ in range(6):
            onward = [v for v, _ in subgraph.neighbors(walk[-1])]
            if not onward:
                break
            walk.append(self.rng.choice(onward))
        assert snapshot.path_distance(walk) == fresh.path_distance(walk)
        assert snapshot.path_distance(walk) == self.dtlp.graph.path_distance(walk)


def assert_same_answers(dtlp: DTLP, twin: DTLP, rng: random.Random) -> None:
    """Snapshot tier on ``dtlp`` ≡ dict tier on its twin, for three queries."""
    vertices = sorted(dtlp.graph.vertices())
    for _ in range(3):
        source, target = rng.sample(vertices, 2)
        k = rng.choice((1, 2, 3))
        try:
            expected = KSPDG(twin, kernel="dict").query(source, target, k)
        except PathNotFoundError:
            expected = None
        try:
            answer = KSPDG(dtlp, kernel="snapshot").query(source, target, k)
        except PathNotFoundError:
            answer = None
        if expected is None or answer is None:
            assert expected is None and answer is None
            continue
        assert answer.paths == expected.paths
        assert answer.distances == expected.distances
        assert answer.iterations == expected.iterations


@given(
    graph=networks(),
    z=st.sampled_from((5, 8)),
    integer=st.booleans(),
    attach_at=st.sampled_from((0, 0, 0, 2, 4, None)),
    read_first=st.booleans(),
    rounds=st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), st.sampled_from(READS)),
        min_size=3,
        max_size=8,
    ),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(**FIXED_BUDGET)
def test_scoped_refresh_equals_fresh_snapshots(
    graph, z, integer, attach_at, read_first, rounds, seed
) -> None:
    rng = random.Random(seed)
    dtlp = DTLP(graph, DTLPConfig(z=z, xi=2)).build()
    twin_graph, twin = pickle.loads(pickle.dumps((graph, dtlp)))
    snapshots = CheckedSnapshots(dtlp, rng)
    subgraph_ids = [subgraph.subgraph_id for subgraph in dtlp.partition.subgraphs]
    if read_first:
        for subgraph_id in rng.sample(subgraph_ids, max(1, len(subgraph_ids) // 2)):
            dtlp.subgraph_snapshot(subgraph_id)
    for round_number, (batches, read) in enumerate(rounds):
        if attach_at == round_number:
            dtlp.attach()
            twin.attach()
        for _ in range(batches):
            updates = random_batch(graph, rng, integer)
            graph.apply_updates(updates)
            twin_graph.apply_updates(updates)
            snapshots.note_updates(updates)
        # Halving never leaves more than the bound, whatever the history.
        assert len(graph._change_log) <= 2 * graph.num_edges
        if read == "some":
            for subgraph_id in rng.sample(subgraph_ids, max(1, len(subgraph_ids) // 3)):
                dtlp.subgraph_snapshot(subgraph_id)
        elif read == "all":
            for subgraph_id in subgraph_ids:
                dtlp.subgraph_snapshot(subgraph_id)
        elif read == "query" and attach_at == 0:
            # Only a maintained index: a stale one answers both tiers alike
            # too, but after thousands of iterations.
            assert_same_answers(dtlp, twin, rng)
    for subgraph_id in subgraph_ids:
        dtlp.subgraph_snapshot(subgraph_id)
    assert not snapshots.dirty
    if attach_at == 0:
        assert_same_answers(dtlp, twin, rng)


def moved_batch(
    graph: DynamicGraph, rng: random.Random, integer: bool, direction: str
) -> List[WeightUpdate]:
    """Edges moved up, down or either way from their current weights, and
    one of them written twice (reversed when undirected): the graph's last
    write is the one that must win."""
    edges = [(u, v) for u, v, _ in graph.edges()]
    batch = []
    for u, v in rng.sample(edges, rng.choice((1, 3, max(1, len(edges) // 3)))):
        up = direction == "up" or (direction == "both" and rng.random() < 0.5)
        weight = graph.weight(u, v)
        if integer:
            step = rng.choice((1, 2, 3))
            weight = weight + step if up else max(0.0, weight - step)
        else:
            weight *= rng.uniform(1.05, 1.6) if up else rng.uniform(0.4, 0.95)
        batch.append(WeightUpdate(u, v, weight))
    first = batch[0]
    u, v = (first.u, first.v) if graph.directed else (first.v, first.u)
    batch.append(WeightUpdate(u, v, first.new_weight + 1.0))
    return batch


def assert_views_equal_a_rebuild(dtlp: DTLP, fresh: DTLP) -> None:
    """Every kernel view ``dtlp`` keeps equals the one a fresh build makes:
    each subgraph snapshot's ``rows``, and the search image's ``rows`` and
    its weight of every skeleton arc."""
    for subgraph_id in dtlp.subgraph_indexes():
        kept = dtlp.subgraph_snapshot(subgraph_id)
        rebuilt = fresh.subgraph_snapshot(subgraph_id)
        assert kept.rows == rebuilt.rows
    image, rebuilt_image = dtlp.skeleton_search_view(), fresh.skeleton_search_view()
    assert image.rows == rebuilt_image.rows
    for u, v, weight in fresh.skeleton_graph.edges():
        assert image.weight(u, v) == rebuilt_image.weight(u, v) == weight
        if not fresh.graph.directed:
            assert image.weight(v, u) == weight


@given(
    graph=networks(),
    z=st.sampled_from((5, 8)),
    integer=st.booleans(),
    direction=st.sampled_from(("up", "down", "both")),
    rounds=st.integers(min_value=1, max_value=4),
    attached=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(**FIXED_BUDGET)
def test_batched_maintenance_equals_rebuild(
    graph, z, integer, direction, rounds, attached, seed
) -> None:
    """A round leaves the index and every kernel view it keeps where a
    fresh build would: attached, folded from the round, or detached and
    caught up from the change log; the views were all read before the
    first round, so each is maintained rather than built late."""
    rng = random.Random(seed)
    dtlp = DTLP(graph, DTLPConfig(z=z, xi=2)).build()
    if attached:
        dtlp.attach()
    for subgraph_id in dtlp.subgraph_indexes():
        dtlp.subgraph_snapshot(subgraph_id)
    dtlp.skeleton_search_view()
    for _ in range(rounds):
        graph.apply_updates(moved_batch(graph, rng, integer, direction))
        if not attached:
            dtlp.catch_up()
        twin_graph, twin = pickle.loads(pickle.dumps((graph, dtlp)))
        fresh = DTLP(twin_graph, twin.config, partition=twin.partition).build()
        for subgraph_id, index in dtlp.subgraph_indexes().items():
            rebuilt = fresh.subgraph_index(subgraph_id)
            # Paths, vfrag counts and prices, in path order.
            assert index.export_state()["paths"] == rebuilt.export_state()["paths"]
            assert index.lower_bound_distances() == rebuilt.lower_bound_distances()
        assert sorted(dtlp.skeleton_graph.edges()) == sorted(fresh.skeleton_graph.edges())
        assert_views_equal_a_rebuild(dtlp, fresh)


# ----------------------------------------------------------------------
# The complexity claim, as counts
# ----------------------------------------------------------------------
def test_one_change_walk_per_graph_version(monkeypatch) -> None:
    """After a round, reading every subgraph snapshot walks the graph's
    change list once and rewrites exactly the changed arcs, and the index
    re-prices every changed edge exactly once.

    Three flows feed the rounds.  ``graph`` writes each round straight into
    the graph of an attached index.  The two topology flows run
    ``TrafficModel.advance()`` and then a serial ``StormTopology`` batch: an
    attached index is maintained as the graph applies the round, an
    unattached one when the batch catches it up — neither may re-price an
    edge twice."""
    walks: List[int] = []
    rewritten: List[int] = []
    repriced: List[Tuple[int, int]] = []
    apply_changes = CSRSnapshot.apply_changes
    reprice = SubgraphIndex.reprice

    def counted_apply(self, changes, version: int) -> int:
        count = apply_changes(self, changes, version)
        if isinstance(self.source, Subgraph):  # not the skeleton's snapshot
            rewritten.append(count)
        return count

    def counted_reprice(self, changes):
        key_of = {edge: key for key, edge in self.edge_ids.items()}
        repriced.extend(key_of[edge] for edge, _ in changes)
        return reprice(self, changes)

    monkeypatch.setattr(CSRSnapshot, "apply_changes", counted_apply)
    monkeypatch.setattr(SubgraphIndex, "reprice", counted_reprice)

    for flow in ("graph", "topology-attached", "topology-unattached"):
        graph = road_network(8, 8, seed=1)
        dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
        if flow != "topology-unattached":
            dtlp.attach()
        subgraph_ids = [subgraph.subgraph_id for subgraph in dtlp.partition.subgraphs]
        assert len(subgraph_ids) >= 5
        for subgraph_id in subgraph_ids:
            dtlp.subgraph_snapshot(subgraph_id)

        def counted_walk(version: int, changed_since=graph.edges_changed_since):
            walks.append(version)
            return changed_since(version)

        monkeypatch.setattr(graph, "edges_changed_since", counted_walk)
        rng = random.Random(3)
        edges = [(u, v) for u, v, _ in graph.edges()]
        model = TrafficModel(graph, alpha=0.4, tau=0.5, seed=3)
        queries = QueryGenerator(graph, seed=4, min_hops=3).generate(2, k=2)
        with StormTopology(dtlp, num_workers=3, executor="serial") as topology:
            for round_number in range(3):
                before = graph.version
                del walks[:], rewritten[:], repriced[:]
                if flow == "graph":
                    changed = set(rng.sample(edges, len(edges) // 3))
                    # The attached index folds the round as handle_updates
                    # ends: the one walk happens in here, and no read below
                    # pays a second.
                    graph.apply_updates(
                        [WeightUpdate(u, v, graph.weight(u, v) + 1.0) for u, v in changed]
                    )
                else:
                    weights = {(u, v): w for u, v, w in graph.edges()}
                    model.advance()
                    changed = {(u, v) for u, v, w in graph.edges() if w != weights[u, v]}
                    topology.run_queries(queries)
                assert changed, flow
                assert walks == [before], flow
                for _ in range(2):  # a second read of each costs a version compare
                    for subgraph_id in subgraph_ids:
                        dtlp.subgraph_snapshot(subgraph_id)
                assert walks == [before], flow
                assert sum(rewritten) == 2 * len(changed), flow  # both arcs of each edge
                assert len(rewritten) == len(subgraph_ids), flow
                assert sorted(repriced) == sorted(changed), flow


def test_a_round_and_its_next_query_rebuild_no_view(monkeypatch) -> None:
    """After the first round, a round posted to a front door of two KSP-DG
    replicas plus the query after it re-read no skeleton, re-flatten no
    search image and build no kernel view: each round writes the views by
    position.  The round's edges are validated once per graph, by its
    ``apply_updates``, and once more by the front door on the first
    replica's graph before it drains the replicas; ``has_edge`` is never
    asked."""
    calls: Dict[str, int] = {}
    validated: Dict[int, List[int]] = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(self, *args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((CSRSnapshot, "__init__"), (CSRSnapshot, "refresh"),
                        (SkeletonSearchView, "__init__"), (DynamicGraph, "has_edge")):
        counting(owner, name)
    require_edges = DynamicGraph.require_edges

    def counted_require(self, updates):
        validated.setdefault(id(self), []).append(len(updates))
        return require_edges(self, updates)

    monkeypatch.setattr(DynamicGraph, "require_edges", counted_require)

    graph = road_network(8, 8, seed=1)
    edges = [(u, v) for u, v, _ in graph.edges()]
    rng = random.Random(4)
    replicas = build_replicas(graph, num_replicas=2, engine="kspdg", z=12, xi=2)
    with start_front_door(replicas) as front_door:
        with FrontDoorClient.for_url(front_door.url) as client:
            for round_number in range(3):
                assert client.query(0, 63, k=2).status == 200
                calls.clear()
                validated.clear()
                changed = rng.sample(edges, len(edges) // 2)
                updates = [WeightUpdate(u, v, graph.weight(u, v) * rng.uniform(0.8, 1.5))
                           for u, v in changed]
                front_door.apply_maintenance(updates)
                assert sorted(validated.values()) == [[len(updates)], [len(updates)] * 2]
                assert calls.get("has_edge", 0) == 0
                assert client.query(7, 56, k=2).status == 200
                if round_number:
                    assert calls.get("refresh", 0) == 0, calls
                    assert calls.get("__init__", 0) == 0, calls


def test_snapshot_first_built_mid_history_owes_nothing() -> None:
    """A snapshot first built after unread rounds reads live weights; the
    changes it already holds are not filed for it a second time."""
    graph = road_network(8, 8, seed=1)
    dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build()
    first, other = dtlp.partition.subgraphs[:2]
    u, v = sorted(first.edge_set)[0]
    graph.update_weight(u, v, graph.weight(u, v) + 2.0)
    snapshot = dtlp.subgraph_snapshot(first.subgraph_id)
    assert snapshot.weight(u, v) == graph.weight(u, v)
    assert snapshot._weights_epoch == 0
    a, b = sorted(other.edge_set)[0]
    graph.update_weight(a, b, graph.weight(a, b) + 2.0)
    assert dtlp.subgraph_snapshot(first.subgraph_id) is snapshot
    assert snapshot.version == graph.version
    assert snapshot._weights_epoch == 0  # nothing it owns was rewritten


def test_concurrent_readers_apply_each_bucket_once() -> None:
    """``subgraph_snapshot`` takes the epoch lock, so any number of threads
    may read snapshots at once while the graph is quiescent: the fold runs
    once per version and each bucket is applied once — a lost or doubled
    apply would show in the epoch."""
    graph = road_network(8, 8, seed=1)
    dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build().attach()
    subgraph_ids = [subgraph.subgraph_id for subgraph in dtlp.partition.subgraphs]
    epochs = {i: dtlp.subgraph_snapshot(i)._weights_epoch for i in subgraph_ids}
    edges = [(u, v) for u, v, _ in graph.edges()]
    rng = random.Random(5)
    readers = 8  # more than the cores of any CI host

    def read_all(order: List[int], barrier: threading.Barrier) -> None:
        barrier.wait(timeout=30)
        for subgraph_id in order:
            assert dtlp.subgraph_snapshot(subgraph_id).version == graph.version

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=readers) as pool:
            for _ in range(15):
                changed = rng.sample(edges, len(edges) // 4)
                graph.apply_updates(
                    [WeightUpdate(u, v, graph.weight(u, v) + 1.0) for u, v in changed]
                )
                for owner in {dtlp.partition.owner_of_edge(u, v) for u, v in changed}:
                    epochs[owner] += 1
                barrier = threading.Barrier(readers)
                futures = [
                    pool.submit(read_all, rng.sample(subgraph_ids, len(subgraph_ids)), barrier)
                    for _ in range(readers)
                ]
                for future in futures:
                    future.result(timeout=60)
                for subgraph_id in subgraph_ids:
                    snapshot = dtlp.subgraph_snapshot(subgraph_id)
                    assert snapshot._weights_epoch == epochs[subgraph_id]
                    fresh = CSRSnapshot(dtlp.partition.subgraph(subgraph_id))
                    assert snapshot.rows == fresh.rows
    finally:
        sys.setswitchinterval(interval)
