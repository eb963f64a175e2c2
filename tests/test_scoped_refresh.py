"""Scoped refresh ≡ pull refresh: one change fold per graph version.

``DTLP.subgraph_snapshot`` no longer lets each cached snapshot re-walk the
whole graph's change list; one fold per graph version files every changed
edge under its owner subgraph and a snapshot is brought current from its own
bucket on the next read.  The contract is identity with what a reader could
always check — a fresh ``CSRSnapshot(partition.subgraph(i))``:

* every snapshot handed out, to the test or to a query, equals the fresh one
  on ``weights``, ``rows`` and ``path_distance`` and carries the graph's
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
from repro.graph import clustered_road_network, random_graph, road_network
from repro.graph.errors import PathNotFoundError
from repro.graph.generators import grid_graph
from repro.graph.graph import DynamicGraph, WeightUpdate
from repro.kernel import CSRSnapshot

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
        assert snapshot.weights == fresh.weights
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


@given(
    graph=networks(),
    z=st.sampled_from((5, 8)),
    integer=st.booleans(),
    direction=st.sampled_from(("up", "down", "both")),
    rounds=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(**FIXED_BUDGET)
def test_batched_maintenance_equals_rebuild(graph, z, integer, direction, rounds, seed) -> None:
    rng = random.Random(seed)
    dtlp = DTLP(graph, DTLPConfig(z=z, xi=2)).build().attach()
    for _ in range(rounds):
        graph.apply_updates(moved_batch(graph, rng, integer, direction))
        twin_graph, twin = pickle.loads(pickle.dumps((graph, dtlp)))
        fresh = DTLP(twin_graph, twin.config, partition=twin.partition).build()
        for subgraph_id, index in dtlp.subgraph_indexes().items():
            rebuilt = fresh.subgraph_index(subgraph_id)
            # Paths, vfrag counts and prices, in path order.
            assert index.export_state()["paths"] == rebuilt.export_state()["paths"]
            assert index.lower_bound_distances() == rebuilt.lower_bound_distances()
        assert sorted(dtlp.skeleton_graph.edges()) == sorted(fresh.skeleton_graph.edges())


# ----------------------------------------------------------------------
# The complexity claim, as counts
# ----------------------------------------------------------------------
def test_one_change_walk_per_graph_version(monkeypatch) -> None:
    """After a round, reading every subgraph snapshot walks the graph's
    change list once and rewrites exactly the changed arcs."""
    graph = road_network(8, 8, seed=1)
    dtlp = DTLP(graph, DTLPConfig(z=12, xi=2)).build().attach()
    subgraph_ids = [subgraph.subgraph_id for subgraph in dtlp.partition.subgraphs]
    assert len(subgraph_ids) >= 5
    for subgraph_id in subgraph_ids:
        dtlp.subgraph_snapshot(subgraph_id)

    walks: List[int] = []
    rewritten: List[int] = []
    changed_since = graph.edges_changed_since
    apply_changes = CSRSnapshot.apply_changes

    def counted_walk(version: int):
        walks.append(version)
        return changed_since(version)

    def counted_apply(self, changes, version: int) -> int:
        rewritten.append(apply_changes(self, changes, version))
        return rewritten[-1]

    monkeypatch.setattr(graph, "edges_changed_since", counted_walk)
    monkeypatch.setattr(CSRSnapshot, "apply_changes", counted_apply)

    rng = random.Random(3)
    edges = [(u, v) for u, v, _ in graph.edges()]
    for round_number in range(3):
        changed: Set[Tuple[int, int]] = set(rng.sample(edges, len(edges) // 3))
        before = graph.version
        del walks[:], rewritten[:]
        # The attached index folds the round as handle_updates ends: the one
        # walk happens in here, and no read below pays a second.
        graph.apply_updates([WeightUpdate(u, v, graph.weight(u, v) + 1.0) for u, v in changed])
        assert walks == [before]
        for _ in range(2):  # a second read of each costs a version compare
            for subgraph_id in subgraph_ids:
                dtlp.subgraph_snapshot(subgraph_id)
                dtlp.subgraph_weights_epoch(subgraph_id)
        assert walks == [before]
        assert sum(rewritten) == 2 * len(changed)  # both arcs of each edge
        assert len(rewritten) == len(subgraph_ids)


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
    """Thread-executor bolts read snapshots concurrently (graph quiescent):
    under the epoch lock the fold runs once per version and each bucket is
    applied once — a lost or doubled apply would show in the epoch."""
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
                    assert snapshot.weights == fresh.weights and snapshot.rows == fresh.rows
    finally:
        sys.setswitchinterval(interval)
