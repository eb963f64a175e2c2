"""DTLP: the Distributed Two-Level Path index.

This module ties together the pieces of Section 3 of the paper:

* the graph is partitioned into subgraphs of at most ``z`` vertices
  (:mod:`repro.graph.partition`);
* each subgraph receives a first-level :class:`~repro.core.subgraph_index.SubgraphIndex`
  holding bounding paths, the EP-Index and lower-bound distances;
* the second level is the :class:`~repro.core.skeleton.SkeletonGraph` whose
  edge weights are the minimum lower bound distances across subgraphs.

The facade also implements the maintenance path of Algorithm 2: it can be
registered as a listener on the dynamic graph (``graph.add_listener(dtlp.handle_updates)``)
so that every batch of weight updates refreshes the affected bounding-path
distances and the skeleton-graph edge weights.

The index additionally hosts the shared per-subgraph kernel-snapshot cache
(:meth:`DTLP.subgraph_snapshot`) consumed by KSP-DG and the distributed
bolts; see ``ARCHITECTURE.md`` for the layer stack and the snapshot/dict
kernel trade-off.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..algorithms.yen import LazyYen
from ..graph.errors import IndexStateError, StaleStructureError
from ..graph.graph import DynamicGraph, WeightUpdate
from ..graph.partition import GraphPartition
from ..graph.partition_ml import make_partition
from ..graph.paths import Path
from ..kernel.snapshot import CSRSnapshot
from .layout import IndexLayout
from .skeleton import SkeletonGraph, SkeletonSearchView
from .subgraph_index import SubgraphIndex

__all__ = ["DTLPConfig", "DTLPStatistics", "DTLP"]

#: Cap on cross-query partial-KSP memo entries.  Each entry holds up to k
#: Path tuples; eviction is FIFO (dict insertion order).  32k entries cover
#: every boundary pair of the scaled datasets many times over while
#: bounding a long-running service's footprint.
_PARTIAL_MEMO_LIMIT = 32_768


@dataclass(frozen=True)
class DTLPConfig:
    """Configuration of a DTLP index.

    Attributes
    ----------
    z:
        Maximum number of vertices per subgraph (the paper's ``z``).
    xi:
        Number of bounding paths (distinct vfrag counts) per boundary pair
        (the paper's ``xi``).
    directed:
        Build the directed variant of the index (two bounding-path sets per
        boundary pair, a directed skeleton graph).
    max_expansions:
        Cap on heap pops per bounding-path search; see
        :func:`repro.algorithms.dijkstra.vfrag_label_search`.
        ``DTLPStatistics.truncated_searches`` counts the searches it cut
        short.
    partitioner:
        Which partitioner :meth:`DTLP.build` uses when no pre-computed
        partition is supplied: ``"bfs"`` (the paper's Section 3.3 sweep)
        or ``"mincut"`` (the multilevel min-cut partitioner of
        :mod:`repro.graph.partition_ml`).  Ignored when a partition is
        passed explicitly.
    """

    z: int = 200
    xi: int = 5
    directed: bool = False
    max_expansions: int = 20_000
    partitioner: str = "bfs"


@dataclass
class DTLPStatistics:
    """Statistics reported by :meth:`DTLP.statistics`.

    These map one-to-one onto the columns reported in Table 1 and the series
    plotted in Figures 15-23 of the paper.
    """

    num_vertices: int = 0
    num_edges: int = 0
    num_subgraphs: int = 0
    num_subgraphs_with_many_boundaries: int = 0
    num_boundary_vertices: int = 0
    skeleton_vertices: int = 0
    skeleton_edges: int = 0
    num_bounding_paths: int = 0
    ep_index_entries: int = 0
    ep_index_bytes: int = 0
    skeleton_bytes: int = 0
    truncated_searches: int = 0
    build_seconds: float = 0.0
    last_maintenance_seconds: float = 0.0

    @property
    def mfp_bytes(self) -> int:
        """Always 0: the Section 4 MFP-tree forest is not built.  Kept only
        for ``perf/ladder.py``; a ``benchmark`` change drops that read."""
        return 0

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a plain dictionary (for reports)."""
        return dict(self.__dict__)


class DTLP:
    """The Distributed Two-Level Path index over a dynamic graph.

    Parameters
    ----------
    graph:
        The dynamic graph to index.
    config:
        Index parameters; see :class:`DTLPConfig`.
    partition:
        Optional pre-computed partition.  When omitted the graph is
        partitioned with :func:`repro.graph.partition.partition_graph`
        using ``config.z``.

    Examples
    --------
    >>> from repro.graph import road_network
    >>> from repro.core import DTLP, DTLPConfig
    >>> graph = road_network(8, 8, seed=1)
    >>> dtlp = DTLP(graph, DTLPConfig(z=12, xi=3)).build()
    >>> dtlp.skeleton_graph.num_vertices > 0
    True
    """

    def __init__(
        self,
        graph: DynamicGraph,
        config: Optional[DTLPConfig] = None,
        partition: Optional[GraphPartition] = None,
    ) -> None:
        self._graph = graph
        self._config = config or DTLPConfig()
        if self._config.directed != graph.directed:
            # Directedness follows the graph: a directed graph always uses
            # the directed index and vice versa.
            self._config = replace(self._config, directed=graph.directed)
        self._partition = partition
        # The graph topology the partition and everything built on it
        # describe; see _check_structure.
        self._structure_version = graph.structure_version
        self._subgraph_indexes: Dict[int, SubgraphIndex] = {}
        # Lazily built per-subgraph kernel snapshots, shared by every
        # consumer (KSP-DG refine, distributed bolts) and refreshed
        # incrementally instead of re-adapting the mutable graph per call:
        # the epoch fold leaves each cached snapshot's changed edges in its
        # bucket (edge -> latest (u, v, weight)), applied on its next read.
        self._subgraph_snapshots: Dict[int, CSRSnapshot] = {}
        self._snapshot_changes: Dict[int, Dict[Tuple[int, int], Tuple[int, int, float]]] = {}
        self._skeleton = SkeletonGraph(directed=self._config.directed)
        self._built = False
        self._build_seconds = 0.0
        self._last_maintenance_seconds = 0.0
        self._attached = False
        # Per-subgraph weight epochs: a subgraph's epoch advances only when
        # an edge it contains changed weight, derived lazily from the
        # graph's change feed.  Epochs key the cross-query partial-KSP
        # memo below, so a maintenance round invalidates exactly the
        # touched subgraphs.
        self._weight_epochs: Dict[int, int] = {}
        self._weight_epoch_version = graph.version
        # The graph version the bounding-path prices and skeleton weights
        # reflect; see handle_updates and attach.
        self._priced_version = graph.version
        self._epoch_lock = threading.Lock()
        # Made once with the indexes: everything no round or query writes,
        # shared by this index's copies in the process (see IndexLayout).
        self._layout: Optional[IndexLayout] = None
        # Per global edge id of the layout, the weight the last fold saw.
        self._fold_weights: List[float] = []
        # (subgraph_id, ordered pair, k) -> (epoch, partial k shortest
        # paths).  Shared by KSP-DG queries and the SubgraphBolts; a
        # subgraph's entries are dropped when its epoch advances.
        self._partial_memo: Dict[
            Tuple[int, Tuple[int, int], int], Tuple[int, Tuple[Path, ...]]
        ] = {}
        # Shared kernel view of the un-augmented skeleton graph, refreshed
        # by graph-version compare, plus what is derived from it per weight
        # epoch: the search image every query overlays its endpoints on.
        self._skeleton_kernel_snapshot: Optional[CSRSnapshot] = None
        self._skeleton_kernel_version: int = -1
        self._skeleton_image: Optional[SkeletonSearchView] = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        """The indexed graph."""
        return self._graph

    @property
    def config(self) -> DTLPConfig:
        """The index configuration."""
        return self._config

    @property
    def partition(self) -> GraphPartition:
        """The graph partition underlying the index."""
        if self._partition is None:
            raise IndexStateError("DTLP.build() must run before accessing the partition")
        return self._partition

    @property
    def skeleton_graph(self) -> SkeletonGraph:
        """The second-level skeleton graph ``G_lambda``."""
        if not self._built:
            raise IndexStateError("DTLP.build() must run before accessing the skeleton graph")
        return self._skeleton

    @property
    def built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._built

    @property
    def layout(self) -> IndexLayout:
        """The index's fixed structure, shared by its in-process copies."""
        if self._layout is None:
            raise IndexStateError("DTLP.build() must run before accessing the layout")
        return self._layout

    @property
    def build_seconds(self) -> float:
        """Wall-clock duration of the last :meth:`build` call."""
        return self._build_seconds

    @property
    def last_maintenance_seconds(self) -> float:
        """Wall-clock duration of the last :meth:`handle_updates` call."""
        return self._last_maintenance_seconds

    def subgraph_index(self, subgraph_id: int) -> SubgraphIndex:
        """The first-level index of one subgraph."""
        try:
            return self._subgraph_indexes[subgraph_id]
        except KeyError:
            raise IndexStateError(
                f"no index for subgraph {subgraph_id}; was DTLP.build() called?"
            ) from None

    def subgraph_indexes(self) -> Mapping[int, SubgraphIndex]:
        """All per-subgraph indexes keyed by subgraph id."""
        return dict(self._subgraph_indexes)

    def subgraph_snapshot(self, subgraph_id: int) -> CSRSnapshot:
        """A current kernel snapshot of one subgraph (built lazily, cached).

        The snapshot is shared across queries and iterations: the first
        access pays the CSR build, later ones compare versions and, when the
        graph moved, rewrite the arcs of this subgraph's own changed edges
        — bucketed by the one walk of the change feed per graph version
        (:meth:`_advance_weight_epochs`), so a round costs O(changed edges)
        over all snapshots together.  This is the array-backed fast path of
        the refine step; the :class:`~repro.graph.subgraph.Subgraph` object
        itself remains the dict-based reference (see ``ARCHITECTURE.md``).
        """
        if self._partition is None:
            raise IndexStateError("DTLP.build() must run before snapshots are read")
        with self._epoch_lock:
            # Fold first: a snapshot built below already holds every change
            # up to the version the fold stops at.
            self._advance_weight_epochs()
            snapshot = self._subgraph_snapshots.get(subgraph_id)
            if snapshot is None:
                snapshot = CSRSnapshot(self._partition.subgraph(subgraph_id))
                self._subgraph_snapshots[subgraph_id] = snapshot
            elif snapshot.version != self._weight_epoch_version:
                snapshot.apply_changes(
                    self._snapshot_changes.pop(subgraph_id, {}).values(),
                    self._weight_epoch_version,
                )
        return snapshot

    # ------------------------------------------------------------------
    # cross-query reuse: weight epochs, partial-KSP memo
    # ------------------------------------------------------------------
    def subgraph_weights_epoch(self, subgraph_id: int) -> int:
        """Epoch counter of one subgraph's weights.

        Advances exactly when an edge contained in the subgraph changed
        weight, derived lazily from the graph's
        :meth:`~repro.graph.graph.DynamicGraph.edges_changed_since` feed.
        Serves as the invalidation key of every cross-query cache: two
        reads returning the same epoch guarantee the subgraph's weights
        did not change in between.  Thread-safe (concurrent query batches
        read epochs while the graph is quiescent; the lock makes the lazy
        advance race-free regardless).
        """
        with self._epoch_lock:
            self._advance_weight_epochs()
            return self._weight_epochs.get(subgraph_id, 0)

    def _check_structure(self) -> None:
        """Refuse to serve a graph whose topology moved under the index."""
        if self._graph.structure_version != self._structure_version:
            raise StaleStructureError(
                "vertices or edges were added to the graph after this DTLP "
                "was built; call DTLP.build() again"
            )

    def _advance_weight_epochs(self) -> None:
        """Fold graph changes since the last look into per-subgraph state
        (the lazy fold of a detached index; an attached one folds in
        :meth:`handle_updates`).  Callers hold ``_epoch_lock``."""
        self._check_structure()
        if self._graph.version != self._weight_epoch_version:
            self._fold(self._graph.edges_changed_since(self._weight_epoch_version))

    def _fold(
        self, changes: Iterable[Tuple[int, int, float]], regroup: bool = False
    ) -> Dict[int, List[Tuple[int, float]]]:
        """The one walk of the change feed per graph version.  Files each
        ``(u, v, weight)`` under its owner's cached snapshot, if any;
        if the weight differs from the last fold's, bumps the epochs its
        slot names and, with ``regroup``, groups ``(edge id, weight)`` under
        the owner.  Callers hold ``_epoch_lock``."""
        slots = self._layout.edge_slots
        fold_weights = self._fold_weights
        snapshots = self._subgraph_snapshots
        pending = self._snapshot_changes
        groups: Dict[int, List[Tuple[int, float]]] = {}
        bumped: Set[int] = set()
        for u, v, weight in changes:
            slot, owner, edge, bumps = slots[(u, v)]
            if owner in snapshots:
                pending.setdefault(owner, {})[(u, v)] = (u, v, weight)
            if weight != fold_weights[slot]:
                fold_weights[slot] = weight
                bumped.update(bumps)
                if regroup:
                    groups.setdefault(owner, []).append((edge, weight))
        epochs = self._weight_epochs
        for subgraph_id in bumped:
            epochs[subgraph_id] = epochs.get(subgraph_id, 0) + 1
        if bumped:
            # A memo entry of a dead epoch can never hit again; drop it now
            # rather than when the FIFO cap reaches it.
            memo = self._partial_memo
            for key in [key for key in list(memo) if key[0] in bumped]:
                memo.pop(key, None)
        self._weight_epoch_version = self._graph.version
        return groups

    def partial_memo_get(
        self, subgraph_id: int, pair: Tuple[int, int], k: int
    ) -> Optional[List[Path]]:
        """Memoised partial k shortest paths for one (subgraph, pair, k).

        Returns ``None`` on a miss or when the stored entry predates the
        subgraph's current weight epoch.  Hits return the exact paths a
        fresh computation would produce (Yen is deterministic and the
        epoch pins the weights), so reuse is invisible in results — it
        only removes recompute.
        """
        entry = self._partial_memo.get((subgraph_id, pair, k))
        if entry is None:
            return None
        epoch, paths = entry
        if epoch != self.subgraph_weights_epoch(subgraph_id):
            return None
        return list(paths)

    def partial_memo_put(
        self, subgraph_id: int, pair: Tuple[int, int], k: int, paths: Sequence[Path]
    ) -> None:
        """Store one partial-KSP result under the subgraph's current epoch."""
        memo = self._partial_memo
        if len(memo) >= _PARTIAL_MEMO_LIMIT:
            try:
                memo.pop(next(iter(memo)), None)
            except (StopIteration, RuntimeError):  # racing eviction/clear
                pass
        memo[(subgraph_id, pair, k)] = (
            self.subgraph_weights_epoch(subgraph_id),
            tuple(paths),
        )

    def skeleton_snapshot(self) -> CSRSnapshot:
        """Shared kernel snapshot of the un-augmented skeleton graph.

        Built lazily, refreshed by one graph-version compare (the skeleton
        itself is unversioned, so maintenance-driven weight changes are
        detected through the parent graph's version — the same scheme the
        QueryBolts used per-bolt before this cache centralised it).
        """
        if not self._built:
            raise IndexStateError("DTLP.build() must run before snapshots are read")
        version = self._graph.version
        snapshot = self._skeleton_kernel_snapshot
        if snapshot is None or snapshot.source is not self._skeleton:
            snapshot = CSRSnapshot(self._skeleton)
            self._skeleton_kernel_snapshot = snapshot
            self._skeleton_kernel_version = version
        elif self._skeleton_kernel_version != version:
            snapshot.refresh()
            self._skeleton_kernel_version = version
        return snapshot

    def skeleton_search_view(self) -> SkeletonSearchView:
        """Per-epoch search image of the shared skeleton snapshot.

        Built lazily on the first query and again whenever
        :meth:`skeleton_snapshot` was rebuilt or its weights epoch moved;
        queries only ever read it (:meth:`SkeletonSearchView.overlay`
        copies), so one image serves every QueryBolt of the process.
        """
        snapshot = self.skeleton_snapshot()
        image = self._skeleton_image
        if (
            image is None
            or image.source is not snapshot
            or image.weights_epoch != snapshot.weights_epoch
        ):
            image = SkeletonSearchView(snapshot)
            self._skeleton_image = image
        return image

    def reference_enumerator(
        self,
        source: int,
        target: int,
        attachments: Optional[Mapping[int, Mapping[int, float]]] = None,
        direct_edge: Optional[float] = None,
        kernel: str = "snapshot",
        pruning: bool = True,
    ) -> LazyYen:
        """Filter-step set-up (Section 5.3): the reference-path enumerator.

        ``attachments`` maps each non-boundary query endpoint to its
        ``{boundary_vertex: lower_bound}`` edges and ``direct_edge`` is the
        within-subgraph distance between endpoints sharing a subgraph; the
        enumeration runs on the skeleton graph with both added.

        With ``kernel="dict"`` that graph is the reference tier,
        :meth:`SkeletonGraph.augmented`, searched unbounded.  The array
        kernels search a per-query overlay of :meth:`skeleton_search_view`
        instead — the same paths in the same order, see
        :class:`SkeletonSearchView` — and, with ``pruning``, the enumerator
        is ``bounded``: it owns one resumable search from ``target`` on that
        view, finds the first reference path under h(source) and every
        later one under the Theorem 3 bound the query installs, settling
        only what those bounds reach.  Attachments the image has no room
        for (more than two new vertices in one id gap, which a query's two
        endpoints never are) get the rebuilt snapshot.
        """
        direct = (
            (source, target, direct_edge)
            if attachments and direct_edge is not None and source != target
            else None
        )
        if kernel == "dict":
            skeleton = self.skeleton_graph
            if attachments:
                skeleton = self._augmented_skeleton(attachments, direct)
            return LazyYen(skeleton, source, target)
        view = self.skeleton_search_view()
        if attachments:
            view = view.overlay(attachments, direct)
            if view is None:
                # More new vertices than the image has room for: rebuild.
                view = CSRSnapshot(self._augmented_skeleton(attachments, direct))
        return LazyYen(view, source, target, bounded=pruning)

    def _augmented_skeleton(
        self,
        attachments: Mapping[int, Mapping[int, float]],
        direct: Optional[Tuple[int, int, float]],
    ) -> SkeletonGraph:
        """A copy of the skeleton graph with the query endpoints attached."""
        augmented = self._skeleton.augmented(attachments)
        if direct is not None:
            # Endpoints sharing a subgraph need a direct skeleton edge so
            # that paths staying inside it are represented.
            augmented.update_edge_minimum(*direct)
        return augmented

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def build(
        self, prebuilt_indexes: Optional[Mapping[int, SubgraphIndex]] = None
    ) -> "DTLP":
        """Construct the full two-level index (Algorithm 1).

        The graph is partitioned first when no partition was given, or when
        vertices or edges were added since the one held was made.

        Parameters
        ----------
        prebuilt_indexes:
            Optional already-built first-level indexes, keyed by subgraph
            id and covering exactly the partition's subgraphs.  Used by the
            parallel construction path
            (:func:`repro.distributed.engine.distributed_build_report`
            with a concurrent executor): the per-subgraph builds happen in
            executor workers and are adopted here.  Each index is rebound
            to this DTLP's live subgraph objects, so indexes built from a
            pickled copy of the graph stay maintainable afterwards.
        """
        started = time.perf_counter()
        structure_version = self._graph.structure_version
        if self._partition is None or structure_version != self._structure_version:
            self._partition = make_partition(
                self._graph, self._config.z, partitioner=self._config.partitioner
            )
            self._structure_version = structure_version
        self._subgraph_indexes.clear()
        self._subgraph_snapshots.clear()
        self._snapshot_changes.clear()
        self._partial_memo.clear()
        self._skeleton_kernel_snapshot = None
        self._skeleton_kernel_version = -1
        self._skeleton_image = None
        with self._epoch_lock:
            self._weight_epochs.clear()
            self._weight_epoch_version = self._priced_version = self._graph.version
        if prebuilt_indexes is not None:
            expected = {s.subgraph_id for s in self._partition.subgraphs}
            if set(prebuilt_indexes) != expected:
                raise IndexStateError(
                    "prebuilt indexes do not cover the partition: got "
                    f"{sorted(prebuilt_indexes)}, expected {sorted(expected)}"
                )
            for subgraph in self._partition.subgraphs:
                index = prebuilt_indexes[subgraph.subgraph_id]
                if not index.built:
                    raise IndexStateError(
                        f"prebuilt index for subgraph {subgraph.subgraph_id} "
                        "was never built"
                    )
                index.rebind(subgraph)
                self._subgraph_indexes[subgraph.subgraph_id] = index
        else:
            for subgraph in self._partition.subgraphs:
                index = SubgraphIndex(
                    subgraph,
                    xi=self._config.xi,
                    directed=self._config.directed,
                    max_expansions=self._config.max_expansions,
                ).build()
                self._subgraph_indexes[subgraph.subgraph_id] = index
        self._rebuild_skeleton()
        self._freeze_layout()
        self._built = True
        self._build_seconds = time.perf_counter() - started
        return self

    @classmethod
    def assemble(
        cls,
        graph: DynamicGraph,
        config: DTLPConfig,
        partition: GraphPartition,
        indexes: Mapping[int, SubgraphIndex],
        skeleton: Optional[SkeletonGraph] = None,
    ) -> "DTLP":
        """Construct a *built* DTLP from restored components.

        This is the partition store's load path: the expensive first-level
        indexes arrive already built (restored through
        :meth:`SubgraphIndex.from_state` against the live partition), so
        assembly only validates coverage, installs the indexes and either
        adopts the stored ``skeleton`` or recomputes it from the indexes'
        lower bounds — both orders of magnitude cheaper than the
        bounding-path searches :meth:`build` runs.
        """
        started = time.perf_counter()
        dtlp = cls(graph, config, partition)
        expected = {s.subgraph_id for s in partition.subgraphs}
        if set(indexes) != expected:
            raise IndexStateError(
                "restored indexes do not cover the partition: got "
                f"{sorted(indexes)}, expected {sorted(expected)}"
            )
        for subgraph in partition.subgraphs:
            index = indexes[subgraph.subgraph_id]
            if not index.built:
                raise IndexStateError(
                    f"restored index for subgraph {subgraph.subgraph_id} "
                    "was never built"
                )
            index.rebind(subgraph)
            dtlp._subgraph_indexes[subgraph.subgraph_id] = index
        if skeleton is not None:
            dtlp._skeleton = skeleton
        else:
            dtlp._rebuild_skeleton()
        dtlp._freeze_layout()
        dtlp._built = True
        dtlp._build_seconds = time.perf_counter() - started
        return dtlp

    def _rebuild_skeleton(self) -> None:
        """Recompute every skeleton edge from the per-subgraph lower bounds."""
        skeleton = SkeletonGraph(directed=self._config.directed)
        assert self._partition is not None
        for vertex in self._partition.boundary_vertices:
            skeleton.add_vertex(vertex)
        for index in self._subgraph_indexes.values():
            for (source, target), value in index.lower_bound_distances().items():
                skeleton.update_edge_minimum(source, target, value)
        self._skeleton = skeleton

    def _freeze_layout(self) -> None:
        """Make the :class:`IndexLayout` of the built indexes: the partition
        and the indexes' tables laid out in index space for maintenance
        rounds.  An edge bumps the epoch of every subgraph holding both
        endpoints: only boundary vertices are shared, so that is the owner
        alone unless both are boundary vertices."""
        partition = self._partition
        assert partition is not None
        boundary = partition.boundary_vertices
        edge_slots, fold_weights, pair_owners = {}, [], {}
        for owner, index in self._subgraph_indexes.items():
            alone = (owner,)
            for (u, v), edge in index.edge_ids.items():
                both = u in boundary and v in boundary
                bumps = partition.subgraphs_containing_pair(u, v) if both else alone
                edge_slots[(u, v)] = (len(fold_weights), owner, edge, bumps)
                fold_weights.append(self._graph.weight(u, v))
            for number, pair in enumerate(index.boundary_pairs()):
                pair_owners.setdefault(pair, []).append((owner, number))
        self._fold_weights = fold_weights
        self._layout = IndexLayout(
            partition.layout,
            tuple(index.tables for index in self._subgraph_indexes.values()),
            edge_slots,
            {pair: tuple(owners) for pair, owners in pair_owners.items()},
        )

    # ------------------------------------------------------------------
    # pickling (replicas and process workers get the index this way)
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        # Locks are process-local; caches (the memo and the kernel
        # snapshots, whose rows embed weights) are cheap to rebuild and
        # pinning them to the sender's epochs buys nothing.
        state["_epoch_lock"] = None
        state["_partial_memo"] = {}
        state["_subgraph_snapshots"] = {}
        state["_snapshot_changes"] = {}
        state["_skeleton_kernel_snapshot"] = None
        state["_skeleton_kernel_version"] = -1
        state["_skeleton_image"] = None
        if self._layout is not None:
            # A built index travels as its layout (a token where this
            # process already holds it, see IndexLayout) plus what each
            # copy writes; the partition and the indexes are views over the
            # layout, made again on arrival.
            state["_partition"] = None
            state["_subgraph_indexes"] = {
                subgraph_id: index.own_state()
                for subgraph_id, index in self._subgraph_indexes.items()
            }
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._epoch_lock = threading.Lock()
        layout = self._layout
        if layout is not None:
            self._partition = partition = GraphPartition.view(self._graph, layout.partition)
            self._subgraph_indexes = {
                subgraph_id: SubgraphIndex.view(
                    partition.subgraph(subgraph_id), layout.tables[subgraph_id], own
                )
                for subgraph_id, own in state["_subgraph_indexes"].items()
            }

    # ------------------------------------------------------------------
    # maintenance (Algorithm 2)
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        """Whether the index is registered as a graph update listener."""
        return self._attached

    def attach(self) -> "DTLP":
        """Register :meth:`handle_updates` as a listener on the graph.

        An index whose prices are older than the graph (built, restored or
        detached before the graph moved) first catches up with one round
        over every edge changed since, so it never serves stale bounds.
        Idempotent: attaching twice keeps a single registration, and an
        index already registered directly via
        ``graph.add_listener(dtlp.handle_updates)`` is recognised and not
        registered a second time (which would double maintenance work), so
        callers that receive a possibly-already-maintained index (the
        serving layer, the CLI) can call this unconditionally.
        Returns ``self`` for chaining with :meth:`build`.
        """
        if not self._attached:
            self.catch_up()
            if not self._graph.has_listener(self.handle_updates):
                self._graph.add_listener(self.handle_updates)
            self._attached = True
        return self

    def catch_up(self) -> None:
        """Re-price an index whose graph moved without it.

        An index never attached, or detached, keeps the prices of the
        version it last saw.  When that version is behind the graph's, one
        :meth:`handle_updates` round (under the epoch lock) re-prices every
        edge changed since — the round :meth:`attach` opens with.  A current
        index costs one compare, so the query entry points
        (:meth:`KSPDG.query`, the topology's batch entry) call it serially
        before they search or fan out.
        """
        if self._built and self._priced_version != self._graph.version:
            self.handle_updates(())

    def detach(self) -> None:
        """Unregister the index from the graph (no-op when not attached)."""
        if self._attached:
            self._graph.remove_listener(self.handle_updates)
            self._attached = False

    def handle_updates(self, updates: Sequence[WeightUpdate]) -> float:
        """Refresh the index after a batch of edge-weight updates.

        Can be registered directly as a graph listener::

            graph.add_listener(dtlp.handle_updates)

        One round of Algorithm 2 in index space (ARCHITECTURE.md, "A round
        in index space"): the edges changed since the priced version — or,
        when the prices already claim the graph's version (a store restored
        at save-time weights), the edges of ``updates`` — are grouped per
        owner, each owner re-prices (:meth:`SubgraphIndex.reprice`) and the
        skeleton weights of its pairs are set.

        Returns the wall-clock time spent, which the maintenance-cost
        experiments (Figures 19-23) report.
        """
        if not self._built:
            raise IndexStateError("DTLP.build() must run before updates are applied")
        started = time.perf_counter()
        graph = self._graph
        with self._epoch_lock:
            self._check_structure()
            priced = self._priced_version
            if priced == self._weight_epoch_version < graph.version:
                # Every attached round: one walk folds and groups.
                groups = self._fold(graph.edges_changed_since(priced), regroup=True)
            else:
                self._advance_weight_epochs()
                changed = (
                    graph.edges_changed_since(priced) if priced < graph.version
                    else ((u.u, u.v, graph.weight(u.u, u.v)) for u in updates)
                )
                groups = {}
                for u, v, weight in changed:
                    key = (u, v) if graph.directed or u <= v else (v, u)
                    _, owner, edge, _ = self._layout.edge_slots[key]
                    groups.setdefault(owner, []).append((edge, weight))
            indexes = self._subgraph_indexes
            for owner, changes in groups.items():
                indexes[owner].reprice(changes)
            self._refresh_skeleton_for_subgraphs(groups)
            self._priced_version = graph.version
        elapsed = time.perf_counter() - started
        self._last_maintenance_seconds = elapsed
        return elapsed

    def _refresh_skeleton_for_subgraphs(self, subgraph_ids: Iterable[int]) -> None:
        """Set the skeleton weight of every pair the given subgraphs hold:
        the minimum of its holders' Theorem 1 bounds."""
        pair_owners = self._layout.pair_owners
        indexes = self._subgraph_indexes
        set_edge = self._skeleton.set_edge
        done: Set[Tuple[int, int]] = set()
        for subgraph_id in subgraph_ids:
            for pair in indexes[subgraph_id].boundary_pairs():
                if pair in done:
                    continue
                done.add(pair)
                bounds = [indexes[owner].pair_bounds[number]
                          for owner, number in pair_owners[pair]]
                bounds = [bound for bound in bounds if bound is not None]
                if bounds:
                    set_edge(pair[0], pair[1], min(bounds))

    # ------------------------------------------------------------------
    # queries used by KSP-DG
    # ------------------------------------------------------------------
    def attachment_edges(self, vertex: int, kernel: str = "dict") -> Dict[int, float]:
        """Lower-bound edges connecting ``vertex`` to the skeleton graph.

        For a boundary vertex the result is empty (it is already part of the
        skeleton graph).  For a non-boundary vertex the result maps each
        boundary vertex of the vertex's subgraph to a lower bound of the
        within-subgraph distance, as required by Section 5.3.

        With ``kernel="snapshot"`` the one-to-many searches run on the
        shared subgraph snapshots (bit-identical distances, array speed);
        the default keeps the dict-based reference path.
        """
        assert self._partition is not None
        if self._partition.is_boundary(vertex):
            return {}
        edges: Dict[int, float] = {}
        for subgraph_id in self._partition.subgraphs_of_vertex(vertex):
            index = self._subgraph_indexes[subgraph_id]
            view = self.subgraph_snapshot(subgraph_id) if kernel != "dict" else None
            for boundary, distance in index.lower_bounds_from_vertex(
                vertex, view=view
            ).items():
                current = edges.get(boundary)
                if current is None or distance < current:
                    edges[boundary] = distance
        return edges

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def statistics(self) -> DTLPStatistics:
        """Return the size and cost statistics of the index."""
        if not self._built:
            raise IndexStateError("DTLP.build() must run before statistics are read")
        assert self._partition is not None
        stats = DTLPStatistics()
        stats.num_vertices = self._graph.num_vertices
        stats.num_edges = self._graph.num_edges
        stats.num_subgraphs = self._partition.num_subgraphs
        stats.num_subgraphs_with_many_boundaries = (
            self._partition.subgraphs_with_min_boundary(5)
        )
        stats.num_boundary_vertices = len(self._partition.boundary_vertices)
        stats.skeleton_vertices = self._skeleton.num_vertices
        stats.skeleton_edges = self._skeleton.num_edges
        stats.num_bounding_paths = sum(
            index.num_bounding_paths() for index in self._subgraph_indexes.values()
        )
        stats.ep_index_entries = sum(
            index.ep_index.num_entries() for index in self._subgraph_indexes.values()
        )
        stats.ep_index_bytes = sum(
            index.memory_estimate_bytes() for index in self._subgraph_indexes.values()
        )
        stats.skeleton_bytes = self._skeleton.memory_estimate_bytes()
        stats.truncated_searches = sum(
            index.truncated_searches for index in self._subgraph_indexes.values()
        )
        stats.build_seconds = self._build_seconds
        stats.last_maintenance_seconds = self._last_maintenance_seconds
        return stats
