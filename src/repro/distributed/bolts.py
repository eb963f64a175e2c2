"""Storm-style processing components: EntranceSpout, SubgraphBolt, QueryBolt.

Section 6.1 of the paper deploys KSP-DG on Apache Storm as a topology with
three component types.  The simulated runtime keeps the same decomposition:

* :class:`EntranceSpout` — runs on the master, receives edge-weight updates
  and incoming KSP queries, routes updates to the SubgraphBolt owning the
  affected subgraph and assigns each query to a QueryBolt.
* :class:`SubgraphBolt` — runs on a worker; owns one or more subgraphs and
  their first-level DTLP indexes; answers two kinds of requests: weight
  updates (index maintenance) and reference-path broadcasts (computes the
  partial k shortest paths for the adjacent vertex pairs it can serve).
* :class:`QueryBolt` — runs on a worker; holds a replica of the skeleton
  graph, computes reference paths, broadcasts them, merges the returned
  partial paths into candidate KSPs and applies the termination test.

Every piece of computation is timed with ``time.perf_counter`` and charged to
the hosting worker through the :class:`~repro.distributed.cluster.SimulatedCluster`,
and every inter-component message is charged as communication, so aggregate
metrics reproduce the cost analysis of Section 5.6.

Bolts compute on the kernel selected at topology construction (see
``ARCHITECTURE.md``): with the array-backed kernels (``"snapshot"`` and the
batch-native ``"fast"`` tier) each SubgraphBolt reads its subgraphs through
the DTLP's shared snapshot cache (persisted across micro-batches, refreshed
incrementally after ``apply_updates``) and each QueryBolt searches a
per-query overlay of the DTLP's shared skeleton search view
(:meth:`~repro.core.dtlp.DTLP.reference_enumerator`); ``"fast"`` additionally
routes large attachment one-to-many searches through the wavefront kernel
(distance-identical, tie-order free).

Bolts charge their work through an object with the
:class:`~repro.distributed.cluster.SimulatedCluster` interface — under
concurrent execution backends the topology hands them a
:class:`~repro.distributed.cluster.ClusterAccountant` that routes each
task's charges into a private ledger, keeping the accounting exact (see
``ARCHITECTURE.md``, "Placement vs. Executor").  During a concurrent batch
the bolts' shared kernel snapshots must not be refreshed mid-flight; the
topology calls :meth:`SubgraphBolt.sync_kernel_caches` /
:meth:`QueryBolt.sync_kernel_caches` once, serially, before fanning out, so
all snapshot accesses inside the batch are read-only.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..algorithms.yen import LazyYen, yen_k_shortest_paths
from ..core.dtlp import DTLP
from ..core.ksp_dg import (
    goal_directed_distance,
    validate_heuristic_for_kernel,
    validate_kernel,
)
from ..graph.errors import ClusterError, PathNotFoundError
from ..graph.graph import WeightUpdate
from ..graph.paths import Path, merge_paths
from ..kernel.snapshot import CSRSnapshot
from ..obs.profile import KernelCounters
from ..obs.profile import activate as activate_profiling
from ..obs.profile import deactivate as deactivate_profiling
from ..obs.trace import Span, begin_trace, end_trace, mark, pop_span, push_span
from ..workloads.queries import KSPQuery
from .cluster import SimulatedCluster

__all__ = ["EntranceSpout", "SubgraphBolt", "QueryBolt"]


class SubgraphBolt:
    """Worker component owning a set of subgraphs and their indexes."""

    def __init__(
        self,
        name: str,
        worker_id: int,
        cluster: SimulatedCluster,
        dtlp: DTLP,
        subgraph_ids: Sequence[int],
        kernel: str = "snapshot",
        heuristic: str = "none",
        pruning: bool = True,
    ) -> None:
        self.name = name
        self.worker_id = worker_id
        self._cluster = cluster
        self._dtlp = dtlp
        self._partition = dtlp.partition
        self._kernel = validate_kernel(kernel)
        self._heuristic = validate_heuristic_for_kernel(heuristic, self._kernel)
        self._pruning = pruning
        self.subgraph_ids: Set[int] = set(subgraph_ids)
        worker = cluster.worker(worker_id)
        worker.host(name)
        for subgraph_id in self.subgraph_ids:
            worker.charge_memory(
                dtlp.subgraph_index(subgraph_id).memory_estimate_bytes()
            )

    def _subgraph_view(self, subgraph_id: int):
        """The compute view of one owned subgraph under the selected kernel.

        Snapshots live in the shared DTLP cache, so they persist across
        micro-batches and are refreshed incrementally after
        ``apply_updates`` instead of being rebuilt per query.
        """
        if self._kernel != "dict":
            return self._dtlp.subgraph_snapshot(subgraph_id)
        return self._partition.subgraph(subgraph_id)

    def sync_kernel_caches(self) -> None:
        """Build/refresh the owned subgraphs' shared snapshots, serially.

        Called by the topology before a concurrent batch so that every
        snapshot is already current and all accesses during the batch are
        read-only (refresh would otherwise race between tasks).  With a
        heuristic mode active the per-subgraph lower-bound providers are
        warmed here too — landmark tables are expensive enough that two
        threads lazily building them for the same subgraph mid-batch would
        duplicate real work.
        """
        if self._kernel == "dict":
            return
        for subgraph_id in self.subgraph_ids:
            self._dtlp.subgraph_snapshot(subgraph_id)
            if self._pruning and self._heuristic != "none":
                self._dtlp.subgraph_lower_bounds(subgraph_id, self._heuristic)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def handle_weight_updates(self, subgraph_id: int, updates: Sequence[WeightUpdate]) -> None:
        """Apply weight updates to one of the owned subgraph indexes."""
        if subgraph_id not in self.subgraph_ids:
            raise ClusterError(
                f"{self.name} does not own subgraph {subgraph_id}"
            )
        started = time.perf_counter()
        self._dtlp.subgraph_index(subgraph_id).apply_updates(updates)
        elapsed = time.perf_counter() - started
        worker = self._cluster.worker(self.worker_id)
        worker.charge_compute(elapsed)
        worker.charge_subgraph(subgraph_id, elapsed)
        metrics = self._cluster.metrics
        metrics.counter("bolt_update_batches_total").inc()
        metrics.counter("bolt_updates_applied_total").inc(len(updates))

    # ------------------------------------------------------------------
    # query support
    # ------------------------------------------------------------------
    def partial_ksps_for_reference(
        self, reference_path: Path, k: int
    ) -> Dict[Tuple[int, int], List[Path]]:
        """Partial k shortest paths for the reference-path pairs this bolt serves.

        For every pair of adjacent vertices on the reference path, if any of
        the subgraphs owned by this bolt contains both vertices, Yen's
        algorithm is run inside those subgraphs and the best ``k`` results
        per pair are returned.

        With pruning enabled, per-(subgraph, pair, k) results are reused
        across queries and refinement rounds through the DTLP's weight-epoch
        memo, and fresh computations run with upper-bound pruning plus the
        configured lower-bound heuristic.  Reused results are bit-identical
        to recomputation, and every subgraph still receives exactly one
        ``charge_subgraph`` per served pair, so the deterministic load
        telemetry (``subgraph_tasks``) and message accounting stay identical
        on every execution backend regardless of memo warmth.
        """
        started = time.perf_counter()
        results: Dict[Tuple[int, int], List[Path]] = {}
        vertices = reference_path.vertices
        memo_hits = 0
        memo_misses = 0
        partials_span = push_span("partials", bolt=self.name)
        for index in range(len(vertices) - 1):
            pair = (vertices[index], vertices[index + 1])
            owners = set(self._partition.subgraphs_containing_pair(*pair))
            local_owners = owners & self.subgraph_ids
            if not local_owners:
                continue
            # The per-pair span aggregates across owning subgraphs: spans are
            # keyed to the deterministic reference-path pair order, never to
            # set iteration order.
            pair_span = push_span("pair", _kernel=True, u=pair[0], v=pair[1])
            pair_hits = 0
            collected: List[Path] = []
            for subgraph_id in local_owners:
                sub_started = time.perf_counter()
                try:
                    memo = (
                        self._dtlp.partial_memo_get(subgraph_id, pair, k)
                        if self._pruning
                        else None
                    )
                    if memo is not None:
                        pair_hits += 1
                        collected.extend(memo)
                        continue
                    subgraph = self._subgraph_view(subgraph_id)
                    heuristic = (
                        self._dtlp.subgraph_lower_bounds(subgraph_id, self._heuristic)
                        if self._pruning and isinstance(subgraph, CSRSnapshot)
                        else None
                    )
                    try:
                        paths = yen_k_shortest_paths(
                            subgraph, pair[0], pair[1], k,
                            prune=self._pruning, heuristic=heuristic,
                        )
                    except PathNotFoundError:
                        paths = []
                    if self._pruning:
                        self._dtlp.partial_memo_put(subgraph_id, pair, k, paths)
                    if not paths:
                        continue
                    collected.extend(paths)
                finally:
                    self._cluster.worker(self.worker_id).charge_subgraph(
                        subgraph_id, time.perf_counter() - sub_started
                    )
            memo_hits += pair_hits
            memo_misses += len(local_owners) - pair_hits
            if pair_span is not None:
                pair_span.args["memo_hits"] = pair_hits
                pair_span.args["computed"] = len(local_owners) - pair_hits
            pop_span(pair_span)
            if not collected:
                continue
            collected.sort()
            deduplicated: List[Path] = []
            seen: Set[Tuple[int, ...]] = set()
            for path in collected:
                if path.vertices in seen:
                    continue
                seen.add(path.vertices)
                deduplicated.append(path)
                if len(deduplicated) >= k:
                    break
            results[pair] = deduplicated
        if partials_span is not None:
            partials_span.args["pairs"] = len(results)
        pop_span(partials_span)
        self._cluster.worker(self.worker_id).charge_compute(time.perf_counter() - started)
        metrics = self._cluster.metrics
        metrics.counter("bolt_partial_pairs_total").inc(len(results))
        if memo_hits:
            metrics.counter("dtlp_memo_hits_total").inc(memo_hits)
        if memo_misses:
            metrics.counter("dtlp_memo_misses_total").inc(memo_misses)
        return results

    def attachment_bounds(self, vertex: int) -> Dict[int, float]:
        """Step-1 support: lower bounds from a non-boundary vertex.

        Computes, within every owned subgraph containing ``vertex``, the
        distances from the vertex to the subgraph's boundary vertices.
        """
        started = time.perf_counter()
        attach_span = push_span("attach", _kernel=True, bolt=self.name, vertex=vertex)
        bounds: Dict[int, float] = {}
        for subgraph_id in self.subgraph_ids:
            subgraph = self._partition.subgraph(subgraph_id)
            if vertex not in subgraph.vertices:
                continue
            sub_started = time.perf_counter()
            index = self._dtlp.subgraph_index(subgraph_id)
            view = (
                self._dtlp.subgraph_snapshot(subgraph_id)
                if self._kernel != "dict"
                else None
            )
            for boundary, distance in index.lower_bounds_from_vertex(
                vertex, view=view, fast=self._kernel == "fast"
            ).items():
                current = bounds.get(boundary)
                if current is None or distance < current:
                    bounds[boundary] = distance
            self._cluster.worker(self.worker_id).charge_subgraph(
                subgraph_id, time.perf_counter() - sub_started
            )
        if attach_span is not None:
            attach_span.args["boundaries"] = len(bounds)
        pop_span(attach_span)
        self._cluster.worker(self.worker_id).charge_compute(time.perf_counter() - started)
        self._cluster.metrics.counter("bolt_attachment_probes_total").inc()
        return bounds

    def direct_distance(self, source: int, target: int) -> Optional[float]:
        """Within-subgraph distance between two vertices sharing an owned subgraph.

        Distance-only probe: with a heuristic mode active it runs the
        goal-directed A* kernel (exact distances are tie-independent, so the
        f-ordered search cannot perturb results); otherwise the plain
        early-exit Dijkstra.
        """
        started = time.perf_counter()
        direct_span = push_span("direct", _kernel=True, bolt=self.name)
        best: Optional[float] = None
        for subgraph_id in self.subgraph_ids:
            subgraph = self._partition.subgraph(subgraph_id)
            if source not in subgraph.vertices or target not in subgraph.vertices:
                continue
            sub_started = time.perf_counter()
            value = goal_directed_distance(
                self._dtlp,
                subgraph_id,
                self._subgraph_view(subgraph_id),
                source,
                target,
                self._heuristic,
                self._pruning,
            )
            if value is not None and (best is None or value < best):
                best = value
            self._cluster.worker(self.worker_id).charge_subgraph(
                subgraph_id, time.perf_counter() - sub_started
            )
        if direct_span is not None:
            direct_span.args["found"] = best is not None
        pop_span(direct_span)
        self._cluster.worker(self.worker_id).charge_compute(time.perf_counter() - started)
        self._cluster.metrics.counter("bolt_direct_probes_total").inc()
        return best


class QueryBolt:
    """Worker component that owns queries end to end."""

    def __init__(
        self,
        name: str,
        worker_id: int,
        cluster: SimulatedCluster,
        dtlp: DTLP,
        subgraph_bolts: Sequence[SubgraphBolt],
        k_default: int = 2,
        kernel: str = "snapshot",
        heuristic: str = "none",
        pruning: bool = True,
    ) -> None:
        self.name = name
        self.worker_id = worker_id
        self._cluster = cluster
        self._dtlp = dtlp
        self._partition = dtlp.partition
        self._subgraph_bolts = list(subgraph_bolts)
        self._k_default = k_default
        self._kernel = validate_kernel(kernel)
        self._heuristic = validate_heuristic_for_kernel(heuristic, self._kernel)
        self._pruning = pruning
        worker = cluster.worker(worker_id)
        worker.host(name)
        worker.charge_memory(dtlp.skeleton_graph.memory_estimate_bytes())
        self.queries_processed = 0
        # Guards the counter above: concurrent backends may process several
        # queries routed to this bolt at once.
        self._counter_lock = threading.Lock()

    def set_subgraph_bolts(self, subgraph_bolts: Sequence[SubgraphBolt]) -> None:
        """Replace the set of SubgraphBolts this QueryBolt fans out to.

        Used by the topology when workers fail and their subgraphs are
        re-hosted on the survivors.
        """
        self._subgraph_bolts = list(subgraph_bolts)

    def sync_kernel_caches(self) -> None:
        """Build/refresh the shared skeleton-replica search view, serially.

        Called by the topology before a concurrent batch; afterwards the
        shared snapshot and the search image derived from it (hosted on the
        DTLP, one per process) are current for the batch's graph version,
        so concurrent queries only ever read them.
        """
        if self._kernel != "dict":
            self._dtlp.skeleton_search_view()

    # ------------------------------------------------------------------
    # query processing (Step 2 of Figure 14)
    # ------------------------------------------------------------------
    def process_query(
        self,
        query: KSPQuery,
        attachments: Optional[Dict[int, Dict[int, float]]] = None,
        direct_edge: Optional[float] = None,
    ) -> "QueryBoltResult":
        """Run the iterative KSP-DG loop for one query.

        Parameters
        ----------
        query:
            The KSP query.
        attachments:
            Step-1 output: skeleton attachments for non-boundary endpoints.
        direct_edge:
            Optional direct lower-bound edge weight between the endpoints
            when they share a subgraph and at least one is non-boundary.
        """
        worker = self._cluster.worker(self.worker_id)
        started = time.perf_counter()
        enumerator = self._dtlp.reference_enumerator(
            query.source,
            query.target,
            attachments,
            direct_edge,
            kernel=self._kernel,
            pruning=self._pruning,
        )
        worker.charge_compute(time.perf_counter() - started)

        top_paths: List[Path] = []
        seen: Set[Tuple[int, ...]] = set()
        partial_cache: Dict[Tuple[int, int], List[Path]] = {}
        iterations = 0
        reference = self._next_reference(enumerator, worker)
        while reference is not None:
            iterations += 1
            iteration_span = push_span("iteration", index=iterations)
            try:
                # Broadcast the reference path to all SubgraphBolts (communication).
                for bolt in self._subgraph_bolts:
                    self._cluster.send(self.worker_id, bolt.worker_id, len(reference.vertices))
                mark(
                    "broadcast",
                    bolts=len(self._subgraph_bolts),
                    units=len(reference.vertices),
                )
                # Each SubgraphBolt computes the partial paths it can serve.
                pair_paths: Dict[Tuple[int, int], List[Path]] = {}
                needed_pairs = self._pairs_needing_work(reference, partial_cache)
                serving_bolts = self._subgraph_bolts if needed_pairs else ()
                for bolt in serving_bolts:
                    bolt_result = bolt.partial_ksps_for_reference(reference, query.k)
                    for pair, paths in bolt_result.items():
                        if pair not in needed_pairs:
                            continue
                        existing = pair_paths.setdefault(pair, [])
                        existing.extend(paths)
                        # Communication back to this QueryBolt.
                        units = sum(len(path.vertices) for path in paths)
                        self._cluster.send(bolt.worker_id, self.worker_id, units)
                for pair, paths in pair_paths.items():
                    paths.sort()
                    deduplicated: List[Path] = []
                    seen_partial: Set[Tuple[int, ...]] = set()
                    for path in paths:
                        if path.vertices in seen_partial:
                            continue
                        seen_partial.add(path.vertices)
                        deduplicated.append(path)
                        if len(deduplicated) >= query.k:
                            break
                    partial_cache[pair] = deduplicated
                # Merge partial paths into candidate complete paths.
                merge_start = time.perf_counter()
                candidates = self._merge_candidates(reference, partial_cache, query.k)
                for candidate in candidates:
                    if candidate.vertices in seen:
                        continue
                    seen.add(candidate.vertices)
                    top_paths.append(candidate)
                top_paths.sort()
                del top_paths[query.k:]
                worker.charge_compute(time.perf_counter() - merge_start)
                mark("merge", candidates=len(candidates), top=len(top_paths))

                kth = (
                    top_paths[query.k - 1].distance
                    if len(top_paths) >= query.k
                    else float("inf")
                )
                if self._pruning and top_paths:
                    # Theorem 3 stops the loop at the first reference path no
                    # shorter than the k-th candidate; longer reference paths
                    # are never consumed, so the enumerator may prune them.
                    enumerator.set_upper_bound(kth)
                next_reference = self._next_reference(enumerator, worker)
                if next_reference is None:
                    break
                if top_paths and kth <= next_reference.distance:
                    break
                reference = next_reference
            finally:
                pop_span(iteration_span)
        with self._counter_lock:
            self.queries_processed += 1
        metrics = self._cluster.metrics
        metrics.counter("bolt_queries_total").inc()
        metrics.counter("bolt_iterations_total").inc(iterations)
        metrics.histogram(
            "query_iterations", help="KSP-DG refinement rounds per query"
        ).observe(float(iterations))
        return QueryBoltResult(
            query=query,
            paths=top_paths,
            iterations=iterations,
        )

    def _next_reference(self, enumerator: LazyYen, worker) -> Optional[Path]:
        started = time.perf_counter()
        try:
            reference = enumerator.next_path()
        except (StopIteration, PathNotFoundError):
            reference = None
        worker.charge_compute(time.perf_counter() - started)
        return reference

    def _pairs_needing_work(
        self, reference: Path, cache: Dict[Tuple[int, int], List[Path]]
    ) -> Set[Tuple[int, int]]:
        vertices = reference.vertices
        return {
            (vertices[index], vertices[index + 1])
            for index in range(len(vertices) - 1)
            if (vertices[index], vertices[index + 1]) not in cache
        }

    def _merge_candidates(
        self,
        reference: Path,
        cache: Dict[Tuple[int, int], List[Path]],
        k: int,
    ) -> List[Path]:
        vertices = reference.vertices
        merged: Optional[List[Path]] = None
        for index in range(len(vertices) - 1):
            pair = (vertices[index], vertices[index + 1])
            partials = cache.get(pair, [])
            if not partials:
                return []
            if merged is None:
                merged = list(partials[:k])
                continue
            combined: List[Path] = []
            for prefix in merged:
                for extension in partials:
                    joined = prefix.vertices + extension.vertices[1:]
                    if len(set(joined)) != len(joined):
                        continue
                    combined.append(merge_paths(prefix, extension))
            combined.sort()
            merged = combined[:k]
            if not merged:
                return []
        return merged or []


class QueryBoltResult:
    """Outcome of one query processed by a QueryBolt.

    ``trace`` carries the query's finished span tree when the topology ran
    the query under tracing (see :meth:`EntranceSpout.submit_query_observed`);
    it travels on the result so process-replica executors ship it back to
    the master with the paths.
    """

    def __init__(
        self,
        query: KSPQuery,
        paths: List[Path],
        iterations: int,
        trace: Optional[Span] = None,
    ) -> None:
        self.query = query
        self.paths = paths
        self.iterations = iterations
        self.trace = trace


class EntranceSpout:
    """Master component: receives updates and queries and routes them."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        dtlp: DTLP,
        subgraph_bolts: Sequence[SubgraphBolt],
        query_bolts: Sequence[QueryBolt],
    ) -> None:
        self._cluster = cluster
        self._dtlp = dtlp
        self._partition = dtlp.partition
        self._subgraph_bolts = list(subgraph_bolts)
        self._query_bolts = list(query_bolts)
        self._bolt_by_subgraph: Dict[int, SubgraphBolt] = {}
        for bolt in self._subgraph_bolts:
            for subgraph_id in bolt.subgraph_ids:
                self._bolt_by_subgraph[subgraph_id] = bolt
        self._next_query_bolt = 0
        cluster.master.host("entrance-spout")

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def submit_weight_updates(self, updates: Sequence[WeightUpdate]) -> None:
        """Route a batch of weight updates to the owning SubgraphBolts.

        Also refreshes the skeleton-graph replica (second-level index) after
        the per-subgraph maintenance completes, charging the work to the
        master, which mirrors the paper's description of the skeleton graph
        being kept consistent across QueryBolts.
        """
        started = time.perf_counter()
        updates_by_subgraph: Dict[int, List[WeightUpdate]] = {}
        for update in updates:
            owner = self._partition.owner_of_edge(update.u, update.v)
            updates_by_subgraph.setdefault(owner, []).append(update)
        self._cluster.master.charge_compute(time.perf_counter() - started)
        for subgraph_id, batch in updates_by_subgraph.items():
            bolt = self._bolt_by_subgraph[subgraph_id]
            self._cluster.send(SimulatedCluster.MASTER_ID, bolt.worker_id, len(batch))
            bolt.handle_weight_updates(subgraph_id, batch)
        # Skeleton refresh (aggregation of lower bound distances).
        started = time.perf_counter()
        self._dtlp._refresh_skeleton_for_subgraphs(set(updates_by_subgraph))
        self._cluster.master.charge_compute(time.perf_counter() - started)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def submit_query(
        self, query: KSPQuery, route_index: Optional[int] = None
    ) -> QueryBoltResult:
        """Process one query through Step 1 (if needed) and Step 2.

        Parameters
        ----------
        query:
            The KSP query.
        route_index:
            Global submission index used for deterministic round-robin
            QueryBolt selection.  The topology supplies it so that replica
            spouts inside executor worker processes route each query to the
            same bolt the serial reference would; when omitted the spout
            falls back to its own internal counter (direct use).
        """
        attachments: Dict[int, Dict[int, float]] = {}
        direct_edge: Optional[float] = None
        step1_span = push_span("step1")
        for endpoint in {query.source, query.target}:
            if self._partition.is_boundary(endpoint):
                continue
            owners = self._partition.subgraphs_of_vertex(endpoint)
            bounds: Dict[int, float] = {}
            for subgraph_id in owners:
                bolt = self._bolt_by_subgraph[subgraph_id]
                self._cluster.send(SimulatedCluster.MASTER_ID, bolt.worker_id, 2)
                bolt_bounds = bolt.attachment_bounds(endpoint)
                self._cluster.send(bolt.worker_id, SimulatedCluster.MASTER_ID, len(bolt_bounds))
                for boundary, distance in bolt_bounds.items():
                    current = bounds.get(boundary)
                    if current is None or distance < current:
                        bounds[boundary] = distance
            attachments[endpoint] = bounds
        if attachments and query.source != query.target:
            shared = set(self._partition.subgraphs_of_vertex(query.source)) & set(
                self._partition.subgraphs_of_vertex(query.target)
            )
            for subgraph_id in shared:
                bolt = self._bolt_by_subgraph[subgraph_id]
                value = bolt.direct_distance(query.source, query.target)
                if value is not None and (direct_edge is None or value < direct_edge):
                    direct_edge = value
        if step1_span is not None:
            step1_span.args["attachments"] = len(attachments)
            step1_span.args["direct_edge"] = direct_edge is not None
        pop_span(step1_span)

        if route_index is None:
            route_index = self._next_query_bolt
            self._next_query_bolt += 1
        query_bolt = self._query_bolts[route_index % len(self._query_bolts)]
        self._cluster.send(SimulatedCluster.MASTER_ID, query_bolt.worker_id, 3)
        self._cluster.metrics.counter("spout_queries_total").inc()
        route_span = push_span("route", bolt=query_bolt.name)
        try:
            result = query_bolt.process_query(query, attachments or None, direct_edge)
        finally:
            pop_span(route_span)
        if route_span is not None:
            route_span.args["iterations"] = result.iterations
        return result

    def submit_query_observed(
        self,
        query: KSPQuery,
        route_index: Optional[int] = None,
        trace: bool = False,
        profile: bool = False,
    ) -> QueryBoltResult:
        """Process one query with optional span tracing and kernel profiling.

        With both switches off this is exactly :meth:`submit_query`.  With
        ``trace`` the query runs under a fresh root span whose finished tree
        rides back on ``result.trace``; with ``profile`` a per-query
        :class:`~repro.obs.profile.KernelCounters` collector is active for
        the duration and its totals fold into the cluster metrics registry
        (riding the executor ledger absorb path, so totals stay
        deterministic across backends).  Both are scoped to the current
        thread, which is what keeps concurrent batch tasks isolated.
        """
        if not trace and not profile:
            return self.submit_query(query, route_index=route_index)
        counters: Optional[KernelCounters] = None
        if profile:
            counters = KernelCounters()
            activate_profiling(counters)
        root: Optional[Span] = None
        if trace:
            root = Span(
                "query",
                {
                    "route_index": route_index,
                    "source": query.source,
                    "target": query.target,
                    "k": query.k,
                },
            )
            begin_trace(root)
        try:
            result = self.submit_query(query, route_index=route_index)
        finally:
            if trace:
                end_trace()
            if counters is not None:
                deactivate_profiling()
                counters.fold_into(self._cluster.metrics)
        if root is not None:
            root.args["iterations"] = result.iterations
            if counters is not None:
                root.args["kernel"] = counters.as_dict()
            result.trace = root
        return result
