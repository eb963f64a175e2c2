"""Storm-style processing components: EntranceSpout, SubgraphBolt, QueryBolt.

Section 6.1 of the paper deploys KSP-DG on Apache Storm as a topology with
three component types.  The simulated runtime keeps the same decomposition:

* :class:`EntranceSpout` — runs on the master, receives incoming KSP
  queries, runs Step 1 for non-boundary endpoints and assigns each query to
  a QueryBolt.
* :class:`SubgraphBolt` — runs on a worker; owns one or more subgraphs and
  their first-level DTLP indexes; answers Step-1 probes and reference-path
  broadcasts (computes the partial k shortest paths for the adjacent vertex
  pairs it can serve).
* :class:`QueryBolt` — runs on a worker; holds a replica of the skeleton
  graph, computes reference paths, broadcasts them, merges the returned
  partial paths into candidate KSPs and applies the termination test.

The algorithm itself is not repeated here.  A QueryBolt runs the one
filter/refine loop, :meth:`repro.core.ksp_dg.KSPDGQuery.run`, handing it
"broadcast to my SubgraphBolts and gather" as the partials provider and its
worker's ``charge_compute`` as the phase hooks; a SubgraphBolt solves each
pair it owns through the same :func:`repro.core.ksp_dg.solve_pair` the
in-process engine uses.  What this module adds is placement: who owns which
subgraph, which messages cross workers, and who is charged.

Weight updates take no route through these components.  The paper's spout
routes them to the owning SubgraphBolts (Section 6.1); here every serving
process holds the whole index, so the graph applies a round and the index
hears it once through :meth:`~repro.core.dtlp.DTLP.handle_updates` — as a
graph listener, through :meth:`~repro.core.dtlp.DTLP.catch_up` before the
next batch, or through a worker-process replica's sync.

Every piece of computation is timed with ``time.perf_counter`` and charged to
the hosting worker through the :class:`~repro.distributed.cluster.SimulatedCluster`,
and every inter-component message is charged as communication, so aggregate
metrics reproduce the cost analysis of Section 5.6.

Bolts search in the :class:`~repro.core.ksp_dg.SearchMode` chosen at
topology construction (see ``ARCHITECTURE.md``): with the array-backed
``"snapshot"`` kernel each SubgraphBolt reads its subgraphs through
the DTLP's shared snapshot cache (persisted across micro-batches, refreshed
incrementally after each maintenance round) and each QueryBolt searches a
per-query overlay of the DTLP's shared skeleton search view
(:meth:`~repro.core.dtlp.DTLP.reference_enumerator`).

Bolts charge their work through an object with the
:class:`~repro.distributed.cluster.SimulatedCluster` interface — under
concurrent execution backends the topology hands them a
:class:`~repro.distributed.cluster.ClusterAccountant` that routes each
task's charges into a private ledger, keeping the accounting exact (see
``ARCHITECTURE.md``, "Placement vs. Executor").
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..core.dtlp import DTLP
from ..core.ksp_dg import (
    KSPDGQuery,
    Pair,
    SearchMode,
    best_k_distinct,
    direct_distance,
    solve_pair,
)
from ..graph.paths import Path
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
        mode: SearchMode = SearchMode(),
    ) -> None:
        self.name = name
        self.worker_id = worker_id
        self._cluster = cluster
        self._dtlp = dtlp
        self._partition = dtlp.partition
        self._mode = mode
        self.subgraph_ids: Set[int] = set(subgraph_ids)
        worker = cluster.worker(worker_id)
        for subgraph_id in self.subgraph_ids:
            worker.charge_memory(
                dtlp.subgraph_index(subgraph_id).memory_estimate_bytes()
            )

    # ------------------------------------------------------------------
    # query support
    # ------------------------------------------------------------------
    def partial_ksps_for_reference(
        self, needed: Sequence[Pair], k: int
    ) -> Dict[Pair, List[Path]]:
        """Partial k shortest paths for the reference-path pairs this bolt serves.

        ``needed`` lists the adjacent vertex pairs of the broadcast
        reference path that the QueryBolt has no partials for yet, in path
        order.  For each of them, if any of the subgraphs owned by this
        bolt contains both vertices, the pair is solved inside those
        subgraphs (:func:`~repro.core.ksp_dg.solve_pair`: weight-epoch memo,
        else pruned Yen) and the best ``k`` results per pair are returned.
        Pairs an earlier reference path of the query already brought in are
        not solved again.

        Memo hits are bit-identical to recomputation, so the answers and the
        message accounting are identical on every execution backend
        regardless of memo warmth.
        """
        started = time.perf_counter()
        worker = self._cluster.worker(self.worker_id)
        results: Dict[Pair, List[Path]] = {}
        memo_hits = 0
        memo_misses = 0
        partials_span = push_span("partials", bolt=self.name)

        for pair in needed:
            local_owners = (
                set(self._partition.subgraphs_containing_pair(*pair)) & self.subgraph_ids
            )
            if not local_owners:
                continue
            # The per-pair span aggregates across owning subgraphs: spans are
            # keyed to the deterministic reference-path pair order, never to
            # set iteration order.
            pair_span = push_span("pair", _kernel=True, u=pair[0], v=pair[1])
            collected, pair_hits = solve_pair(
                self._dtlp, self._mode, pair, k, local_owners
            )
            memo_hits += pair_hits
            memo_misses += len(local_owners) - pair_hits
            if pair_span is not None:
                pair_span.args["memo_hits"] = pair_hits
                pair_span.args["computed"] = len(local_owners) - pair_hits
            pop_span(pair_span)
            if collected:
                results[pair] = best_k_distinct(collected, k)
        if partials_span is not None:
            partials_span.args["pairs"] = len(results)
        pop_span(partials_span)
        worker.charge_compute(time.perf_counter() - started)
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
        owners = self.subgraph_ids.intersection(
            self._partition.subgraphs_of_vertex(vertex)
        )
        for subgraph_id in sorted(owners):
            index = self._dtlp.subgraph_index(subgraph_id)
            kernel = self._mode.kernel
            view = (
                self._dtlp.subgraph_snapshot(subgraph_id) if kernel != "dict" else None
            )
            for boundary, distance in index.lower_bounds_from_vertex(
                vertex, view=view
            ).items():
                current = bounds.get(boundary)
                if current is None or distance < current:
                    bounds[boundary] = distance
        if attach_span is not None:
            attach_span.args["boundaries"] = len(bounds)
        pop_span(attach_span)
        self._cluster.worker(self.worker_id).charge_compute(time.perf_counter() - started)
        self._cluster.metrics.counter("bolt_attachment_probes_total").inc()
        return bounds

    def direct_distance(self, source: int, target: int) -> Optional[float]:
        """Within-subgraph distance between two vertices sharing an owned subgraph.

        The minimum of :func:`~repro.core.ksp_dg.direct_distance` over the
        owned subgraphs containing both.
        """
        started = time.perf_counter()
        direct_span = push_span("direct", _kernel=True, bolt=self.name)
        best: Optional[float] = None
        for subgraph_id in self._partition.subgraphs_containing_pair(source, target):
            if subgraph_id not in self.subgraph_ids:
                continue
            value = direct_distance(self._dtlp, subgraph_id, source, target, self._mode)
            if value is not None and (best is None or value < best):
                best = value
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
        mode: SearchMode = SearchMode(),
    ) -> None:
        self.name = name
        self.worker_id = worker_id
        self._cluster = cluster
        self._dtlp = dtlp
        self._subgraph_bolts = list(subgraph_bolts)
        self._mode = mode
        worker = cluster.worker(worker_id)
        worker.charge_memory(dtlp.skeleton_graph.memory_estimate_bytes())
        self.queries_processed = 0
        # Guards the counter above: concurrent backends may process several
        # queries routed to this bolt at once.
        self._counter_lock = threading.Lock()

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

        The loop is :meth:`repro.core.ksp_dg.KSPDGQuery.run`; this bolt
        supplies the refine step's partial paths by fan-out
        (:meth:`_gather_partials`) and charges every filter step, the
        enumerator set-up and every merge to its worker.

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
        evaluation = KSPDGQuery(
            self._dtlp,
            query.source,
            query.target,
            query.k,
            self._mode,
            attachments,
            direct_edge,
            partials=self._gather_partials,
            on_reference_path=lambda _path, seconds: worker.charge_compute(seconds),
            on_merge=worker.charge_compute,
        )
        worker.charge_compute(time.perf_counter() - started)
        result = evaluation.run()
        with self._counter_lock:
            self.queries_processed += 1
        metrics = self._cluster.metrics
        metrics.counter("bolt_queries_total").inc()
        metrics.counter("bolt_iterations_total").inc(result.iterations)
        metrics.histogram(
            "query_iterations", help="KSP-DG refinement rounds per query"
        ).observe(float(result.iterations))
        return QueryBoltResult(
            query=query,
            paths=result.paths,
            iterations=result.iterations,
        )

    def _gather_partials(
        self, reference: Path, needed: Sequence[Pair], k: int
    ) -> Dict[Pair, List[Path]]:
        """The loop's partials provider: broadcast, let the bolts solve, gather.

        The reference path goes to every SubgraphBolt each iteration (the
        paper's broadcast, charged whether or not any pair is new); each
        bolt solves the ``needed`` pairs it owns and its reply is charged
        back in vertex units.
        """
        units = len(reference.vertices)
        for bolt in self._subgraph_bolts:
            self._cluster.send(self.worker_id, bolt.worker_id, units)
        mark("broadcast", bolts=len(self._subgraph_bolts), units=units)
        gathered: Dict[Pair, List[Path]] = {}
        for bolt in self._subgraph_bolts if needed else ():
            for pair, paths in bolt.partial_ksps_for_reference(needed, k).items():
                gathered.setdefault(pair, []).extend(paths)
                self._cluster.send(
                    bolt.worker_id, self.worker_id, sum(len(path.vertices) for path in paths)
                )
        return gathered


@dataclass
class QueryBoltResult:
    """Outcome of one query processed by a QueryBolt.

    ``trace`` carries the query's finished span tree when the topology ran
    the query under tracing (see :meth:`EntranceSpout.submit_query_observed`);
    it travels on the result so process-replica executors ship it back to
    the master with the paths.
    """

    query: KSPQuery
    paths: List[Path]
    iterations: int
    trace: Optional[Span] = None


class EntranceSpout:
    """Master component: runs Step 1 and routes each query to a QueryBolt;
    weight updates never pass through it (see the module docstring)."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        dtlp: DTLP,
        subgraph_bolts: Sequence[SubgraphBolt],
        query_bolts: Sequence[QueryBolt],
    ) -> None:
        self._cluster = cluster
        self._partition = dtlp.partition
        self._query_bolts = list(query_bolts)
        self._bolt_by_subgraph: Dict[int, SubgraphBolt] = {}
        for bolt in subgraph_bolts:
            for subgraph_id in bolt.subgraph_ids:
                self._bolt_by_subgraph[subgraph_id] = bolt
        self._next_query_bolt = 0

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
