"""The layer ladder: the same queries timed at every public boundary.

Each rung answers the same distinct queries on its own pickled
``(graph, dtlp)`` pair after the same warm-up, on this thread, and reports
the median per query.  Distinct keys and a private pair per rung mean
every rung computes every answer (the one exception, ``service.hit_ms``,
is the second pass over a filled cache), so a rung minus the rung below
is the tax of the layer between them.  The rungs also have to agree:
every boundary must return the same distances, and whole-graph Yen the
same on the queries it runs.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro.algorithms import shortest_path, yen_k_shortest_paths
from repro.core import DTLP, KSPDG
from repro.distributed import StormTopology
from repro.graph import DynamicGraph
from repro.kernel import CSRSnapshot
from repro.store import PartitionStore
from repro.workloads import KSPQuery

from . import stack
from .oracle import close

WARM_QUERIES = 20
LADDER_QUERIES = 100
#: Whole-graph Yen costs 0.2-0.3 s per query on ``L``; every 5th is enough
#: for a median and keeps the ladder inside the run's budget.
YEN_EVERY = 5
BATCH = 8

Distances = Tuple[float, ...]


def _timed_ms(call: Callable[[], object]) -> Tuple[float, object]:
    started = time.perf_counter()
    result = call()
    return (time.perf_counter() - started) * 1e3, result


def _distances(paths) -> Distances:
    return tuple(path.distance for path in paths)


def setup_path(network: str, out_dir: Path) -> Tuple[Dict[str, float], DynamicGraph, DTLP, stack.Stack]:
    """One set-up, timed piece by piece through the public build calls."""
    metrics: Dict[str, float] = {}

    def timed(name: str, call: Callable[[], object]):
        elapsed_ms, result = _timed_ms(call)
        metrics[name] = elapsed_ms / 1e3
        return result

    graph = timed("graph.generate_s", lambda: stack.generate(network))
    partition = timed("graph.partition_s", lambda: stack.partition(graph))
    metrics["graph.boundary_vertices"] = float(len(partition.boundary_vertices))
    dtlp = timed("core.build_s", lambda: stack.build_index(graph, partition))
    serving = timed("frontdoor.stack_s", lambda: stack.Stack(graph, dtlp))
    try:
        statistics_ = dtlp.statistics()
        metrics["core.index_mb"] = (
            statistics_.ep_index_bytes + statistics_.skeleton_bytes + statistics_.mfp_bytes
        ) / 2**20
        store_dir = out_dir / f"store-{network}-{time.time_ns()}"
        try:
            store = timed("store.save_s", lambda: PartitionStore.save(dtlp, store_dir))
            bare_graph = stack.copy_graph(graph)
            timed("store.load_s", lambda: store.load(bare_graph))
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
    except BaseException:
        serving.close()
        raise
    return metrics, graph, dtlp, serving


def run(
    graph: DynamicGraph,
    dtlp: DTLP,
    warm: Sequence[KSPQuery],
    queries: Sequence[KSPQuery],
) -> Tuple[Dict[str, float], int, List[str]]:
    """Climb the ladder.  Returns the metrics, how many answers were
    cross-checked, and a description of each disagreement found."""
    metrics: Dict[str, float] = {}
    answers: Dict[str, Dict[KSPQuery, Distances]] = {}

    def rung(name: str, answer: Callable[[KSPQuery], Distances], subset=queries) -> None:
        for query in warm:
            answer(query)
        timings = []
        answers[name] = {}
        for query in subset:
            elapsed_ms, answers[name][query] = _timed_ms(lambda: answer(query))
            timings.append(elapsed_ms)
        metrics[name] = statistics.median(timings)

    # kernel: one point-to-point search on the array snapshot.
    snapshot = CSRSnapshot(stack.copy_graph(graph))
    rung(
        "kernel.sssp_ms",
        lambda q: (shortest_path(snapshot, q.source, q.target).distance,),
    )

    # algorithms: whole-graph Yen, the baseline KSP-DG has to beat.
    snapshot = CSRSnapshot(stack.copy_graph(graph))
    rung(
        "algorithms.yen_ms",
        lambda q: _distances(yen_k_shortest_paths(snapshot, q.source, q.target, q.k)),
        subset=queries[::YEN_EVERY],
    )

    # core: KSP-DG on the index, no topology.
    engine = KSPDG(stack.copy_pair(graph, dtlp)[1])
    iterations, partials = [], []

    def core(query: KSPQuery) -> Distances:
        result = engine.query(query.source, query.target, query.k)
        iterations.append(result.iterations)
        partials.append(result.partial_computations)
        return _distances(result.paths)

    rung("core.query_ms", core)
    metrics["core.iterations_per_query"] = statistics.fmean(iterations[len(warm):])
    metrics["core.partials_per_query"] = statistics.fmean(partials[len(warm):])

    # distributed: the simulated topology, one query per batch...
    topology = StormTopology(
        stack.copy_pair(graph, dtlp)[1], num_workers=stack.NUM_WORKERS, executor="serial"
    )
    communication = []

    def distributed(query: KSPQuery) -> Distances:
        report = topology.run_queries([query])
        communication.append(report.communication_units)
        return _distances(report.results[0].paths)

    try:
        rung("distributed.query_ms", distributed)
    finally:
        topology.close()
    metrics["distributed.comm_units_per_query"] = statistics.fmean(communication[len(warm):])

    # ...and in batches of 8, the service's micro-batch size.
    topology = StormTopology(
        stack.copy_pair(graph, dtlp)[1], num_workers=stack.NUM_WORKERS, executor="serial"
    )
    try:
        topology.run_queries(list(warm))
        per_query = []
        for start in range(0, len(queries) - BATCH + 1, BATCH):
            batch = list(queries[start:start + BATCH])
            elapsed_ms, _ = _timed_ms(lambda: topology.run_queries(batch))
            per_query.append(elapsed_ms / BATCH)
        metrics["distributed.batch8_ms_per_query"] = statistics.median(per_query)
    finally:
        topology.close()

    # service: admission + micro-batch + cache, first pass misses, second hits.
    service = stack.make_service(*stack.copy_pair(graph, dtlp))

    def served(query: KSPQuery) -> Distances:
        service.submit(query)
        return _distances(service.process_batch()[0].paths)

    try:
        rung("service.miss_ms", served)
        hits = [_timed_ms(lambda: served(query))[0] for query in queries]
        metrics["service.hit_ms"] = statistics.median(hits)
    finally:
        service.close()

    # frontdoor: the same queries over loopback HTTP on a stack of its own.
    serving = stack.Stack(graph, dtlp)

    def requested(query: KSPQuery) -> Distances:
        result = serving.client.query(
            query.source, query.target, k=query.k, budget_ms=stack.DEADLINE_MS
        )
        return tuple(path["distance"] for path in result.paths)

    try:
        rung("frontdoor.request_ms", requested)
    finally:
        serving.close()
    metrics["frontdoor.tax_ms"] = metrics["frontdoor.request_ms"] - metrics["service.miss_ms"]

    # Every boundary must tell the same story (the kernel only the first
    # path's part of it).
    reference = answers["core.query_ms"]
    disagreements: List[str] = []
    checked = 0
    for name, collected in answers.items():
        for query, got in collected.items():
            checked += 1
            want = reference[query][:1] if name == "kernel.sssp_ms" else reference[query]
            if len(got) != len(want) or not all(map(close, got, want)):
                disagreements.append(
                    f"{name} {query.source}->{query.target}: {got} vs core {want}"
                )
    return metrics, checked, disagreements
