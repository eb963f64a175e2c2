"""Command-line interface for the library.

The CLI exposes the main workflows without writing Python code::

    python -m repro generate  --dataset NY --out ny.gr
    python -m repro partition --dataset NY --z 48 --partitioner mincut --out store/
    python -m repro stats    --dataset NY --z 48 --xi 5
    python -m repro query    --dataset NY --source 0 --target 200 --k 3
    python -m repro bench    --dataset NY --num-queries 20 --workers 4
    python -m repro replay   --dataset NY --num-queries 500 --update-rounds 50
    python -m repro serve    --dataset NY --epochs 10 --queries-per-epoch 40
    python -m repro serve-http --dataset NY --replicas 2 --port 8080
    python -m repro loadtest --dataset NY --replicas 2 --slo-ms 250

``generate`` writes a synthetic road network in DIMACS ``.gr`` format;
``partition`` partitions the graph (``--partitioner {bfs,mincut}``), builds
the DTLP index and saves a partition store (:mod:`repro.store`) that
``bench``/``replay``/``serve`` reload with ``--store DIR`` for an O(load)
cold start (an omitted ``--partitioner`` follows the store's record);
``stats`` builds a DTLP index and prints its statistics;
``query`` answers a
single KSP query (and cross-checks it against Yen's algorithm); ``bench``
runs a query batch on the simulated cluster and prints the cost report.
``replay`` replays a reproducible mixed update/query trace through the
online serving layer (:mod:`repro.service`) and prints the service report;
``serve-http`` runs the resilient HTTP front door (:mod:`repro.frontdoor`)
over N independent service replicas — rendezvous routing, deadline budgets,
circuit breakers and degraded-mode serving; ``loadtest`` drives an
in-process front door to its saturation knee and then scores availability
under a seeded replica fault plan (exit codes: 1 wrong answers, 2
availability below the floor, 3 no breaker trip with
``--require-breaker-trip``);
``serve`` runs the serving loop epoch by epoch (one traffic snapshot plus
one query wave per epoch), printing rolling per-epoch lines and the final
report.  Every command accepts either ``--dataset`` (one of NY, COL, FLA,
CUSA, a scaled synthetic analogue) or ``--gr`` (path to a DIMACS file);
``bench``, ``replay`` and ``serve`` additionally accept
``--executor {serial,process}`` to pick the physical execution
backend (worker processes hold resident index replicas; see
``ARCHITECTURE.md``, "Execution backends"); ``replay``/``serve`` accept
``--kernel {snapshot,dict}`` to pick the compute path, which the printed
service report echoes back.

Observability (see ``ARCHITECTURE.md``, "Observability"): ``replay`` and
``serve`` accept ``--trace FILE`` to export a per-query span trace as Chrome
trace-event JSON (load it in Perfetto, or render it with ``repro trace
FILE``) and ``--metrics`` to print the Prometheus-style metrics exposition
after the report; ``stats --metrics`` runs a small profiled query probe and
prints the kernel/bolt counter exposition; ``bench --profile`` gains
``--profile-out FILE`` to write the raw pstats dump for offline analysis.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from typing import Optional, Sequence

from .algorithms import yen_k_shortest_paths
from .bench.reporting import format_table
from .core import DTLP, DTLPConfig, KSPDG
from .distributed import KSPDGEngine, StormTopology
from .dynamics import TrafficModel
from .exec import EXECUTORS, default_executor_name
from .graph import DynamicGraph, dataset, read_gr, write_gr
from .graph.errors import ExecutorError
from .obs.trace import TraceSession, render_tree, trees_from_chrome
from .service import KSPService, ServiceOverloadedError, generate_trace, replay
from .workloads import FindKSPEngine, QueryEngine, QueryGenerator, YenEngine

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Create the argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KSP-DG / DTLP: k shortest path queries over dynamic road networks",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_graph_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--dataset", choices=["NY", "COL", "FLA", "CUSA"],
                         help="generate a scaled synthetic analogue of a paper dataset")
        sub.add_argument("--gr", help="path to a DIMACS .gr file to load instead")
        sub.add_argument("--scale", type=float, default=1.0,
                         help="scale factor for the synthetic dataset (default 1.0)")
        sub.add_argument("--seed", type=int, default=7, help="random seed")
        sub.add_argument("--directed", action="store_true",
                         help="treat the network as a directed graph")

    def add_executor_argument(sub: argparse.ArgumentParser, help: str) -> None:
        # No argparse default: $REPRO_EXECUTOR applies (checked in main)
        # only when the flag is omitted.
        sub.add_argument("--executor", choices=list(EXECUTORS), default=None,
                         help=f"{help}; defaults to $REPRO_EXECUTOR or serial")

    generate = subparsers.add_parser("generate", help="write a synthetic network to a .gr file")
    add_graph_arguments(generate)
    generate.add_argument("--out", required=True, help="output .gr path")

    def add_partitioner_argument(sub: argparse.ArgumentParser) -> None:
        # No argparse default: an omitted flag must be distinguishable from
        # an explicit one, so that ``--store`` can follow the store's record.
        sub.add_argument("--partitioner", choices=["bfs", "mincut"], default=None,
                         help="graph partitioner: the paper's Section 3.3 BFS "
                              "sweep or the multilevel min-cut partitioner (fewer "
                              "boundary vertices, smaller index, faster queries). "
                              "Default: whatever the --store directory was built "
                              "with, else bfs ('partition' builds with mincut)")

    def add_store_arguments(sub: argparse.ArgumentParser) -> None:
        add_partitioner_argument(sub)
        sub.add_argument("--store", metavar="DIR", default=None,
                         help="partition-store directory: load the partition + "
                              "DTLP index from DIR when it matches the graph "
                              "(O(load) cold start, stale weights refreshed via "
                              "the change feed), otherwise build and save it")

    partition = subparsers.add_parser(
        "partition",
        help="partition the graph, build the DTLP index and save a partition store")
    add_graph_arguments(partition)
    partition.add_argument("--z", type=int, default=48, help="subgraph size threshold")
    partition.add_argument("--xi", type=int, default=3,
                           help="bounding paths per boundary pair")
    add_partitioner_argument(partition)
    partition.add_argument("--out", required=True, metavar="DIR",
                           help="store directory to write (DGL-style part<k>/ "
                                "layout + manifest)")
    partition.add_argument("--workers", type=int, default=4,
                           help="workers for a parallel index build")
    add_executor_argument(partition, "execution backend building per-subgraph "
                          "indexes (process workers also write their part<k>/ "
                          "files in parallel)")

    stats = subparsers.add_parser("stats", help="build DTLP and print index statistics")
    add_graph_arguments(stats)
    stats.add_argument("--z", type=int, default=48, help="subgraph size threshold")
    stats.add_argument("--xi", type=int, default=5, help="bounding paths per boundary pair")
    stats.add_argument("--metrics", action="store_true",
                       help="additionally run a small profiled query probe over "
                            "the built index and print the Prometheus-style "
                            "metrics exposition (kernel and bolt counters)")
    stats.add_argument("--probe-queries", type=int, default=20,
                       help="queries in the --metrics probe batch (default 20)")

    query = subparsers.add_parser("query", help="answer one KSP query")
    add_graph_arguments(query)
    query.add_argument("--z", type=int, default=48)
    query.add_argument("--xi", type=int, default=3)
    query.add_argument("--source", type=int, required=True)
    query.add_argument("--target", type=int, required=True)
    query.add_argument("--k", type=int, default=3)
    query.add_argument("--verify", action="store_true",
                       help="cross-check the answer against Yen's algorithm")

    bench = subparsers.add_parser("bench", help="run a query batch on the simulated cluster")
    add_graph_arguments(bench)
    add_store_arguments(bench)
    bench.add_argument("--z", type=int, default=48)
    bench.add_argument("--xi", type=int, default=3)
    bench.add_argument("--k", type=int, default=2)
    bench.add_argument("--num-queries", type=int, default=20)
    bench.add_argument("--workers", type=int, default=4)
    add_executor_argument(bench, "physical execution backend running the batch "
                          "(serial reference, or worker processes holding "
                          "resident index replicas)")
    bench.add_argument("--alpha", type=float, default=0.0,
                       help="apply one traffic snapshot changing this fraction of edges first")
    bench.add_argument("--tau", type=float, default=0.3)
    bench.add_argument("--kernel", choices=["snapshot", "dict"],
                       default="snapshot",
                       help="compute kernel: array-backed snapshots (default, "
                            "bit-identical to dict) or the dict-based "
                            "reference path")
    bench.add_argument("--profile", action="store_true",
                       help="run the query batch under cProfile and print the "
                            "top-25 functions by cumulative time, so perf work "
                            "starts from data instead of guesses")
    bench.add_argument("--profile-out", metavar="FILE", default=None,
                       help="with --profile, additionally write the raw pstats "
                            "dump to FILE (load it with pstats.Stats(FILE) or "
                            "snakeviz for offline analysis)")

    def add_service_arguments(sub: argparse.ArgumentParser) -> None:
        add_store_arguments(sub)
        sub.add_argument("--z", type=int, default=48)
        sub.add_argument("--xi", type=int, default=3)
        sub.add_argument("--k", type=int, default=2)
        sub.add_argument("--engine", choices=["kspdg", "yen", "findksp"], default="kspdg",
                         help="query engine serving cache misses (default kspdg)")
        sub.add_argument("--kernel", choices=["snapshot", "dict"],
                         default="snapshot",
                         help="compute kernel: array-backed snapshots (default) or "
                              "the dict-based reference path; surfaced in the "
                              "service report")
        sub.add_argument("--workers", type=int, default=4,
                         help="simulated workers for the kspdg engine")
        add_executor_argument(sub, "physical execution backend for cache-miss "
                              "compute batches (see ARCHITECTURE.md, 'Execution "
                              "backends')")
        sub.add_argument("--no-cache", action="store_true",
                         help="disable the result cache (every query computes)")
        sub.add_argument("--cache-capacity", type=int, default=4096)
        sub.add_argument("--invalidation", choices=["scoped", "full"], default="scoped",
                         help="cache invalidation mode on weight updates")
        sub.add_argument("--queue-capacity", type=int, default=256,
                         help="admission queue bound before load shedding")
        sub.add_argument("--batch-size", type=int, default=16,
                         help="micro-batch size of the request pipeline")
        sub.add_argument("--alpha", type=float, default=0.05,
                         help="fraction of edges changed per traffic snapshot")
        sub.add_argument("--tau", type=float, default=0.3,
                         help="relative weight variation per snapshot")
        sub.add_argument("--trace", metavar="FILE", default=None,
                         help="record a per-query span trace (admission -> "
                              "batch -> bolts -> kernel) and write it to FILE "
                              "as Chrome trace-event JSON; open in Perfetto or "
                              "render with 'repro trace FILE'")
        sub.add_argument("--metrics", action="store_true",
                         help="print the Prometheus-style metrics exposition "
                              "(cluster + service counters) after the report")

    replay_cmd = subparsers.add_parser(
        "replay", help="replay a mixed update/query trace through the serving layer")
    add_graph_arguments(replay_cmd)
    add_service_arguments(replay_cmd)
    replay_cmd.add_argument("--num-queries", type=int, default=500)
    replay_cmd.add_argument("--update-rounds", type=int, default=50)
    replay_cmd.add_argument("--repeat-fraction", type=float, default=0.5,
                            help="fraction of queries repeating earlier OD pairs")
    replay_cmd.add_argument("--validate", action="store_true",
                            help="re-price every served path against current weights")

    serve = subparsers.add_parser(
        "serve", help="run the serving loop: one traffic snapshot + one query wave per epoch")
    add_graph_arguments(serve)
    add_service_arguments(serve)
    serve.add_argument("--epochs", type=int, default=10)
    serve.add_argument("--queries-per-epoch", type=int, default=40)

    chaos_cmd = subparsers.add_parser(
        "chaos",
        help="replay traffic under a seeded fault plan (kill/join/stall/slow) "
             "and score answers against a fault-free oracle")
    add_graph_arguments(chaos_cmd)
    add_store_arguments(chaos_cmd)
    chaos_cmd.add_argument("--z", type=int, default=48)
    chaos_cmd.add_argument("--xi", type=int, default=3)
    chaos_cmd.add_argument("--k", type=int, default=2)
    chaos_cmd.add_argument("--batches", type=int, default=8,
                           help="query micro-batches to replay (default 8)")
    chaos_cmd.add_argument("--batch-size", type=int, default=8,
                           help="queries per micro-batch (default 8)")
    chaos_cmd.add_argument("--update-every", type=int, default=2,
                           help="apply one traffic round before every Nth batch "
                                "(0 disables updates; default 2)")
    chaos_cmd.add_argument("--workers", type=int, default=4)
    add_executor_argument(chaos_cmd, "execution backend under test")
    chaos_cmd.add_argument("--kernel", choices=["snapshot", "dict"],
                           default="snapshot")
    chaos_cmd.add_argument("--fault-rate", type=float, default=0.3,
                           help="probability a batch suffers one fault "
                                "(default 0.3)")
    chaos_cmd.add_argument("--fault-seed", type=int, default=11,
                           help="seed of the generated fault plan (default 11)")
    chaos_cmd.add_argument("--kinds", default="kill,join,stall",
                           help="comma-separated fault kinds to draw from "
                                "(kill, join, stall, slow)")
    chaos_cmd.add_argument("--alpha", type=float, default=0.25,
                           help="fraction of edges changed per traffic round")
    chaos_cmd.add_argument("--tau", type=float, default=0.3)
    chaos_cmd.add_argument("--require-join", action="store_true",
                           help="exit non-zero unless the run performed at "
                                "least one successful worker join that "
                                "migrated state")
    chaos_cmd.add_argument("--json", metavar="FILE", default=None,
                           help="additionally write the scored chaos report "
                                "as JSON to FILE")

    trace_cmd = subparsers.add_parser(
        "trace", help="render a recorded Chrome trace-event JSON as a span tree")
    trace_cmd.add_argument("file", help="trace JSON written by --trace")
    trace_cmd.add_argument("--max-queries", type=int, default=None,
                           help="only render the first N query tracks")

    def add_frontdoor_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--replicas", type=int, default=2,
                         help="independent service replicas behind the front "
                              "door (default 2)")
        sub.add_argument("--engine", choices=["yen", "findksp", "kspdg"],
                         default="yen",
                         help="query engine inside each replica (default yen)")
        sub.add_argument("--kernel", choices=["snapshot", "dict"],
                         default="snapshot")
        add_executor_argument(sub, "execution backend inside each replica")
        sub.add_argument("--workers", type=int, default=2,
                         help="workers per replica engine")
        sub.add_argument("--z", type=int, default=48)
        sub.add_argument("--xi", type=int, default=3)
        sub.add_argument("--strict", action="store_true",
                         help="strict mode: never serve version-stale cached "
                              "answers (degraded mode off)")

    serve_http = subparsers.add_parser(
        "serve-http",
        help="serve KSP queries over HTTP through the resilient front door "
             "(rendezvous routing, deadlines, breakers, degraded mode)")
    add_graph_arguments(serve_http)
    add_frontdoor_arguments(serve_http)
    serve_http.add_argument("--host", default="127.0.0.1")
    serve_http.add_argument("--port", type=int, default=0,
                            help="listen port (default 0 = ephemeral, printed "
                                 "on startup)")
    serve_http.add_argument("--duration", type=float, default=0.0,
                            help="serve for this many seconds then exit "
                                 "(default 0 = until interrupted)")

    loadtest = subparsers.add_parser(
        "loadtest",
        help="drive an in-process front door to its saturation knee, then "
             "score availability under a seeded fault plan")
    add_graph_arguments(loadtest)
    add_frontdoor_arguments(loadtest)
    loadtest.add_argument("--requests", type=int, default=120,
                          help="queries per knee-sweep operating point "
                               "(default 120)")
    loadtest.add_argument("--concurrency", type=int, default=8,
                          help="highest closed-loop concurrency in the knee "
                               "sweep (powers of two up to this; default 8)")
    loadtest.add_argument("--k", type=int, default=2)
    loadtest.add_argument("--budget-ms", type=float, default=1000.0,
                          help="per-request deadline budget (default 1000)")
    loadtest.add_argument("--slo-ms", type=float, default=250.0,
                          help="p99 latency SLO defining the knee (default 250)")
    loadtest.add_argument("--fault-rate", type=float, default=0.5,
                          help="probability a chaos window suffers one fault "
                               "(default 0.5; 0 skips the fault phase)")
    loadtest.add_argument("--fault-seed", type=int, default=11,
                          help="seed of the generated fault plan (default 11)")
    loadtest.add_argument("--fault-windows", type=int, default=6,
                          help="traffic windows in the fault phase (default 6)")
    loadtest.add_argument("--window-requests", type=int, default=8,
                          help="requests per fault-phase window (default 8)")
    loadtest.add_argument("--availability-floor", type=float, default=0.95,
                          help="minimum answered fraction under faults "
                               "(default 0.95; exit code 2 below it)")
    loadtest.add_argument("--pin-faults", action="store_true",
                          help="replace the generated plan with the pinned "
                               "reference plan (mid-run replica kill + "
                               "two-window stall) so breaker behaviour is "
                               "deterministic, e.g. for CI smokes")
    loadtest.add_argument("--require-breaker-trip", action="store_true",
                          help="exit non-zero unless the fault phase tripped "
                               "at least one circuit breaker")
    loadtest.add_argument("--json", metavar="FILE", default=None,
                          help="additionally write the combined loadtest "
                               "report as JSON to FILE")

    return parser


def _load_graph(args: argparse.Namespace) -> DynamicGraph:
    """Load or generate the graph requested by the common CLI arguments."""
    if args.gr:
        return read_gr(args.gr, directed=args.directed)
    if args.dataset:
        return dataset(args.dataset, seed=args.seed, directed=args.directed, scale=args.scale)
    raise SystemExit("one of --dataset or --gr is required")


def _build_dtlp(args: argparse.Namespace, graph: DynamicGraph) -> DTLP:
    """Build (or ``--store``-load) the DTLP index the command will query.

    With ``--store DIR`` the index comes from the partition store when the
    directory matches the graph and configuration (stale weights refreshed
    through the change feed); otherwise it is built fresh and saved there,
    so the next invocation cold-starts in O(load).  An omitted
    ``--partitioner`` follows the store's record, so pointing a command at
    a store never rebuilds it by default; a configuration that does
    disagree with the store still rebuilds and overwrites it, announced on
    stderr with both configurations.
    """
    partitioner = getattr(args, "partitioner", None)
    store_dir = getattr(args, "store", None)
    if not store_dir:
        config = DTLPConfig(z=args.z, xi=args.xi, partitioner=partitioner or "bfs")
        return DTLP(graph, config).build()
    from .store import PartitionStore, StoreError, load_or_build

    try:
        recorded = PartitionStore(store_dir).config()
    except (StoreError, TypeError, KeyError):
        recorded = None  # absent or unreadable: load_or_build (re)writes it
    if partitioner is None:
        partitioner = recorded.partitioner if recorded is not None else "bfs"
    config = DTLPConfig(
        z=args.z, xi=args.xi, partitioner=partitioner, directed=graph.directed
    )
    if recorded is not None and recorded != config:
        print(
            f"store {store_dir} was built with {recorded}; this command asks "
            f"for {config}: rebuilding and overwriting the store",
            file=sys.stderr,
        )
    started = time.perf_counter()
    dtlp, loaded = load_or_build(graph, config, store_dir)
    elapsed = time.perf_counter() - started
    action = "loaded index from" if loaded else "built index and saved to"
    print(f"{action} store {store_dir} in {elapsed:.3f}s", file=sys.stderr)
    return dtlp


def _command_generate(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    write_gr(graph, args.out)
    print(f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges to {args.out}")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    dtlp = DTLP(graph, DTLPConfig(z=args.z, xi=args.xi)).build()
    stats = dtlp.statistics()
    rows = [[key, value] for key, value in stats.as_dict().items()]
    print(format_table(["statistic", "value"], rows))
    if args.metrics:
        # A small profiled query probe populates the cluster's metrics
        # registry so the exposition shows live kernel/bolt counters, not
        # just an empty page.  Deterministic: seeded generator, serial
        # backend.
        with StormTopology(dtlp, kernel_profiling=True) as topology:
            queries = QueryGenerator(graph, seed=args.seed, min_hops=3).generate(
                max(0, args.probe_queries), k=2
            )
            if queries:
                topology.run_queries(queries)
            print()
            print(topology.cluster.metrics.render_prometheus(), end="")
    return 0


def _command_query(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    dtlp = DTLP(graph, DTLPConfig(z=args.z, xi=args.xi)).build()
    engine = KSPDG(dtlp)
    result = engine.query(args.source, args.target, args.k)
    if not result.paths:
        print(f"no path from {args.source} to {args.target}")
        return 1
    rows = [
        [rank, round(path.distance, 4), len(path), " ".join(str(v) for v in path.vertices)]
        for rank, path in enumerate(result.paths, start=1)
    ]
    print(format_table(["rank", "distance", "#vertices", "path"], rows))
    print(f"iterations: {result.iterations}, elapsed: {result.elapsed_seconds:.4f}s")
    if args.verify:
        expected = yen_k_shortest_paths(graph, args.source, args.target, args.k)
        matches = [round(d, 6) for d in result.distances] == [
            round(p.distance, 6) for p in expected
        ]
        print(f"verification against Yen's algorithm: {'OK' if matches else 'MISMATCH'}")
        if not matches:
            return 2
    return 0


def _command_partition(args: argparse.Namespace) -> int:
    from .distributed import distributed_build_report
    from .store import PartitionStore

    graph = _load_graph(args)
    partitioner = args.partitioner or "mincut"
    config = DTLPConfig(z=args.z, xi=args.xi, partitioner=partitioner)
    started = time.perf_counter()
    executor = args.executor
    if executor is not None and executor != "serial":
        report = distributed_build_report(
            graph, config, num_workers=args.workers,
            executor=executor, store_dir=args.out,
        )
        dtlp = report.dtlp
        PartitionStore.save(dtlp, args.out, parts_written=True)
    else:
        dtlp = DTLP(graph, config).build()
        PartitionStore.save(dtlp, args.out)
    elapsed = time.perf_counter() - started
    stats = dtlp.statistics()
    rows = [
        ["partitioner", partitioner],
        ["vertices", graph.num_vertices],
        ["edges", graph.num_edges],
        ["partitions", stats.num_subgraphs],
        ["boundary vertices", stats.num_boundary_vertices],
        ["bounding paths", stats.num_bounding_paths],
        ["build + save (s)", round(elapsed, 4)],
        ["store", args.out],
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    dtlp = _build_dtlp(args, graph)
    if args.alpha > 0:
        dtlp.attach()
        TrafficModel(graph, alpha=args.alpha, tau=args.tau, seed=args.seed).advance()
    with StormTopology(
        dtlp, num_workers=args.workers, executor=args.executor,
        kernel=args.kernel, store_path=args.store,
    ) as topology:
        executor_name = topology.executor.name
        queries = QueryGenerator(graph, seed=args.seed, min_hops=3).generate(
            args.num_queries, k=args.k
        )
        profiling = args.profile or args.profile_out is not None
        profiler = cProfile.Profile() if profiling else None
        started = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        report = topology.run_queries(queries)
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - started
    rows = [
        ["queries", len(queries)],
        ["workers", args.workers],
        ["executor", executor_name],
        ["wall time (s)", round(wall, 4)],
        ["parallel time (s)", round(report.makespan_seconds, 4)],
        ["total compute (s)", round(report.total_compute_seconds, 4)],
        ["communication (vertex units)", report.communication_units],
        ["mean iterations", round(report.mean_iterations, 2)],
        ["busy-time spread", round(report.load_balance["busy_spread"], 4)],
    ]
    print(format_table(["metric", "value"], rows))
    if profiler is not None:
        stats = pstats.Stats(profiler)
        if args.profile:
            # The hottest query batch, top-25 by cumulative time: the
            # starting point for any future perf PR.
            stats.sort_stats("cumulative").print_stats(25)
        if args.profile_out:
            # Raw dump for offline analysis (pstats.Stats(FILE), snakeviz).
            stats.dump_stats(args.profile_out)
            print(f"wrote pstats dump to {args.profile_out}")
    return 0


def _build_service(args: argparse.Namespace, graph: DynamicGraph) -> KSPService:
    """Assemble the serving stack requested by the service CLI arguments."""
    dtlp: Optional[DTLP] = None
    engine: QueryEngine
    if args.engine == "yen":
        engine = YenEngine(
            graph, kernel=args.kernel, executor=args.executor,
            executor_workers=args.workers,
        )
    elif args.engine == "findksp":
        engine = FindKSPEngine(
            graph, kernel=args.kernel, executor=args.executor,
            executor_workers=args.workers,
        )
    else:
        dtlp = _build_dtlp(args, graph)
        engine = KSPDGEngine.local(
            dtlp, num_workers=args.workers, kernel=args.kernel,
            executor=args.executor, store_path=args.store,
        )
    traffic = TrafficModel(graph, alpha=args.alpha, tau=args.tau, seed=args.seed)
    return KSPService(
        graph,
        engine,
        owns_engine=True,
        dtlp=dtlp,
        traffic=traffic,
        enable_cache=not args.no_cache,
        cache_capacity=args.cache_capacity,
        invalidation_mode=args.invalidation,
        queue_capacity=args.queue_capacity,
        max_batch_size=args.batch_size,
        tracer=TraceSession() if args.trace else None,
    )


def _finish_observability(service: KSPService, args: argparse.Namespace) -> None:
    """Shared ``--metrics`` / ``--trace FILE`` tail of replay and serve."""
    if args.metrics:
        print()
        print(service.metrics_text(), end="")
    if args.trace:
        written = service.tracer.write_chrome_trace(args.trace)
        print(f"wrote {written} bytes of trace-event JSON to {args.trace} "
              f"({len(service.tracer.queries)} query spans; view with "
              f"'repro trace {args.trace}' or load in Perfetto)")


def _print_report(service: KSPService) -> None:
    rows = [[key, value] for key, value in service.report().as_dict().items()]
    print(format_table(["metric", "value"], rows))


def _command_replay(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    service = _build_service(args, graph)
    trace = generate_trace(
        graph,
        num_queries=args.num_queries,
        update_rounds=args.update_rounds,
        k=args.k,
        seed=args.seed,
        repeat_fraction=args.repeat_fraction,
        alpha=args.alpha,
        tau=args.tau,
    )
    outcome = replay(service, trace, validate=args.validate)
    print(f"replayed {len(trace)} events: {outcome.num_served} served, "
          f"{outcome.num_shed} shed")
    if args.validate:
        print(f"stale served results: {outcome.stale_served}")
    _print_report(service)
    _finish_observability(service, args)
    service.close()
    return 1 if (args.validate and outcome.stale_served) else 0


def _command_serve(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    service = _build_service(args, graph)
    queries = QueryGenerator(graph, seed=args.seed, min_hops=2)
    next_query_id = 0
    for epoch in range(1, args.epochs + 1):
        updates = service.maintenance_step()
        shed_before = service.pipeline.shed
        # The epoch's queries arrive as one burst (concurrent users), so a
        # wave larger than the admission queue genuinely sheds its overflow.
        for offset in range(args.queries_per_epoch):
            query = queries.generate_one(next_query_id + offset, args.k)
            try:
                service.submit(query)
            except ServiceOverloadedError:
                pass  # recorded by the pipeline's shed counter
        next_query_id += args.queries_per_epoch
        answers = service.drain()
        hits = sum(1 for answer in answers if answer.from_cache)
        shed = service.pipeline.shed - shed_before
        print(f"epoch {epoch:3d}: {len(updates)} updates applied, "
              f"{len(answers)} queries served ({hits} from cache, {shed} shed)")
    _print_report(service)
    _finish_observability(service, args)
    service.close()
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    from .chaos import FaultPlan, TopologyTarget, generate_chaos_workload, run_chaos

    kinds = tuple(kind.strip() for kind in args.kinds.split(",") if kind.strip())
    dtlp = _build_dtlp(args, _load_graph(args))
    workload = generate_chaos_workload(
        dtlp.graph,
        num_batches=args.batches,
        batch_size=args.batch_size,
        k=args.k,
        seed=args.seed,
        update_every=args.update_every,
        alpha=args.alpha,
        tau=args.tau,
    )
    plan = FaultPlan.generate(
        args.fault_seed,
        num_batches=args.batches,
        kinds=kinds,
        rate=args.fault_rate,
        batch_size=args.batch_size,
    )
    topology = StormTopology(
        dtlp,
        num_workers=args.workers,
        executor=args.executor,
        kernel=args.kernel,
        store_path=args.store,
    )
    report = run_chaos(TopologyTarget(topology), workload, plan)
    stats = report.elasticity
    rows = [
        ["batches x batch size", f"{args.batches} x {args.batch_size}"],
        ["planned faults", len(plan.events)],
        ["total queries", report.total],
        ["wrong answers (vs oracle)", len(report.wrong_answers)],
        ["dropped queries", report.dropped_queries],
        ["retried queries", stats.retried_queries],
        ["workers lost", stats.workers_lost],
        ["workers joined", stats.workers_joined],
        ["workers retired", stats.workers_retired],
        ["subgraphs recovered", stats.subgraphs_recovered],
        ["join transfer (vertex units)", stats.join_transfer_units],
    ]
    print(format_table(["metric", "value"], rows))
    if report.recoveries:
        print()
        recovery_rows = [
            [
                sample.kind,
                sample.batch_index,
                sample.worker_id,
                "yes" if sample.recovered else "NO",
                sample.recovery_batches,
                round(sample.recovery_seconds * 1e3, 3),
                round(sample.qps_dip / sample.qps_baseline, 3)
                if sample.qps_baseline
                else 0.0,
            ]
            for sample in report.recoveries
        ]
        print(format_table(
            ["fault", "batch", "worker", "recovered", "batches to recover",
             "recovery (ms)", "qps dip (x baseline)"],
            recovery_rows,
        ))
    if args.json:
        with open(args.json, "w", encoding="ascii") as handle:
            json.dump(TopologyTarget.summary(report), handle, indent=2, sort_keys=True)
        print(f"wrote chaos report to {args.json}")
    joined_with_migration = any(
        event.kind == "join" and event.applied and event.subgraphs_moved > 0
        for event in report.events
    )
    if not report.ok:
        print("FAIL: chaos run diverged from the fault-free oracle")
        return 1
    if args.require_join and not joined_with_migration:
        print("FAIL: --require-join set but no join migrated state")
        return 2
    print("OK: zero wrong answers, zero dropped queries")
    return 0


def _build_frontdoor_replicas(args: argparse.Namespace, graph: DynamicGraph):
    from .frontdoor import build_replicas

    return build_replicas(
        graph,
        num_replicas=args.replicas,
        engine=args.engine,
        kernel=args.kernel,
        executor=args.executor,
        workers=args.workers,
        z=args.z,
        xi=args.xi,
    )


def _command_serve_http(args: argparse.Namespace) -> int:
    from .frontdoor import start_front_door

    graph = _load_graph(args)
    replicas = _build_frontdoor_replicas(args, graph)
    with start_front_door(
        replicas,
        host=args.host,
        port=args.port,
        degraded_mode=not args.strict,
    ) as handle:
        print(f"front door listening on {handle.url} "
              f"({args.replicas} x {args.engine} replicas, "
              f"{'strict' if args.strict else 'degraded'} mode)")
        print("endpoints: POST /query  POST /maintenance  GET /healthz  GET /metrics")
        try:
            if args.duration > 0:
                time.sleep(args.duration)
            else:
                while True:  # pragma: no cover - interactive loop
                    time.sleep(1.0)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        health = handle.health()
        counters = health["counters"]
        print(f"served {counters['served_ok']} ok / "
              f"{counters['served_degraded']} degraded of "
              f"{counters['requests_total']} requests "
              f"({health['breaker_trips_total']} breaker trips)")
    return 0


def _command_loadtest(args: argparse.Namespace) -> int:
    from .chaos import (
        FaultEvent, FaultPlan, FrontDoorTarget, generate_chaos_workload, run_chaos,
    )
    from .frontdoor import find_knee, start_front_door

    graph = _load_graph(args)
    queries = QueryGenerator(graph, seed=args.seed, min_hops=2).generate(
        args.requests, k=args.k
    )
    specs = [query.key for query in queries]
    concurrencies = []
    level = 1
    while level <= max(1, args.concurrency):
        concurrencies.append(level)
        level *= 2

    # Phase 1 — clean knee search: sweep closed-loop concurrency until the
    # p99 SLO breaks; the knee is the last operating point that held it.
    replicas = _build_frontdoor_replicas(args, graph)
    with start_front_door(replicas, degraded_mode=not args.strict) as handle:
        knee, sweep = find_knee(
            handle.url,
            specs,
            slo_ms=args.slo_ms,
            budget_ms=args.budget_ms,
            concurrencies=concurrencies,
            retry_seed=args.seed,
        )
    sweep_rows = [
        [
            row["concurrency"], row["total"], row["availability"],
            row["qps"], row["p50_ms"], row["p99_ms"],
            "yes" if row["p99_ms"] <= args.slo_ms else "NO",
        ]
        for row in (result.as_row() for result in sweep)
    ]
    print(format_table(
        ["concurrency", "requests", "availability", "qps", "p50 (ms)",
         "p99 (ms)", f"p99 <= {args.slo_ms:g}ms"],
        sweep_rows,
    ))
    if knee is not None:
        print(f"knee: {knee.qps:.1f} qps at concurrency {knee.concurrency} "
              f"(p99 {knee.p99_ms:.1f} ms within {args.slo_ms:g} ms SLO)")
    else:
        print(f"knee: NOT FOUND (p99 misses the {args.slo_ms:g} ms SLO even "
              f"at concurrency {concurrencies[0]})")

    # Phase 2 — availability under the pinned fault plan, on a fresh fleet.
    chaos_report = None
    if args.pin_faults or args.fault_rate > 0:
        if args.pin_faults:
            # The reference plan from the acceptance criteria: one replica
            # dies mid-run for two windows while another stalls — enough to
            # trip a breaker, force failovers, and still recover in-plan.
            plan = FaultPlan(seed=args.fault_seed, events=(
                FaultEvent(batch_index=1, kind="kill", duration_batches=2),
                FaultEvent(batch_index=2, kind="stall", duration_batches=2),
            ))
        else:
            plan = FaultPlan.generate(
                args.fault_seed,
                num_batches=args.fault_windows,
                kinds=("kill", "stall", "slow"),
                rate=args.fault_rate,
                batch_size=args.window_requests,
            )
        cooldown = 3  # clean windows in which breakers must close again
        workload = generate_chaos_workload(
            graph,
            num_batches=args.fault_windows + cooldown,
            batch_size=args.window_requests,
            k=args.k,
            seed=args.seed + 1,
            update_every=2,
        )
        target = FrontDoorTarget(
            graph,
            _build_frontdoor_replicas(args, graph),
            budget_ms=args.budget_ms,
            degraded_mode=not args.strict,
        )
        chaos = run_chaos(target, workload, plan, cooldown_windows=cooldown)
        chaos_report = FrontDoorTarget.summary(chaos)
        print()
        print(format_table(["metric", "value"], [
            ["fault windows (+cooldown)", f"{chaos.windows} (+{chaos.cooldown_windows})"],
            ["planned faults", len(plan.events)],
            ["requests", chaos.total],
            ["answered fresh / degraded", f"{chaos.fresh} / {chaos.degraded}"],
            ["availability", round(chaos.availability, 4)],
            ["wrong answers (vs oracle)", len(chaos.wrong_answers)],
            ["replica kills", chaos.kills],
            ["breaker trips", chaos.breaker_trips],
            ["breakers recovered", "yes" if chaos.breakers_recovered else "NO"],
        ]))
    if args.json:
        payload = {
            "slo_ms": args.slo_ms,
            "budget_ms": args.budget_ms,
            "knee": knee.as_row() if knee is not None else None,
            "sweep": [result.as_row() for result in sweep],
            "chaos": chaos_report,
        }
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote loadtest report to {args.json}")
    if chaos_report is not None:
        if chaos_report["wrong_answer_count"]:
            print("FAIL: answers diverged from the fault-free oracle")
            return 1
        if chaos_report["availability"] < args.availability_floor:
            print(f"FAIL: availability {chaos_report['availability']} below "
                  f"floor {args.availability_floor}")
            return 2
        if args.require_breaker_trip and not chaos_report["breaker_trips"]:
            print("FAIL: --require-breaker-trip set but no breaker tripped")
            return 3
        print(f"OK: zero wrong answers, availability "
              f"{chaos_report['availability']} >= {args.availability_floor}")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="ascii") as handle:
        payload = json.load(handle)
    tracks = trees_from_chrome(payload)
    if not tracks:
        print(f"{args.file}: no complete events found")
        return 1
    shown_queries = 0
    omitted = 0
    for tid, roots in tracks:
        if tid == 0:
            print("session events:")
        else:
            if args.max_queries is not None and shown_queries >= args.max_queries:
                omitted += 1
                continue
            shown_queries += 1
            print(f"query #{tid - 1}:")
        for root in roots:
            for line in render_tree(root).splitlines():
                print(f"  {line}")
    if omitted:
        print(f"... {omitted} more queries omitted")
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "partition": _command_partition,
    "stats": _command_stats,
    "query": _command_query,
    "bench": _command_bench,
    "replay": _command_replay,
    "serve": _command_serve,
    "chaos": _command_chaos,
    "trace": _command_trace,
    "serve-http": _command_serve_http,
    "loadtest": _command_loadtest,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Commands without --executor (``stats --metrics``) still build on the
    # default backend, so a bad $REPRO_EXECUTOR fails here for every command.
    if getattr(args, "executor", None) is None:
        try:
            default_executor_name()
        except ExecutorError as exc:
            parser.exit(2, f"repro: error: $REPRO_EXECUTOR: {exc}\n")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
