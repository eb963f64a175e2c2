"""Distributed KSP-DG query engine adapter.

Wraps :class:`~repro.distributed.topology.StormTopology` behind the
:class:`~repro.workloads.runner.QueryEngine` protocol so the benchmark
harness can compare KSP-DG with the centralized baselines through one code
path.  Also exposes a parallel DTLP *build* helper: with the default serial
backend it models distributing the per-subgraph index construction across
workers (Figure 42); with a concurrent backend it actually builds the
per-subgraph indexes in parallel and adopts them into the final index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.dtlp import DTLP, DTLPConfig
from ..core.subgraph_index import SubgraphIndex
from ..exec import Executor, resolve_executor
from ..graph.graph import DynamicGraph
from ..graph.partition import GraphPartition
from ..graph.partition_ml import make_partition
from ..workloads.queries import KSPQuery
from ..workloads.runner import QueryOutcome
from .cluster import SimulatedCluster
from .placement import greedy_balance
from .topology import StormTopology, TopologyReport

__all__ = ["KSPDGEngine", "distributed_build_report", "DistributedBuildReport"]


class KSPDGEngine:
    """Query engine running KSP-DG on the simulated topology.

    Satisfies the :class:`~repro.workloads.runner.QueryEngine` protocol:
    :meth:`answer` processes a single query.  Batch execution with proper
    parallel-time accounting should use :meth:`run_batch`, which returns the
    richer :class:`~repro.distributed.topology.TopologyReport`.
    """

    name = "KSP-DG"

    def __init__(self, topology: StormTopology) -> None:
        self._topology = topology

    @classmethod
    def local(
        cls,
        dtlp: DTLP,
        num_workers: int = 4,
        kernel: str = "snapshot",
        executor: Union[str, Executor, None] = None,
        executor_workers: Optional[int] = None,
        pruning: bool = True,
        store_path: Optional[str] = None,
    ) -> "KSPDGEngine":
        """Build an engine on a fresh simulated topology over ``dtlp``.

        Convenience used by the serving layer and the CLI: the topology
        shares the live graph and index objects, so weight updates applied
        through the graph (and propagated with ``dtlp.attach()``) are
        immediately visible to subsequent queries.  ``kernel`` selects the
        compute path of the bolts (array snapshots by default),
        ``executor`` the physical backend running query batches,
        ``pruning`` switches the bound-pruned query kernel (see
        ``ARCHITECTURE.md``), and ``store_path``
        lets process replicas cold-start from a partition store instead of
        a pickled bundle (see :mod:`repro.store`).
        """
        return cls(
            StormTopology(
                dtlp,
                num_workers=num_workers,
                kernel=kernel,
                executor=executor,
                executor_workers=executor_workers,
                pruning=pruning,
                store_path=store_path,
            )
        )

    @property
    def topology(self) -> StormTopology:
        """The underlying simulated topology."""
        return self._topology

    @property
    def kernel(self) -> str:
        """Compute kernel of the underlying topology."""
        return self._topology.kernel

    @property
    def executor_name(self) -> str:
        """Execution backend of the underlying topology."""
        return self._topology.executor.name

    def enable_tracing(self) -> None:
        """Run subsequent queries under span tracing.

        Result outcomes then carry their span tree on ``outcome.trace``;
        the serving layer grafts the trees into its own trace session.
        """
        self._topology.enable_query_traces()

    def answer(self, query: KSPQuery) -> QueryOutcome:
        """Answer one query (used by the generic batch runner).

        Reuses the batch code path with a singleton batch, so per-batch
        executor setup (replica groups) is established once on the topology
        and amortised across every subsequent call instead of being re-paid
        per query.
        """
        return self.answer_many([query])[0]

    def answer_many(self, queries: Sequence[KSPQuery]) -> List[QueryOutcome]:
        """Answer a batch through the topology's execution backend.

        Per-query wall-clock time is not observable when the batch runs on
        concurrent workers, so each outcome reports the batch's mean.
        """
        queries = list(queries)
        if not queries:
            return []
        started = time.perf_counter()
        report = self._topology.run_queries(queries)
        elapsed = (time.perf_counter() - started) / len(queries)
        return [
            QueryOutcome(
                query=query,
                paths=result.paths,
                elapsed_seconds=elapsed,
                iterations=result.iterations,
                trace=getattr(result, "trace", None),
            )
            for query, result in zip(queries, report.results)
        ]

    def run_batch(self, queries: Sequence[KSPQuery]) -> TopologyReport:
        """Process a whole batch with cluster-level cost accounting."""
        return self._topology.run_queries(queries)

    def healthy(self) -> bool:
        """Whether the topology's execution backend can answer queries.

        Consumed by the front door's replica health tracking — a process
        backend with a dead worker reports ``False`` here long before the
        next query batch would crash on the broken pipe.
        """
        return self._topology.executor.healthy()

    def close(self) -> None:
        """Release the topology's executor resources (idempotent)."""
        self._topology.close()


@dataclass
class DistributedBuildReport:
    """Cost report of building DTLP with per-subgraph work spread over workers.

    Attributes
    ----------
    num_workers:
        Number of workers used.
    total_build_seconds:
        Sum of per-subgraph index construction times (single-core work).
    parallel_build_seconds:
        Parallel completion time of the build.  With the serial backend
        this is the *modelled* makespan of a balanced assignment of the
        measured per-subgraph build times; with a concurrent backend it is
        the *measured* wall-clock time of the parallel index construction.
    dtlp:
        The built index (usable for subsequent experiments).
    executor:
        Execution backend that built the index.
    """

    num_workers: int
    total_build_seconds: float
    parallel_build_seconds: float
    dtlp: DTLP
    executor: str = "serial"


def _build_index_chunk(
    task: Tuple[GraphPartition, DTLPConfig, Tuple[int, ...], Optional[str]],
) -> Dict[int, SubgraphIndex]:
    """Build the first-level indexes of one chunk of subgraphs.

    Module-level so the process backend can ship it; the partition travels
    with the chunk (its parent graph is pickled once per worker, not per
    subgraph).  When ``store_dir`` is set, the worker also writes each
    subgraph's ``part<k>/`` files — the parallel half of a partition-store
    save, done here so the (potentially large) serialized index state never
    travels back through the result pipe just to be written by the parent.
    """
    partition, config, subgraph_ids, store_dir = task
    indexes = {
        subgraph_id: SubgraphIndex(
            partition.subgraph(subgraph_id),
            xi=config.xi,
            directed=config.directed,
            max_expansions=config.max_expansions,
        ).build()
        for subgraph_id in subgraph_ids
    }
    if store_dir is not None:
        from pathlib import Path

        from ..store.partition_store import write_partition_files

        for subgraph_id, index in indexes.items():
            write_partition_files(
                Path(store_dir) / f"part{subgraph_id}",
                partition.subgraph(subgraph_id),
                index,
            )
    return indexes


def distributed_build_report(
    graph: DynamicGraph,
    config: DTLPConfig,
    num_workers: int,
    executor: Union[str, Executor, None] = "serial",
    store_dir: Optional[str] = None,
) -> DistributedBuildReport:
    """Build a DTLP index and report its distributed construction cost.

    The per-subgraph first-level indexes are independent, so the paper
    builds them in parallel across the cluster (Figure 42 shows the
    building time shrinking as servers are added).  With the default
    ``serial`` backend this helper builds the index once, records each
    subgraph's build time, and computes the makespan of a balanced
    assignment of those build tasks to ``num_workers`` workers.  With the
    ``process`` backend the subgraph indexes are genuinely
    built in parallel — chunked by the same balanced assignment — and
    adopted into the final index, and ``parallel_build_seconds`` is the
    measured wall-clock time of that fan-out.

    ``store_dir`` additionally makes each worker write its chunk's
    partition-store ``part<k>/`` files while the index state is hot in its
    memory (see :mod:`repro.store`); the caller finishes the save with
    ``PartitionStore.save(dtlp, store_dir, parts_written=True)``.  With the
    serial backend the files are written inline after the build.
    """
    exec_obj, owned = resolve_executor(executor, workers=num_workers)
    try:
        if exec_obj.name == "serial":
            dtlp = DTLP(graph, config).build()
            if store_dir is not None:
                from pathlib import Path

                from ..store.partition_store import write_partition_files

                for subgraph in dtlp.partition.subgraphs:
                    write_partition_files(
                        Path(store_dir) / f"part{subgraph.subgraph_id}",
                        subgraph,
                        dtlp.subgraph_index(subgraph.subgraph_id),
                    )
            per_subgraph_seconds = {
                subgraph_id: index.build_seconds
                for subgraph_id, index in dtlp.subgraph_indexes().items()
            }
            total = sum(per_subgraph_seconds.values())
            cluster = SimulatedCluster(num_workers)
            assignment = cluster.assign_balanced(per_subgraph_seconds)
            for subgraph_id, worker_id in assignment.items():
                cluster.worker(worker_id).charge_compute(
                    per_subgraph_seconds[subgraph_id]
                )
            return DistributedBuildReport(
                num_workers=num_workers,
                total_build_seconds=total,
                parallel_build_seconds=cluster.makespan_seconds(),
                dtlp=dtlp,
                executor=exec_obj.name,
            )

        # Concurrent path: partition first, fan the independent per-subgraph
        # builds out over the backend, then adopt the results.
        dtlp = DTLP(graph, config)
        config = dtlp.config  # normalised (directedness follows the graph)
        partition = make_partition(graph, config.z, partitioner=config.partitioner)
        dtlp = DTLP(graph, config, partition=partition)
        loads = {
            subgraph.subgraph_id: float(subgraph.num_vertices)
            for subgraph in partition.subgraphs
        }
        assignment = greedy_balance(loads, num_workers)
        chunks: Dict[int, List[int]] = {}
        for subgraph_id, worker_id in assignment.items():
            chunks.setdefault(worker_id, []).append(subgraph_id)
        tasks = [
            (partition, config, tuple(sorted(subgraph_ids)),
             None if store_dir is None else str(store_dir))
            for _, subgraph_ids in sorted(chunks.items())
        ]
        started = time.perf_counter()
        built_chunks = exec_obj.map(_build_index_chunk, tasks)
        parallel_seconds = time.perf_counter() - started
        indexes: Dict[int, SubgraphIndex] = {}
        for chunk in built_chunks:
            indexes.update(chunk)
        dtlp.build(prebuilt_indexes=indexes)
        total = sum(index.build_seconds for index in indexes.values())
        return DistributedBuildReport(
            num_workers=num_workers,
            total_build_seconds=total,
            parallel_build_seconds=parallel_seconds,
            dtlp=dtlp,
            executor=exec_obj.name,
        )
    finally:
        if owned:
            exec_obj.close()
