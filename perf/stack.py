"""The pinned serving stack the benchmark measures, built in this process.

Everything here is part of the dataset or the deployment and never varies
with ``--seed``: the network generator arguments, the DTLP configuration,
the replica count and the serving knobs.  ``run.py`` echoes :func:`pinned`
in its printed ``config`` so a result can be traced back to the stack it
measured.
"""

from __future__ import annotations

import gc
import pickle
import time
from typing import List, Tuple

from repro.core import DTLP, DTLPConfig
from repro.distributed import KSPDGEngine
from repro.frontdoor import FrontDoorClient, ServiceReplica, start_front_door
from repro.graph import DynamicGraph, clustered_road_network
from repro.graph.partition_ml import make_partition
from repro.service import KSPService

#: Network seed 7 is part of the dataset: a network per ``--seed`` made
#: partition quality the largest term in every spread of an earlier attempt.
NETWORKS = {
    "M": {"clusters_per_side": 6, "cluster_rows": 8, "cluster_cols": 8, "seed": 7},
    "L": {"clusters_per_side": 9, "cluster_rows": 8, "cluster_cols": 8, "seed": 7},
}
#: ``z`` equals the city size (8 x 8), so the min-cut partitioner can align
#: subgraph borders with the highway corridors; sizes that do not align
#: produce single queries of tens of seconds (see README, exclusions).
DTLP_CONFIG = {"z": 64, "xi": 3, "partitioner": "mincut"}
NUM_REPLICAS = 2
NUM_WORKERS = 4
MAX_BATCH_SIZE = 8
K = 3
MIN_HOPS = 6
#: Single queries on ``L`` reach several hundred ms; the budget only has to
#: never fire, because a shed or retried request counts as failed.
DEADLINE_MS = 60_000.0


def pinned() -> dict:
    """The pinned stack as a plain dictionary, for the printed ``config``."""
    return {
        "networks": NETWORKS,
        "dtlp": DTLP_CONFIG,
        "replicas": NUM_REPLICAS,
        "engine": {"num_workers": NUM_WORKERS, "executor": "serial"},
        "max_batch_size": MAX_BATCH_SIZE,
        "k": K,
        "min_hops": MIN_HOPS,
        "deadline_ms": DEADLINE_MS,
        "clients": 1,
        "connections": 1,
    }


def generate(network: str) -> DynamicGraph:
    """Generate the pinned network ``"M"`` or ``"L"``."""
    return clustered_road_network(**NETWORKS[network])


def build_index(graph: DynamicGraph, partition=None) -> DTLP:
    """Build the pinned DTLP index over ``graph``."""
    return DTLP(graph, DTLPConfig(**DTLP_CONFIG), partition=partition).build()


def partition(graph: DynamicGraph):
    """The partition :func:`build_index` would compute, for timing it alone."""
    return make_partition(graph, DTLP_CONFIG["z"], partitioner=DTLP_CONFIG["partitioner"])


def copy_pair(graph: DynamicGraph, dtlp: DTLP) -> Tuple[DynamicGraph, DTLP]:
    """A private ``(graph, dtlp)`` pair, copied the way replicas are shipped."""
    return pickle.loads(pickle.dumps((graph, dtlp)))


def copy_graph(graph: DynamicGraph) -> DynamicGraph:
    """A private copy of the graph alone (listeners are not copied)."""
    return pickle.loads(pickle.dumps(graph))


def make_service(graph: DynamicGraph, dtlp: DTLP) -> KSPService:
    """One replica's ``KSPService`` over a private pair: a KSP-DG engine with
    library defaults, pinned to the serial executor so no run forks workers."""
    engine = KSPDGEngine.local(dtlp, num_workers=NUM_WORKERS, executor="serial")
    return KSPService(
        graph, engine, owns_engine=True, dtlp=dtlp, max_batch_size=MAX_BATCH_SIZE
    )


class Stack:
    """Two replicas behind a front door, plus the one client that drives it.

    The handle owns the replicas and joins the event-loop and batch threads
    on :meth:`close`; the client holds the single keep-alive connection.
    """

    def __init__(self, graph: DynamicGraph, dtlp: DTLP) -> None:
        self.replicas: List[ServiceReplica] = []
        self.handle = None
        self.client = None
        try:
            for replica_id in range(NUM_REPLICAS):
                service = make_service(*copy_pair(graph, dtlp))
                self.replicas.append(ServiceReplica(replica_id, service))
            self.handle = start_front_door(self.replicas)
            self.client = FrontDoorClient.for_url(
                self.handle.url, default_budget_ms=DEADLINE_MS
            )
            health = self.client.health()
            if health["status"] != "ok":
                raise RuntimeError(f"front door came up unhealthy: {health}")
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close client, server and replicas (idempotent)."""
        if self.client is not None:
            self.client.close()
        if self.handle is not None:
            self.handle.close()
        for replica in self.replicas:
            replica.close()


def timed_setup(network: str) -> Tuple[float, DynamicGraph, DTLP, Stack]:
    """One full set-up: generate, index, replicas, front door, first healthy
    ``/healthz``.  Returns the seconds it took and what it built."""
    started = time.perf_counter()
    graph = generate(network)
    dtlp = build_index(graph)
    stack = Stack(graph, dtlp)
    return time.perf_counter() - started, graph, dtlp, stack


def repeated_setup(network: str, repeats: int) -> Tuple[List[float], DynamicGraph, DTLP, Stack]:
    """Set up ``repeats`` times and keep the last stack to serve.

    Each earlier stack is closed and collected before the next starts, so
    set-ups do not share memory or threads.
    """
    seconds: List[float] = []
    for attempt in range(repeats):
        elapsed, graph, dtlp, stack = timed_setup(network)
        seconds.append(elapsed)
        if attempt < repeats - 1:
            stack.close()
            del graph, dtlp, stack
            gc.collect()
    return seconds, graph, dtlp, stack
