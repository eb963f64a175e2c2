"""Service replicas: independent `KSPService` instances behind the front door.

Each replica is a full serving stack — its own graph copy, engine, result
cache and admission pipeline — so replicas share *nothing* and a fault in
one (killed process, stalled batch) cannot corrupt another.  Replica
copies are made by pickling the seed graph/index (the same mechanism the
process executor uses to ship resident state), which guarantees every
replica starts from an identical network; maintenance keeps them identical
by applying the *same* pregenerated update rounds to all replicas at
quiesced boundaries (see :class:`~repro.frontdoor.server.FrontDoorServer`).

Fault injection speaks the :mod:`repro.chaos` vocabulary, but at replica
granularity — this is the failure *domain* the front door routes around:

* ``kill``    — the replica refuses all work immediately
  (:class:`~repro.frontdoor.errors.ReplicaUnavailableError`, the
  connection-refused classification);
* ``revive``  — a killed replica rejoins (the ``join`` analogue);
* ``stall``   — the next N batches block for ``stall_seconds`` before
  computing, long enough to blow typical deadline budgets (the timeout
  classification);
* ``slow``    — the next N batches take ``factor``× their usual time
  (a degraded-but-alive replica; requests still succeed, slower).
"""

from __future__ import annotations

import pickle
import time
from typing import List, Optional, Sequence

from ..core.dtlp import DTLP, DTLPConfig
from ..distributed.engine import KSPDGEngine
from ..graph.graph import DynamicGraph, WeightUpdate
from ..service.server import KSPService, ServedQuery
from ..workloads.queries import KSPQuery
from ..workloads.runner import FindKSPEngine, YenEngine
from .errors import ReplicaUnavailableError

__all__ = ["ServiceReplica", "build_replicas", "REPLICA_ENGINES"]

#: Engine choices accepted by :func:`build_replicas`.
REPLICA_ENGINES = ("yen", "findksp", "kspdg")


class ServiceReplica:
    """One serving replica plus its fault-injection switchboard.

    Thread model: :meth:`submit` is called from the front door's event
    loop; :meth:`serve_batch` runs on the replica's dedicated worker
    thread.  Both funnel into the thread-safe request pipeline; the fault
    flags are plain attributes written by the (single-threaded) chaos
    driver and read racily by design — a kill taking effect one batch late
    is indistinguishable from a kill scheduled one batch later.
    """

    def __init__(
        self,
        replica_id: int,
        service: KSPService,
        stall_seconds: float = 0.08,
    ) -> None:
        self.replica_id = replica_id
        self.service = service
        self.stall_seconds = stall_seconds
        self.alive = True
        self._stall_batches = 0
        self._slow_batches = 0
        self._slow_factor = 1.0
        #: Batches served, for the health report.
        self.batches_served = 0

    # ------------------------------------------------------------------
    # fault injection (chaos vocabulary)
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Refuse all subsequent work until :meth:`revive`."""
        self.alive = False

    def revive(self) -> None:
        """Rejoin: accept work again (the ``join`` analogue)."""
        self.alive = True

    def stall(self, batches: int = 1) -> None:
        """Block the next ``batches`` serve calls for ``stall_seconds`` each."""
        self._stall_batches += max(0, batches)

    def slow(self, batches: int = 1, factor: float = 2.0) -> None:
        """Make the next ``batches`` serve calls ``factor``× slower."""
        self._slow_batches += max(0, batches)
        self._slow_factor = max(1.0, factor)

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def healthy(self) -> bool:
        """Injected liveness AND the engine backend's own health signal."""
        if not self.alive:
            return False
        engine_healthy = getattr(self.service.engine, "healthy", None)
        return engine_healthy() if engine_healthy is not None else True

    # ------------------------------------------------------------------
    # serving (called by the front door)
    # ------------------------------------------------------------------
    def submit(self, query: KSPQuery, deadline: Optional[float] = None) -> bool:
        """Admit one query, or refuse immediately when killed/unhealthy."""
        if not self.healthy():
            raise ReplicaUnavailableError(
                f"replica {self.replica_id} is unavailable"
            )
        return self.service.submit(query, deadline=deadline)

    def serve_batch(self) -> List[ServedQuery]:
        """Process one micro-batch on the replica's worker thread.

        Applies pending stall/slow handicaps first — a stalled replica
        burns wall clock *before* computing, exactly like a wedged worker,
        so in-flight callers time out rather than error.
        """
        if not self.alive:
            raise ReplicaUnavailableError(
                f"replica {self.replica_id} is unavailable"
            )
        if self._stall_batches > 0:
            self._stall_batches -= 1
            time.sleep(self.stall_seconds)
        if self._slow_batches > 0:
            self._slow_batches -= 1
            # A slowdown scales the whole batch: sleep the extra time the
            # handicap adds on top of the EWMA-estimated batch cost.
            estimated = self.service.pipeline.estimated_batch_seconds
            time.sleep(estimated * (self._slow_factor - 1.0))
        served = self.service.process_batch()
        self.batches_served += 1
        return served

    def apply_maintenance(self, updates: Sequence[WeightUpdate]) -> None:
        """Apply one update round (called only at quiesced boundaries)."""
        self.service.maintenance_step(list(updates))

    def close(self) -> None:
        """Release the replica's service and engine (idempotent)."""
        if not self.service.closed:
            self.service.close()


def _copy_via_pickle(obj):
    """Deep copy through pickle — the exact state-shipping path replicas
    would cross in a real multi-process deployment, so anything that cannot
    replicate fails loudly here instead of in production."""
    return pickle.loads(pickle.dumps(obj))


def build_replicas(
    graph: DynamicGraph,
    num_replicas: int = 2,
    engine: str = "yen",
    kernel: str = "snapshot",
    executor: Optional[str] = None,
    workers: int = 2,
    z: int = 48,
    xi: int = 3,
    queue_capacity: int = 256,
    max_batch_size: int = 8,
    cache_capacity: int = 4096,
    stall_seconds: float = 0.08,
) -> List[ServiceReplica]:
    """Build ``num_replicas`` independent serving stacks from one seed graph.

    Every replica gets its own pickled copy of ``graph`` (and, for the
    ``kspdg`` engine, of the weight state of the DTLP index built once over
    the seed graph; the index's fixed layout is one object every replica of
    the process shares, see :class:`~repro.core.layout.IndexLayout`), an
    engine on the requested kernel/executor, and a private
    :class:`KSPService`.  The caller — normally the front door server —
    owns the returned replicas and must close them.
    """
    if num_replicas < 1:
        raise ValueError("num_replicas must be at least 1")
    if engine not in REPLICA_ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected {REPLICA_ENGINES}")
    seed_dtlp: Optional[DTLP] = None
    if engine == "kspdg":
        seed_dtlp = DTLP(graph, DTLPConfig(z=z, xi=xi)).build()
    replicas: List[ServiceReplica] = []
    for replica_id in range(num_replicas):
        if engine == "kspdg":
            # Graph and index must stay mutually consistent, so they are
            # pickled together and land as one connected pair.
            replica_graph, replica_dtlp = _copy_via_pickle((graph, seed_dtlp))
            replica_engine = KSPDGEngine.local(
                replica_dtlp,
                num_workers=workers,
                kernel=kernel,
                executor=executor,
            )
        else:
            replica_graph = _copy_via_pickle(graph)
            replica_dtlp = None
            engine_cls = YenEngine if engine == "yen" else FindKSPEngine
            replica_engine = engine_cls(
                replica_graph,
                kernel=kernel,
                executor=executor,
                executor_workers=workers,
            )
        service = KSPService(
            replica_graph,
            replica_engine,
            owns_engine=True,
            dtlp=replica_dtlp,
            enable_cache=True,
            cache_capacity=cache_capacity,
            queue_capacity=queue_capacity,
            max_batch_size=max_batch_size,
        )
        replicas.append(
            ServiceReplica(replica_id, service, stall_seconds=stall_seconds)
        )
    return replicas
