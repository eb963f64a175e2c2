"""Graph-synchronised resident replica groups.

Both consumers of the process backend — the distributed topology and the
centralized baseline engines — follow the same stateful protocol:

1. spawn one resident replica per executor worker, **once**, from a bundle
   built at spawn time;
2. before every round, ship the coalesced weight-update delta
   (``graph.edges_changed_since(last_synced_version)``) so replicas catch
   up on any number of maintenance rounds with one broadcast;
3. fan tagged work envelopes out across the slots.

:class:`ReplicaSet` owns steps 1-2 — the subtle, version-tracking part
that must not diverge between call sites.  Replica state objects must
expose ``sync(updates)``; the graph must expose ``version`` and
``edges_changed_since`` (see :class:`repro.graph.graph.DynamicGraph`).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..graph.errors import ExecutorError, ExecutorTaskError
from ..graph.graph import WeightUpdate
from .base import Executor, WorkerGroup

__all__ = ["ReplicaSet"]


class ReplicaSet:
    """Lazily spawned, delta-synchronised group of resident replicas.

    Parameters
    ----------
    executor:
        The backend hosting the replicas (one slot per executor worker).
        Must be the ``process`` backend — in-process backends share master
        state directly and their ``spawn_group`` raises (see
        :meth:`~repro.exec.base.Executor.spawn_group`).
    factory:
        Module-level picklable factory handed to
        :meth:`~repro.exec.base.Executor.spawn_group`.
    graph:
        The authoritative graph whose change feed drives replica sync.
    """

    def __init__(self, executor: Executor, factory: Callable[[Any], Any], graph) -> None:
        self._executor = executor
        self._factory = factory
        self._graph = graph
        self._group: Optional[WorkerGroup] = None
        self._synced_version = 0

    @property
    def active(self) -> bool:
        """Whether the replica group is currently spawned."""
        return self._group is not None

    def ensure(self, bundle_factory: Callable[[], Any]) -> WorkerGroup:
        """Return the synced group, spawning it from a fresh bundle if needed.

        ``bundle_factory`` is invoked only on (re)spawn, so callers can
        capture live state (e.g. the current weights) at exactly the moment
        it ships.  After spawn — or on every later call — the
        replicas are brought current with one broadcast of the coalesced
        weight-update delta since the last sync.
        """
        if self._group is None:
            self._synced_version = self._graph.version
            bundle = bundle_factory()
            self._group = self._executor.spawn_group(
                self._factory, [bundle] * self._executor.workers
            )
        current = self._graph.version
        if current != self._synced_version:
            deltas = [
                WeightUpdate(u, v, weight)
                for u, v, weight in self._graph.edges_changed_since(
                    self._synced_version
                )
            ]
            self._atomic_broadcast("sync", deltas)
            self._synced_version = current
        return self._group

    def _atomic_broadcast(self, method: str, *args: Any) -> List[Any]:
        """Broadcast to every replica, discarding the whole group on failure.

        A replica group is only useful while every member holds the same
        state.  If a worker pipe dies (or a replica's method raises)
        partway through a broadcast, the survivors may already have
        applied the payload — e.g. half the group sitting one weight delta
        ahead of ``_synced_version`` — and no further delta arithmetic can
        tell who got what.  Fail *atomically instead of partially*: drop
        the group wholesale, so the next :meth:`ensure` respawns every
        replica from a fresh bundle of the master's live state (a
        consistent snapshot by construction), and re-raise as
        :class:`~repro.graph.errors.ExecutorTaskError` so callers hit one
        error type for both task-level and transport-level failures.
        """
        assert self._group is not None
        try:
            return self._group.broadcast(method, *args)
        except ExecutorTaskError:
            self.discard()
            raise
        except ExecutorError as exc:
            self.discard()
            raise ExecutorTaskError(
                type(exc).__name__,
                f"replica broadcast {method!r} failed mid-flight; the group "
                f"was discarded to avoid a half-synced replica set: {exc}",
                "",
            ) from exc

    def discard(self) -> None:
        """Drop the group; the next :meth:`ensure` respawns from fresh state."""
        if self._group is not None:
            self._group.close()
            self._group = None

    close = discard
