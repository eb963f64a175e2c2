"""Executor abstraction: the physical execution layer of the system.

The paper runs KSP-DG on Apache Storm across 10-20 physical servers.  This
repository separates that deployment into two orthogonal concerns (see
``ARCHITECTURE.md``):

* the **logical placement** — which (simulated) worker owns which subgraph,
  how queries are routed to QueryBolts, and how cost is attributed.  This
  lives in :mod:`repro.distributed` and is what the paper's figures measure.
* the **physical execution** — which OS resource actually runs a piece of
  work.  This module defines that abstraction: an :class:`Executor` turns
  work items into results using one of three interchangeable backends:

  - ``serial`` — :class:`~repro.exec.local.SerialExecutor`, runs everything
    inline on the calling thread.  The reference backend; all other
    backends must produce bit-identical results.
  - ``thread`` — :class:`~repro.exec.local.ThreadExecutor`, a thread pool
    sharing the caller's memory.  Limited by the GIL for pure-Python
    compute, but exercises real concurrency (and overlaps any wait states).
  - ``process`` — :class:`~repro.exec.process.ProcessExecutor`, persistent
    worker processes that hold *resident state* (DTLP indexes, CSR
    snapshots) and receive only weight-update deltas and query envelopes
    between rounds.  This is the backend that scales with cores.

Two execution shapes are provided:

* :meth:`Executor.map` — a stateless parallel map (used e.g. for parallel
  DTLP index construction and for fanning independent OD-pair queries of
  the centralized baselines).
* :meth:`Executor.spawn_group` — *stateful* worker groups, **process
  backend only**: ``factory`` is applied once per slot to build a resident
  state object, after which methods are invoked on those states by name.
  The factory/payload pair is shipped once and the state never crosses the
  process boundary again — callers send small deltas instead.
"""

from __future__ import annotations

import abc
import os
import traceback
from typing import Any, Callable, List, Sequence, Tuple, Union

from ..graph.errors import ExecutorError, ExecutorTaskError

__all__ = [
    "EXECUTORS",
    "Executor",
    "WorkerGroup",
    "validate_executor_name",
    "default_executor_name",
    "make_executor",
    "resolve_executor",
]


def capture_exception(exc: BaseException) -> Tuple[str, str, str]:
    """Flatten an exception into a picklable ``(type, message, traceback)``."""
    return (
        type(exc).__qualname__,
        str(exc),
        "".join(traceback.format_exception(type(exc), exc, exc.__traceback__)),
    )


def call_wrapped(fn: Callable[..., Any], *args: Any) -> Any:
    """Invoke a task, re-raising failures as :class:`ExecutorTaskError`.

    Every backend funnels task failures through this (the process backend
    via the pickled :func:`capture_exception` info), so callers handle one
    exception type regardless of which backend ran the work.  In-process
    backends chain the original exception as ``__cause__``; lifecycle
    errors (:class:`ExecutorError`) pass through untranslated.
    """
    try:
        return fn(*args)
    except ExecutorError:
        raise
    except BaseException as exc:
        remote_type, message, formatted = capture_exception(exc)
        raise ExecutorTaskError(remote_type, message, formatted) from exc

#: Backend names accepted everywhere an executor can be chosen (CLI
#: ``--executor``, ``StormTopology(executor=...)``, engine constructors).
EXECUTORS = ("serial", "thread", "process")

#: A call envelope handed to :meth:`WorkerGroup.call_each`:
#: ``(slot, method_name, args_tuple)``.
GroupCall = Tuple[int, str, Tuple[Any, ...]]


def validate_executor_name(name: str) -> str:
    """Validate a backend name string, returning it unchanged."""
    if name not in EXECUTORS:
        raise ExecutorError(
            f"unknown executor {name!r}; expected one of {EXECUTORS}"
        )
    return name


def default_executor_name() -> str:
    """Backend used when none is specified: ``$REPRO_EXECUTOR`` or ``serial``.

    The environment hook lets the whole test suite (and any deployment)
    flip its default backend without touching call sites — CI runs the
    tier-1 suite under both ``serial`` and ``process`` this way.  Call
    sites that pass an explicit backend are unaffected.
    """
    return validate_executor_name(os.environ.get("REPRO_EXECUTOR", "serial"))


class WorkerGroup(abc.ABC):
    """A set of resident state objects, one per *slot*, owned by an executor.

    Slots are logical: the process backend (the only one that hosts
    groups) pins slot ``s`` to worker process ``s % workers`` and keeps the
    state resident there.  Methods are invoked by name so that only
    arguments and results ever cross a process boundary.
    """

    @property
    @abc.abstractmethod
    def num_slots(self) -> int:
        """Number of resident states in the group."""

    @abc.abstractmethod
    def call(self, slot: int, method: str, *args: Any) -> Any:
        """Invoke ``state.method(*args)`` on one slot and return its result."""

    @abc.abstractmethod
    def call_each(self, calls: Sequence[GroupCall]) -> List[Any]:
        """Invoke a batch of calls (concurrently where the backend allows).

        Results are returned in the order of ``calls`` regardless of
        completion order.  The first failing call (in ``calls`` order) is
        re-raised as :class:`~repro.graph.errors.ExecutorTaskError`.
        """

    def broadcast(self, method: str, *args: Any) -> List[Any]:
        """Invoke the same method on every slot; per-slot results in order."""
        return self.call_each(
            [(slot, method, args) for slot in range(self.num_slots)]
        )

    @abc.abstractmethod
    def close(self) -> None:
        """Release the group's states (idempotent)."""


class Executor(abc.ABC):
    """One physical execution backend.

    Parameters
    ----------
    workers:
        Degree of physical parallelism (threads or processes).  The serial
        backend accepts the parameter for interface symmetry and ignores it.
    """

    #: Backend name; one of :data:`EXECUTORS`.
    name: str = "abstract"

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ExecutorError(f"workers must be at least 1, got {workers}")
        self._workers = workers
        self._closed = False

    @property
    def workers(self) -> int:
        """Configured degree of physical parallelism."""
        return self._workers

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def healthy(self) -> bool:
        """Whether the backend can currently execute work.

        The base definition is liveness of the handle itself (not closed);
        backends with external resources refine it — the process backend
        reports ``False`` as soon as any spawned worker process has died,
        which is the health signal the front door's circuit breakers and
        replica router consume.
        """
        return not self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutorError(f"{self.name} executor is closed")

    @abc.abstractmethod
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to every item, returning results in input order.

        The process backend requires ``fn`` and every item/result to be
        picklable; the serial and thread backends accept closures.  On
        every backend the first failing item (in input order) is re-raised
        as :class:`~repro.graph.errors.ExecutorTaskError`.
        """

    def spawn_group(
        self, factory: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> WorkerGroup:
        """Create one resident state per payload via ``factory(payload)``.

        Stateful groups exist only across a process boundary: ``factory``
        must be a module-level callable and each payload picklable, and
        both are shipped to the owning worker process exactly once.  An
        in-process backend raises :class:`~repro.graph.errors.ExecutorError`
        instead — it would alias one payload across every slot, so each
        "replica" would mutate the caller's live objects and a broadcast
        would re-apply the same delta once per slot.  Serial and thread
        callers share master state directly.
        """
        raise ExecutorError(
            f"worker groups require the process backend; the {self.name!r} "
            "backend shares in-process state and has nothing to make resident"
        )

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        self._closed = True

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} workers={self._workers}>"


def make_executor(name: str, workers: int = 1) -> Executor:
    """Instantiate a backend by name (``serial``, ``thread`` or ``process``)."""
    validate_executor_name(name)
    if name == "serial":
        from .local import SerialExecutor

        return SerialExecutor(workers)
    if name == "thread":
        from .local import ThreadExecutor

        return ThreadExecutor(workers)
    from .process import ProcessExecutor

    return ProcessExecutor(workers)


def resolve_executor(
    spec: Union[str, Executor, None], workers: int = 1
) -> Tuple[Executor, bool]:
    """Resolve a user-facing executor spec into ``(executor, owned)``.

    ``spec`` may be a backend name, an existing :class:`Executor` (reused,
    not owned — the caller keeps responsibility for closing it), or ``None``
    (defaults to :func:`default_executor_name`).  ``owned`` tells the
    caller whether it created the executor and must close it.
    """
    if spec is None:
        spec = default_executor_name()
    if isinstance(spec, Executor):
        return spec, False
    if isinstance(spec, str):
        return make_executor(spec, workers), True
    raise ExecutorError(f"cannot resolve executor from {spec!r}")
