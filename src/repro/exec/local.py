"""In-process execution backends: ``serial`` (reference) and ``thread``.

Both backends keep all state in the calling process, so work functions may
be closures and results are returned by reference (no pickling).  The serial backend is the semantic reference: every other
backend must be bit-identical to it.  The thread backend provides real
concurrency inside one interpreter — bounded by the GIL for pure-Python
compute, but a faithful stepping stone between the serial reference and the
multi-process backend, and the cheapest way to exercise the concurrent code
paths (per-task cost ledgers, shared-snapshot pre-sync) under test.

See ``ARCHITECTURE.md`` ("Execution backends") for trade-offs.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence

from .base import Executor, call_wrapped

__all__ = ["SerialExecutor", "ThreadExecutor"]


class SerialExecutor(Executor):
    """The reference backend: every work item runs inline, in order.

    Results (paths, distances and deterministic cost counters) define the
    contract the concurrent backends are property-tested against.
    """

    name = "serial"

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        self._check_open()
        return [call_wrapped(fn, item) for item in items]


class ThreadExecutor(Executor):
    """Thread-pool backend sharing the caller's memory.

    The pool is created lazily and reused across calls, so repeated batches
    (the serving loop, the topology's micro-batches) pay thread start-up
    once.  Work functions must be safe to run concurrently against shared
    state; the distributed layer guarantees this by pre-syncing shared
    kernel snapshots before fanning out and by giving every task a private
    cost ledger (see :mod:`repro.distributed.topology`).
    """

    name = "thread"

    def __init__(self, workers: int = 2) -> None:
        super().__init__(workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._workers, thread_name_prefix="repro-exec"
                )
            return self._pool

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        self._check_open()
        items = list(items)
        if len(items) <= 1:
            return [call_wrapped(fn, item) for item in items]
        pool = self._ensure_pool()
        futures = [pool.submit(call_wrapped, fn, item) for item in items]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._closed:
            return
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
        super().close()
