"""Kernel profiling hooks: per-search counters behind a null-object default.

The kernel primitives (:mod:`repro.kernel.primitives`) are the hot inner
loops of the repository — a per-relaxation branch testing "is profiling on?"
would tax every search even when nobody is measuring.  The hooks therefore
gate at *function entry*: each primitive performs exactly one
:func:`kernel_counters` lookup (a thread-local ``getattr``) and, when no
collector is active, runs its own lean unhooked loop.  When a
:class:`KernelCounters` collector is active on the current thread, every
primitive forwards to the kernel's one counting loop
(``repro.kernel.primitives._counting_search`` — general over all of them),
which counts

* ``searches`` — primitive invocations (a resumable search counts once,
  when it is created, however often it is extended),
* ``settled`` — fresh heap pops (vertices whose distance became final),
* ``relaxed`` — successful edge relaxations (distance improvements),
* ``pruned`` — relaxations discarded by a lower-bound/cutoff test
  (:func:`~repro.kernel.primitives.bounded_dijkstra_arrays`),
* ``heap_pushes`` / ``heap_peak`` — heap traffic and high-water mark.

The counting loop preserves each lean loop's relaxation sequence exactly, so
enabling profiling never changes distances, predecessors or tie-breaks — the
property suite asserts bit-identical results with the collector on and off.
The dict reference loop (:func:`repro.algorithms.dijkstra.dijkstra`) counts
the same quantities inline, behind the same per-search lookup.

Activation is per thread (:func:`activate` / :func:`deactivate`, or the
:func:`collecting` context manager), which is what lets the distributed
layer profile each query of a concurrent batch into its own collector and
fold the totals into the per-query cost ledger afterwards.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "KernelCounters",
    "kernel_counters",
    "activate",
    "deactivate",
    "collecting",
    "counters_snapshot",
    "counters_delta",
]

_local = threading.local()


class KernelCounters:
    """Mutable bundle of kernel search counters (one collector per scope)."""

    __slots__ = (
        "searches",
        "settled",
        "relaxed",
        "pruned",
        "heap_pushes",
        "heap_peak",
    )

    def __init__(self) -> None:
        self.searches = 0
        self.settled = 0
        self.relaxed = 0
        self.pruned = 0
        self.heap_pushes = 0
        self.heap_peak = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain mapping of every counter (stable key order)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def fold_into(self, registry) -> None:
        """Accumulate into a :class:`~repro.obs.metrics.MetricsRegistry`.

        Counter totals merge additively across executor ledgers (see the
        cluster absorb path); the heap high-water mark is a gauge merged by
        maximum.
        """
        registry.counter("kernel_searches_total").inc(self.searches)
        registry.counter("kernel_settled_total").inc(self.settled)
        registry.counter("kernel_relaxed_total").inc(self.relaxed)
        registry.counter("kernel_pruned_pushes_total").inc(self.pruned)
        registry.counter("kernel_heap_pushes_total").inc(self.heap_pushes)
        registry.gauge("kernel_heap_peak").set_max(self.heap_peak)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"KernelCounters({fields})"


def kernel_counters() -> Optional[KernelCounters]:
    """The collector active on this thread, or ``None`` (profiling off).

    This is the single check the kernel primitives pay per call; everything
    per-relaxation lives inside the counting loop, which only runs when
    this returns a collector.
    """
    return getattr(_local, "counters", None)


def activate(counters: KernelCounters) -> None:
    """Route this thread's kernel counters into ``counters``."""
    _local.counters = counters


def deactivate() -> None:
    """Stop collecting kernel counters on this thread."""
    _local.counters = None


@contextmanager
def collecting() -> Iterator[KernelCounters]:
    """Scope a fresh collector over the ``with`` body (this thread only)."""
    counters = KernelCounters()
    previous = kernel_counters()
    activate(counters)
    try:
        yield counters
    finally:
        _local.counters = previous


#: Snapshot layout used by the tracing layer to attribute kernel work to
#: individual spans: ``(settled, relaxed, pruned, heap_pushes, searches)``.
Snapshot = Tuple[int, int, int, int, int]


def counters_snapshot() -> Optional[Snapshot]:
    """Capture the active collector's totals (``None`` when profiling off)."""
    counters = kernel_counters()
    if counters is None:
        return None
    return (
        counters.settled,
        counters.relaxed,
        counters.pruned,
        counters.heap_pushes,
        counters.searches,
    )


def counters_delta(snapshot: Snapshot) -> Dict[str, int]:
    """Counter growth since ``snapshot`` as span-args (empty if deactivated)."""
    counters = kernel_counters()
    if counters is None:
        return {}
    return {
        "settled": counters.settled - snapshot[0],
        "relaxed": counters.relaxed - snapshot[1],
        "pruned": counters.pruned - snapshot[2],
        "heap_pushes": counters.heap_pushes - snapshot[3],
        "searches": counters.searches - snapshot[4],
    }
