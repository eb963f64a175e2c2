"""Observability overhead guard: the cost of having (and using) repro.obs.

The kernel profiling hooks (``repro.obs.profile``) put one thread-local
lookup at the entry of every primitive in ``repro.kernel.primitives``; span
tracing adds per-work-item span pushes through the bolts.  This benchmark
pins both prices:

* **disabled** — hooks present but no collector active — must cost < 3%
  against an in-file copy of the pre-hook lean loop (the entry ``getattr``
  is the *only* difference, so this is a direct measurement of it);
* **enabled** — full span tracing + kernel profiling through an
  end-to-end topology batch — must cost < 15% against the same batch with
  observability off.

The enabled comparison runs with ``pruning=False`` so both sides do
identical logical work (the cross-round partial-path memo is per-process
state; see ARCHITECTURE.md, "Observability") and on fresh topologies so
memo warmth cannot leak between the timed sides.
"""

from __future__ import annotations

import gc
import random
import time
from heapq import heappop, heappush
from typing import List, Tuple

from repro.bench import print_experiment
from repro.core import DTLP, DTLPConfig
from repro.distributed import StormTopology
from repro.graph import road_network
from repro.kernel import CSRSnapshot
from repro.kernel.primitives import dijkstra_arrays
from repro.obs.trace import TraceSession
from repro.workloads import QueryGenerator

_INF = float("inf")

#: Acceptance ceilings (fractions of the baseline) from the PR contract.
DISABLED_CEILING = 0.03
ENABLED_CEILING = 0.15


def _lean_dijkstra(rows, num_vertices: int, source: int, target: int):
    """Verbatim copy of the pre-hook early-exit loop of ``dijkstra_arrays``.

    The production function is this plus one ``kernel_counters()`` call at
    entry; timing the two against each other isolates exactly the cost the
    disabled ceiling bounds.
    """
    dist: List[float] = [_INF] * num_vertices
    pred: List[int] = [-1] * num_vertices
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        if u == target:
            break
        for v, w in rows[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heappush(heap, (nd, v))
    return dist, pred, None


def _best_of(callable_, repeats: int) -> float:
    # Each sample lasts a few ms: collect first, so a full collection of
    # the session's heap cannot land inside one and read as hook cost.
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def test_obs_overhead(scale) -> None:
    # ------------------------------------------------------------------
    # disabled: hook-bearing primitive vs the lean copy
    # ------------------------------------------------------------------
    side = 55 if scale.name == "quick" else 90
    graph = road_network(side, side, seed=3)
    snapshot = CSRSnapshot(graph)
    rows, n = snapshot.rows, snapshot.num_vertices
    rng = random.Random(1)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(12)]

    for source, target in pairs[:4]:
        assert _lean_dijkstra(rows, n, source, target) == dijkstra_arrays(
            rows, n, source, target, track_touched=False
        )

    repeats = 7 if scale.name == "quick" else 9
    lean_s = _best_of(
        lambda: [_lean_dijkstra(rows, n, s, t) for s, t in pairs], repeats
    )
    hooked_s = _best_of(
        lambda: [
            dijkstra_arrays(rows, n, s, t, track_touched=False) for s, t in pairs
        ],
        repeats,
    )
    disabled_overhead = hooked_s / lean_s - 1.0

    # ------------------------------------------------------------------
    # enabled: fully observed topology batch vs the same batch unobserved
    # ------------------------------------------------------------------
    qgraph = road_network(24, 24, seed=5)
    dtlp = DTLP(qgraph, DTLPConfig(z=48, xi=3)).build()
    queries = QueryGenerator(qgraph, seed=2, min_hops=4).generate(
        16 if scale.name == "quick" else 40, k=3
    )

    def run_batch(observed: bool) -> float:
        # Fresh topology per run: the bolts' cross-round memos must not
        # warm one side against the other.
        tracer = TraceSession() if observed else None
        with StormTopology(dtlp, pruning=False, tracer=tracer) as topology:
            gc.collect()
            started = time.perf_counter()
            topology.run_queries(queries)
            elapsed = time.perf_counter() - started
        if observed:
            assert len(tracer.queries) == len(queries)
        return elapsed

    batch_repeats = 3 if scale.name == "quick" else 5
    plain_s = min(run_batch(observed=False) for _ in range(batch_repeats))
    observed_s = min(run_batch(observed=True) for _ in range(batch_repeats))
    enabled_overhead = observed_s / plain_s - 1.0

    print_experiment(
        "Observability overhead",
        ["configuration", "time (ms)", "overhead", "ceiling"],
        [
            ["kernel lean copy", round(lean_s * 1e3, 3), "-", "-"],
            [
                "kernel hooks off",
                round(hooked_s * 1e3, 3),
                f"{disabled_overhead:+.2%}",
                f"<{DISABLED_CEILING:.0%}",
            ],
            ["topology batch, obs off", round(plain_s * 1e3, 3), "-", "-"],
            [
                "topology batch, trace+profile",
                round(observed_s * 1e3, 3),
                f"{enabled_overhead:+.2%}",
                f"<{ENABLED_CEILING:.0%}",
            ],
        ],
        notes="min-of-N timings; enabled comparison uses pruning=False and "
        "fresh topologies so both sides do identical logical work",
    )

    assert disabled_overhead < DISABLED_CEILING, (
        f"disabled-path overhead {disabled_overhead:.2%} exceeds "
        f"{DISABLED_CEILING:.0%}: the kernel entry hook got expensive"
    )
    assert enabled_overhead < ENABLED_CEILING, (
        f"enabled tracing+profiling overhead {enabled_overhead:.2%} exceeds "
        f"{ENABLED_CEILING:.0%}"
    )
