"""Live serving scenario: the online layer over an evolving road network.

The paper's system is meant to run continuously — traffic evolves while
users keep asking for routes.  This example wires the full serving stack of
:mod:`repro.service` together:

* a scaled "NY" road network is generated and indexed with DTLP,
* a :class:`~repro.service.server.KSPService` serves KSP queries through a
  coalescing admission queue and a result cache,
* epochs interleave a traffic snapshot (maintenance: graph + DTLP + cache
  through one listener fan-out; each round empties the cache, because a
  weight drop anywhere can open a shorter path than a cached one) with a
  wave of route requests in which popular origin/destination pairs repeat,
* every served path is re-priced against the current weights to show that
  no stale distance is ever served,
* the final :class:`~repro.service.server.ServiceReport` prints latency
  percentiles, cache hit rate, queue pressure and shed counts.

Run with::

    python examples/live_service.py
"""

from __future__ import annotations

from repro import DTLP, DTLPConfig, TrafficModel, dataset
from repro.bench.reporting import format_table
from repro.distributed import KSPDGEngine
from repro.service import KSPService, generate_trace, replay


def main() -> None:
    graph = dataset("NY", seed=3, scale=0.6)
    print(f"NY-scaled road network: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges")

    dtlp = DTLP(graph, DTLPConfig(z=48, xi=3)).build()
    print(f"DTLP built in {dtlp.build_seconds:.2f}s "
          f"({dtlp.partition.num_subgraphs} subgraphs)")

    engine = KSPDGEngine.local(dtlp, num_workers=4)
    traffic = TrafficModel(graph, alpha=0.05, tau=0.30, seed=11)
    service = KSPService(graph, engine, dtlp=dtlp, traffic=traffic,
                         queue_capacity=128, max_batch_size=16)

    # A reproducible mixed trace: 300 route requests (60% repeating popular
    # origin/destination pairs) interleaved with 30 traffic snapshots.
    trace = generate_trace(graph, num_queries=300, update_rounds=30,
                           k=2, seed=11, repeat_fraction=0.6, traffic=traffic)
    print(f"replaying {len(trace)} events "
          f"(300 queries + 30 update rounds)...")
    outcome = replay(service, trace, validate=True)

    print(f"served {outcome.num_served} queries, shed {outcome.num_shed}, "
          f"stale results: {outcome.stale_served} (must be 0)")
    rows = [[key, value] for key, value in outcome.report.as_dict().items()]
    print(format_table(["metric", "value"], rows))
    service.close()


if __name__ == "__main__":
    main()
