"""Navigation service scenario: concurrent route suggestions on a live road network.

The paper's first motivating application (Section 1) is a navigation service
that must return the top-k candidate routes for many concurrent users while
traffic conditions evolve.  This example simulates such a service on the
simulated cluster:

* a scaled "NY" road network is generated and indexed with DTLP,
* the index and subgraphs are deployed on a simulated 6-worker cluster with
  the Storm-style topology of the paper (EntranceSpout / SubgraphBolts /
  QueryBolts),
* batches of route requests arrive interleaved with traffic updates,
* for each batch the example reports the simulated parallel completion time,
  total computation, communication volume and the load balance across
  workers.

Run with::

    python examples/navigation_service.py
"""

from __future__ import annotations

from repro import DTLP, DTLPConfig, StormTopology, TrafficModel, dataset
from repro.workloads import QueryGenerator


def main() -> None:
    # A scaled analogue of the paper's New York dataset.
    graph = dataset("NY", seed=3, scale=0.8)
    print(f"NY-scaled road network: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges")

    dtlp = DTLP(graph, DTLPConfig(z=48, xi=3)).build()
    print(f"DTLP built in {dtlp.build_seconds:.2f}s "
          f"({dtlp.partition.num_subgraphs} subgraphs)")

    topology = StormTopology(dtlp, num_workers=6)
    print(f"deployed on a simulated cluster of {topology.cluster.num_workers} workers")

    traffic = TrafficModel(graph, alpha=0.35, tau=0.30, seed=11)
    requests = QueryGenerator(graph, seed=5, min_hops=5)

    # Three rounds of: traffic update burst, then a batch of route requests.
    for epoch in range(1, 4):
        updates = traffic.generate_updates()
        graph.apply_updates(updates)
        dtlp.handle_updates(updates)

        batch = requests.generate(8, k=3)
        report = topology.run_queries(batch)
        balance = report.load_balance
        print(
            f"\nepoch {epoch}: {len(updates)} weight updates, "
            f"{len(batch)} route requests"
        )
        print(f"  simulated parallel time : {report.makespan_seconds * 1000:.1f} ms")
        print(f"  total computation       : {report.total_compute_seconds * 1000:.1f} ms")
        print(f"  communication volume    : {report.communication_units} vertex-units")
        print(f"  mean iterations / query : {report.mean_iterations:.1f}")
        print(f"  busy-time spread        : {balance['busy_spread'] * 100:.1f}%")
        best = report.results[0]
        print(
            f"  sample answer           : request {best.query.source} -> "
            f"{best.query.target}, best 3 routes "
            f"{[round(p.distance, 1) for p in best.paths]}"
        )


if __name__ == "__main__":
    main()
