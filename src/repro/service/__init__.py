"""Online query-serving subsystem.

Turns the offline engines of :mod:`repro.workloads` and
:mod:`repro.distributed` into a long-lived service in which KSP queries and
road-network weight updates genuinely interleave, the way the paper's system
is meant to run in production:

* :class:`ResultCache` — ``(source, target, k)``-keyed result cache that
  every applied weight round empties, so a hit was computed at the
  current weights;
* :class:`RequestPipeline` — bounded admission queue with dedup of identical
  in-flight queries, micro-batching and typed load shedding
  (:class:`ServiceOverloadedError`);
* :class:`KSPService` — the server: request path, maintenance loop applying
  :class:`~repro.dynamics.traffic.TrafficModel` snapshots to the graph and
  DTLP index between batches, and the counts of what it served, kept in
  metrics registries (:mod:`repro.obs.metrics`);
* :class:`ServiceReport` — latency percentiles, cache hit rate, queue depth
  and shed counts;
* :func:`generate_trace` / :func:`replay` — reproducible mixed
  update/query traces and the replay driver behind ``repro replay`` and
  ``repro serve``.

Quickstart
----------
>>> from repro import road_network, DTLP, DTLPConfig, KSPDG
>>> from repro.service import KSPService, generate_trace, replay
>>> from repro.workloads import YenEngine
>>> graph = road_network(8, 8, seed=1)
>>> service = KSPService(graph, YenEngine(graph))
>>> trace = generate_trace(graph, num_queries=50, update_rounds=5, seed=3)
>>> outcome = replay(service, trace, validate=True)
>>> outcome.stale_served
0
"""

from .cache import ResultCache
from .errors import ServiceOverloadedError
from .replay import generate_trace, replay
from .server import KSPService

__all__ = [
    "ResultCache",
    "ServiceOverloadedError",
    "generate_trace",
    "replay",
    "KSPService",
]
