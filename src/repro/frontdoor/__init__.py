"""Resilient serving tier in front of N :class:`~repro.service.server.KSPService` replicas.

The front door is the failure-isolation layer the paper's serving story
needs once there is more than one replica: an asyncio HTTP/JSON server
(stdlib only) that owns

* **routing** — rendezvous hashing gives every query key a stable primary
  replica plus a deterministic failover chain (:mod:`.router`);
* **deadline budgets** — each request carries an absolute deadline fixed at
  ingress and threaded through admission, batching and the engine; work
  that cannot finish in time is shed early, not computed late
  (:mod:`.deadline`);
* **retries** — capped exponential backoff with deterministic seeded
  jitter, floored by the server's ``Retry-After`` and never extending past
  the deadline (:mod:`.retry`);
* **circuit breakers** — per-replica closed/open/half-open state machines
  with probe-based recovery, so a dead replica costs one classification,
  not one timeout per request (:mod:`.breaker`);
* **graceful degradation** — a last-known-answer cache serving
  version-stale results flagged ``degraded: true`` when every live route
  is exhausted; strict mode disables it (:mod:`.stale`);
* **measurement** — closed-loop load generation with knee search
  (:mod:`.loadtest`); fault drills through real HTTP are the front-door
  target of :mod:`repro.chaos`.
"""

from .client import ClientResult, FrontDoorClient
from .loadtest import find_knee
from .replicas import ServiceReplica, build_replicas
from .retry import RetryPolicy
from .server import start_front_door

__all__ = [
    "ClientResult",
    "FrontDoorClient",
    "find_knee",
    "ServiceReplica",
    "build_replicas",
    "RetryPolicy",
    "start_front_door",
]
