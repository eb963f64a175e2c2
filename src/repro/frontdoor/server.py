"""The resilient HTTP front door over a set of service replicas.

This is the tier that turns the in-process :class:`KSPService` into a
network service built robustness-first — every request crosses, in order:

1. **deadline** — the budget is fixed once at ingress (``X-Deadline-Ms``
   header, default :data:`~repro.frontdoor.deadline.DEFAULT_BUDGET_MS`)
   and threaded as an absolute instant through every later step;
2. **route** — rendezvous hashing picks a consistent primary replica and
   an ordered failover chain for the query key (:mod:`.router`);
3. **breaker** — per-replica circuit breakers skip replicas known to be
   down, at local-decision cost instead of a burned timeout (:mod:`.breaker`);
4. **admission** — the replica's bounded pipeline admits, coalesces or
   sheds the query, deadline-aware (:mod:`repro.service.pipeline`);
5. **batch** — a per-replica worker coalesces admitted queries for a short
   window and drains micro-batches on a dedicated thread, resolving one
   future per waiting request.

Failures cascade *sideways* before they cascade *up*: a refused, failed or
timed-out replica triggers failover to the next replica in the chain
(budget permitting), and only when every route is exhausted does the
request fail — or, with degraded mode on, get answered from the
last-known-answer cache flagged ``degraded: true`` (:mod:`.stale`).

Transport is deliberately minimal HTTP/1.1 on ``asyncio.start_server`` —
stdlib only, keep-alive supported, JSON bodies — because the interesting
machinery is the resilience layer, not the protocol framing.  The server
runs inside a dedicated thread with its own event loop
(:class:`FrontDoorHandle`), so tests and the CLI drive it from ordinary
synchronous code.

Consistency: maintenance (weight updates) applies only at *quiesced*
boundaries — the server drains every replica, applies the same update
round to all of them, then reopens admission.  Every answer therefore
carries an unambiguous ``graph_version``, which is what lets the chaos
harness validate answers (including version-stale degraded ones) against
an oracle.
"""

from __future__ import annotations

import asyncio
import json
import threading
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..graph.errors import EdgeNotFoundError
from ..graph.graph import WeightUpdate
from ..graph.paths import Path
from ..obs.metrics import MetricsRegistry
from ..service.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from ..service.server import ServedQuery
from ..workloads.queries import KSPQuery
from .breaker import CircuitBreaker
from .deadline import DEFAULT_BUDGET_MS, Deadline
from .errors import NoReplicaAvailableError, ReplicaUnavailableError
from .replicas import ServiceReplica
from .router import Router
from .stale import StaleCache

__all__ = ["FrontDoorServer", "FrontDoorHandle", "start_front_door"]

QueryKey = Tuple[int, int, int]

_MAX_BODY_BYTES = 1 << 20

#: Seconds a request body may take to arrive once its head is read; a writer
#: that stalls mid-body would otherwise pin its handler task for good.  The
#: wait for the *next* head on an idle keep-alive connection stays unbounded:
#: a client whose connection is closed under it retries, i.e. sees a failure.
_BODY_READ_TIMEOUT = 10.0

#: Largest ``k`` a ``/query`` may ask for.  Yen's cost grows with every
#: path enumerated and a batch cannot be abandoned once it runs, so an
#: unbounded ``k`` pins a replica's only batch thread long after the
#: request's own deadline lapsed.  Over an order of magnitude above any
#: ``k`` the paper's evaluation or this repository's benchmarks use.
MAX_K = 500

#: Seconds a replica worker waits after a wake-up before draining, so
#: near-simultaneous requests ride the same micro-batch.
_BATCH_WINDOW = 0.004

#: Entries in the last-known-answer cache behind degraded serving.
_STALE_CAPACITY = 4096


def _json_int(value: object, name: str) -> int:
    """``value`` if it is a JSON integer: a float, string or ``bool`` is a
    ``TypeError``, never coerced."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _json_number(value: object, name: str) -> float:
    """``value`` as a float when it is a JSON number (not a ``bool``)."""
    if type(value) not in (int, float):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


class _ReplicaWorker:
    """Async adapter around one replica: waiter futures + batch drainer.

    Lives entirely on the front door's event loop except for the batch
    compute itself, which runs on a dedicated single worker thread (one
    per replica — a stalled replica blocks only its own thread).  Waiters
    are keyed by query key in submit order, matching the order the service
    pipeline fans answers out to coalesced queries.
    """

    def __init__(
        self,
        replica: ServiceReplica,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.replica = replica
        self._loop = loop
        self._waiters: Dict[QueryKey, Deque[asyncio.Future]] = {}
        self._wake = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"replica-{replica.replica_id}"
        )
        self._task: Optional[asyncio.Task] = None
        self._stopping = False
        self._draining = False

    def start(self) -> None:
        self._task = self._loop.create_task(self._run())

    # -- called from request handlers (loop thread) ---------------------
    def submit(self, query: KSPQuery, deadline: Deadline) -> asyncio.Future:
        """Admit one query and return the future its answer will resolve.

        Raises the replica's admission errors (overload, unavailable)
        synchronously — admission is the cheap, local part.
        """
        self.replica.submit(query, deadline=deadline.at)
        future: asyncio.Future = self._loop.create_future()
        self._waiters.setdefault(query.key, deque()).append(future)
        self._wake.set()
        return future

    @property
    def idle(self) -> bool:
        """No queued work, no waiters, no batch in flight."""
        return (
            not self._waiters
            and self.replica.service.pipeline.empty
            and not self._draining
        )

    # -- batch loop -----------------------------------------------------
    async def _run(self) -> None:
        while not self._stopping:
            await self._wake.wait()
            self._wake.clear()
            if self._stopping:
                break
            # Coalescing window: let near-simultaneous requests pile into
            # the same micro-batch before draining.
            await asyncio.sleep(_BATCH_WINDOW)
            while not self.replica.service.pipeline.empty:
                self._draining = True
                try:
                    served = await self._loop.run_in_executor(
                        self._pool, self.replica.serve_batch
                    )
                except Exception as exc:  # replica down, or engine failure
                    self._fail_all_waiters(exc)
                    break
                finally:
                    self._draining = False
                self._resolve(served)

    def _resolve(self, served: Sequence[ServedQuery]) -> None:
        for answer in served:
            queue = self._waiters.get(answer.query.key)
            if not queue:
                continue
            future = queue.popleft()
            if not queue:
                del self._waiters[answer.query.key]
            if future.done():  # caller timed out and was cancelled
                continue
            if answer.deadline_expired:
                future.set_exception(DeadlineExceededError(answer.query.key))
            else:
                future.set_result(answer)

    def _fail_all_waiters(self, exc: BaseException) -> None:
        """Fail every waiter (replica died mid-flight) and drop its queue.

        The pipeline's pending slots are discarded too: their waiters are
        being failed right here, so computing those answers after a revive
        would be work nobody collects.
        """
        waiters = self._waiters
        self._waiters = {}
        for queue in waiters.values():
            for future in queue:
                if not future.done():
                    future.set_exception(exc)
        pipeline = self.replica.service.pipeline
        while not pipeline.empty:
            pipeline.next_batch()
        pipeline.drain_expired()

    async def quiesce(self) -> None:
        """Wait until the replica has no in-flight or queued work."""
        while not self.idle:
            await asyncio.sleep(_BATCH_WINDOW)

    async def stop(self) -> None:
        self._stopping = True
        self._wake.set()
        if self._task is not None:
            await self._task
        self._fail_all_waiters(ServiceClosedError("front door shutting down"))
        self._pool.shutdown(wait=True)


class FrontDoorServer:
    """Asyncio HTTP/JSON front door over N service replicas.

    Endpoints
    ---------
    ``POST /query``
        Body ``{"source": s, "target": t, "k": k}``; optional
        ``X-Deadline-Ms`` header.  200 with the answer (``degraded: true``
        when served from the stale cache), 400 on a bad request (including
        ``k`` above :data:`MAX_K` and a non-finite or non-positive budget),
        429/503 (+ ``Retry-After``) on shed/unavailable, 504 on a spent
        deadline.
    ``POST /maintenance``
        Body ``{"updates": [[u, v, new_weight], ...]}``; quiesces every
        replica, applies the round to all of them, returns the new
        ``graph_version``.  400, with nothing applied, when a weight is
        negative or non-finite or an edge is not in the graph; such rejects
        count as ``maintenance_rejected``, not as ``/query``'s
        ``bad_requests``.
    ``GET /healthz``
        Replica/breaker states and counters, as JSON.
    ``GET /metrics``
        Prometheus-style text exposition of the front-door registry.

    Construction wires, per replica: a circuit breaker, an async worker
    and its batch thread.  ``degraded_mode=False`` is strict mode: the
    stale cache is never consulted and exhausted routes surface as errors.

    Every request outcome is counted, on the event loop as it happens, in
    a ``frontdoor_<name>`` counter of ``metrics``, the server's own
    registry; ``/healthz`` and ``/metrics`` both read those counters.
    """

    def __init__(
        self,
        replicas: Sequence[ServiceReplica],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        degraded_mode: bool = True,
    ) -> None:
        if not replicas:
            raise ValueError("front door needs at least one replica")
        self.replicas: Dict[int, ServiceReplica] = {
            replica.replica_id: replica for replica in replicas
        }
        if len(self.replicas) != len(replicas):
            raise ValueError("replica ids must be unique")
        self.router = Router(sorted(self.replicas))
        self.breakers: Dict[int, CircuitBreaker] = {
            replica_id: CircuitBreaker() for replica_id in self.replicas
        }
        self.degraded_mode = degraded_mode
        self.stale = StaleCache(_STALE_CAPACITY)
        self._host = host
        self._port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self.workers: Dict[int, _ReplicaWorker] = {}
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._next_query_id = 0
        self._maintenance_gate = asyncio.Event()
        self._maintenance_gate.set()
        self.metrics = MetricsRegistry()
        counter = self.metrics.counter
        self._requests_total = counter("frontdoor_requests_total")
        self._served_ok = counter("frontdoor_served_ok")
        self._served_degraded = counter("frontdoor_served_degraded")
        self._shed_overload = counter("frontdoor_shed_overload")
        self._shed_deadline_infeasible = counter("frontdoor_shed_deadline_infeasible")
        self._deadline_exceeded = counter("frontdoor_deadline_exceeded")
        self._no_replica_available = counter("frontdoor_no_replica_available")
        self._failovers = counter("frontdoor_failovers")
        self._bad_requests = counter("frontdoor_bad_requests")
        self._internal_errors = counter("frontdoor_internal_errors")
        self._maintenance_rounds = counter("frontdoor_maintenance_rounds")
        self._maintenance_rejected = counter("frontdoor_maintenance_rejected")

    # ------------------------------------------------------------------
    # lifecycle (event-loop thread)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        for replica_id, replica in self.replicas.items():
            worker = _ReplicaWorker(replica, self._loop)
            worker.start()
            self.workers[replica_id] = worker
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self._host}:{self._port}"

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Unblock idle keep-alive connections and wait for their handler
        # tasks, so no transport outlives the event loop.
        for writer in list(self._connections.values()):
            writer.close()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        for worker in self.workers.values():
            await worker.stop()
        for replica in self.replicas.values():
            replica.close()

    # ------------------------------------------------------------------
    # HTTP framing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                except asyncio.LimitOverrunError:
                    await self._respond(writer, 431, {"error": "headers too large"})
                    break
                request_line, headers = self._parse_head(head)
                if request_line is None:
                    await self._respond(writer, 400, {"error": "malformed request"})
                    break
                method, path = request_line
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    length = -1
                if length < 0:
                    await self._respond(
                        writer, 400, {"error": "invalid Content-Length"},
                        keep_alive=False,
                    )
                    break
                if length > _MAX_BODY_BYTES:
                    await self._respond(writer, 413, {"error": "body too large"})
                    break
                # A timer failing the read, not ``wait_for``: that wraps the
                # read in a task of its own, on every request.
                stalled = self._loop.call_later(
                    _BODY_READ_TIMEOUT, reader.set_exception, asyncio.TimeoutError()
                )
                try:
                    body = await reader.readexactly(length) if length else b""
                except asyncio.TimeoutError:
                    await self._respond(
                        writer, 408, {"error": "request body timed out"},
                        keep_alive=False,
                    )
                    break
                except asyncio.IncompleteReadError:
                    # The peer stopped sending mid-body; it may still be
                    # reading (half-close), so say why before closing.
                    await self._respond(
                        writer, 400, {"error": "body shorter than Content-Length"},
                        keep_alive=False,
                    )
                    break
                except ConnectionResetError:
                    break
                finally:
                    stalled.cancel()
                status, payload, extra = await self._dispatch(
                    method, path, headers, body
                )
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._respond(writer, status, payload, extra, keep_alive)
                if not keep_alive:
                    break
        finally:
            self._connections.pop(task, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _parse_head(head: bytes):
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, path, _version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            return None, {}
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return (method.upper(), path), headers

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        extra_headers: Optional[Dict[str, str]] = None,
        keep_alive: bool = True,
    ) -> None:
        reasons = {
            200: "OK", 400: "Bad Request", 404: "Not Found", 408: "Request Timeout",
            413: "Payload Too Large", 429: "Too Many Requests",
            431: "Request Header Fields Too Large", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout",
        }
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        lines = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ):
        """Route one request; no handler failure escapes as a dropped socket.

        An exception out of the connection callback closes the socket with
        no response at all, so anything a handler did not anticipate is
        answered 500 here, with the traceback on stderr, and the server
        keeps serving.
        """
        try:
            if method == "POST" and path == "/query":
                return await self._handle_query(headers, body)
            if method == "POST" and path == "/maintenance":
                return await self._handle_maintenance(body)
            if method == "GET" and path == "/healthz":
                return 200, self.health_snapshot(), None
            if method == "GET" and path == "/metrics":
                return 200, self.metrics_registry().render_prometheus(), None
            return 404, {"error": f"no route for {method} {path}"}, None
        except Exception as exc:
            traceback.print_exc()
            self._internal_errors.inc()
            return 500, {"error": f"internal error: {type(exc).__name__}: {exc}"}, None

    # ------------------------------------------------------------------
    # /query
    # ------------------------------------------------------------------
    async def _handle_query(self, headers: Dict[str, str], body: bytes):
        self._requests_total.inc()
        try:
            request = json.loads(body.decode("utf-8"))
            source = _json_int(request["source"], "source")
            target = _json_int(request["target"], "target")
            k = _json_int(request.get("k", 2), "k")
            if not 1 <= k <= MAX_K:
                raise ValueError(f"k must be between 1 and {MAX_K}, got {k}")
            budget_ms = headers.get("x-deadline-ms")
            deadline = Deadline.from_budget_ms(
                float(budget_ms) if budget_ms else DEFAULT_BUDGET_MS
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            self._bad_requests.inc()
            return 400, {"error": f"bad request: {exc}"}, None
        topology = next(iter(self.replicas.values())).service.graph
        if not (topology.has_vertex(source) and topology.has_vertex(target)):
            self._bad_requests.inc()
            return 404, {"error": f"unknown vertex in ({source}, {target})"}, None
        await self._maintenance_gate.wait()
        query_id = self._next_query_id
        self._next_query_id += 1
        query = KSPQuery(query_id=query_id, source=source, target=target, k=k)
        key = query.key
        try:
            answer, replica_id, attempts = await self._answer(query, deadline)
        except ServiceOverloadedError as exc:
            degraded = self._try_degraded(key)
            if degraded is not None:
                return degraded
            status = 503 if exc.reason == "deadline" else 429
            shed = (
                self._shed_deadline_infeasible
                if exc.reason == "deadline"
                else self._shed_overload
            )
            shed.inc()
            return (
                status,
                {"error": str(exc), "reason": exc.reason,
                 "retry_after": round(exc.retry_after, 4)},
                {"Retry-After": f"{exc.retry_after:.3f}"},
            )
        except DeadlineExceededError as exc:
            self._deadline_exceeded.inc()
            return 504, {"error": str(exc)}, None
        except NoReplicaAvailableError as exc:
            degraded = self._try_degraded(key)
            if degraded is not None:
                return degraded
            self._no_replica_available.inc()
            retry_after = self._min_breaker_retry_after()
            return (
                503,
                {"error": str(exc), "retry_after": round(retry_after, 4)},
                {"Retry-After": f"{retry_after:.3f}"},
            )
        self._served_ok.inc()
        if attempts > 1:
            self._failovers.inc(attempts - 1)
        # The stale cache keeps the Path objects the replica's result cache
        # already holds; a degraded body is rendered only when one is served.
        self.stale.put(key, tuple(answer.paths), answer.graph_version)
        payload = self._answer_body(key, answer.paths, answer.graph_version)
        payload.update(
            degraded=False,
            from_cache=answer.from_cache,
            replica=replica_id,
            attempts=attempts,
        )
        return 200, payload, None

    async def _answer(
        self, query: KSPQuery, deadline: Deadline
    ) -> Tuple[ServedQuery, int, int]:
        """Route/failover core: one answer or a typed exhaustion error."""
        key = query.key
        attempts = 0
        last_overload: Optional[ServiceOverloadedError] = None
        for replica_id in self.router.order(key):
            if deadline.expired():
                raise DeadlineExceededError(key)
            breaker = self.breakers[replica_id]
            if not breaker.allow():
                continue
            worker = self.workers[replica_id]
            attempts += 1
            try:
                future = worker.submit(query, deadline)
            except ServiceOverloadedError as exc:
                # The replica answered (with backpressure): it is alive.
                # Record the probe outcome as success so an overloaded but
                # healthy replica is not tripped into open.
                breaker.record_success()
                last_overload = exc
                continue
            except (ReplicaUnavailableError, ServiceClosedError):
                breaker.record_failure("refused")
                continue
            try:
                answer = await asyncio.wait_for(
                    future, timeout=max(1e-3, deadline.remaining())
                )
            except asyncio.TimeoutError:
                breaker.record_failure("timeout")
                continue
            except DeadlineExceededError:
                # Definitive reply from a live replica; don't punish it.
                breaker.record_success()
                raise
            except (ReplicaUnavailableError, ServiceClosedError):
                breaker.record_failure("refused")
                continue
            except Exception:
                # The replica's engine failed the batch: count it against
                # the breaker and let the next replica try.
                breaker.record_failure("error")
                continue
            breaker.record_success()
            if attempts > 1:
                # Tell the serving replica its answer absorbed a failover
                # retry, so replica-level reports separate retries/sheds.
                self.replicas[replica_id].service.note_retry()
            return answer, replica_id, attempts
        if last_overload is not None:
            raise last_overload
        raise NoReplicaAvailableError(
            f"no replica available for key {key} "
            f"({len(self.replicas)} replicas, all down or breaker-open)"
        )

    @staticmethod
    def _answer_body(key: QueryKey, paths: Sequence[Path], graph_version: int) -> dict:
        """The fields fresh and degraded ``/query`` answers share."""
        source, target, k = key
        return {
            "source": source,
            "target": target,
            "k": k,
            "paths": [
                {"vertices": list(path.vertices), "distance": path.distance}
                for path in paths
            ],
            "graph_version": graph_version,
        }

    def _try_degraded(self, key: QueryKey):
        """Serve the last-known answer when degradation is allowed."""
        if not self.degraded_mode:
            return None
        entry = self.stale.get(key)
        if entry is None:
            return None
        paths, version = entry
        self._served_degraded.inc()
        payload = self._answer_body(key, paths, version)
        payload.update(degraded=True, stale_graph_version=version)
        return 200, payload, None

    def _min_breaker_retry_after(self) -> float:
        waits = [breaker.retry_after() for breaker in self.breakers.values()]
        positive = [wait for wait in waits if wait > 0.0]
        return min(positive) if positive else 0.05

    # ------------------------------------------------------------------
    # /maintenance
    # ------------------------------------------------------------------
    async def _handle_maintenance(self, body: bytes):
        try:
            request = json.loads(body.decode("utf-8"))
            updates = [
                WeightUpdate(
                    _json_int(u, "u"), _json_int(v, "v"), _json_number(weight, "weight")
                )
                for u, v, weight in request["updates"]
            ]
        except (
            ValueError, KeyError, TypeError, UnicodeDecodeError, OverflowError
        ) as exc:
            # OverflowError: float() of an integer weight past the float range.
            self._maintenance_rejected.inc()
            return 400, {"error": f"bad maintenance request: {exc}"}, None
        try:
            version = await self._apply_maintenance(updates)
        except EdgeNotFoundError as exc:
            self._maintenance_rejected.inc()
            edge = f"({exc.u}, {exc.v})"
            return 400, {"error": f"bad maintenance request: no edge {edge}"}, None
        return 200, {"applied": len(updates), "graph_version": version}, None

    async def _apply_maintenance(self, updates: List[WeightUpdate]) -> int:
        """Quiesce all replicas, apply one round everywhere, reopen.

        The gate closes admission first so the drain converges; every
        replica then applies the identical round, keeping graph versions
        aligned across the set — the invariant that makes ``graph_version``
        in responses meaningful for validation.  A round naming an unknown
        edge is refused before the gate closes, by the check each graph's
        atomic :meth:`~repro.graph.graph.DynamicGraph.apply_updates` makes
        (:meth:`~repro.graph.graph.DynamicGraph.require_edges`) run on the
        first replica's graph: every replica's graph has the same edges,
        killed replicas included, so a bad request neither stalls admission
        for a drain nor leaves any replica a version apart.
        """
        topology = next(iter(self.replicas.values())).service.graph
        topology.require_edges(updates)
        self._maintenance_gate.clear()
        try:
            for worker in self.workers.values():
                await worker.quiesce()
            loop = asyncio.get_running_loop()
            for replica_id, replica in self.replicas.items():
                # A killed replica receives the round too (its graph must
                # stay version-aligned for revival), like a live one on its
                # own batch thread, idle by quiesce: never on the loop thread.
                await loop.run_in_executor(
                    self.workers[replica_id]._pool,
                    replica.apply_maintenance,
                    updates,
                )
            self._maintenance_rounds.inc()
        finally:
            self._maintenance_gate.set()
        return next(iter(self.replicas.values())).service.graph.version

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def breaker_trips_total(self) -> int:
        """Lifetime breaker trips summed over replicas."""
        return sum(breaker.trips for breaker in self.breakers.values())

    def health_snapshot(self) -> dict:
        """The ``/healthz`` document (also used directly by tests/CLI)."""
        replica_states = []
        for replica_id in sorted(self.replicas):
            replica = self.replicas[replica_id]
            breaker = self.breakers[replica_id]
            replica_states.append(
                {
                    "id": replica_id,
                    "alive": replica.alive,
                    "healthy": replica.healthy(),
                    "breaker": breaker.state,
                    "trips": breaker.trips,
                    "queue_depth": replica.service.queue_depth,
                    "batches_served": replica.batches_served,
                }
            )
        all_healthy = all(state["healthy"] for state in replica_states)
        return {
            "status": "ok" if all_healthy else "degraded",
            "degraded_mode": self.degraded_mode,
            "breaker_trips_total": self.breaker_trips_total(),
            "counters": {
                counter.name[len("frontdoor_"):]: counter.value
                for counter in self.metrics
            },
            "replicas": replica_states,
        }

    def metrics_registry(self) -> MetricsRegistry:
        """Front-door metrics: request counters + per-replica breaker state."""
        registry = MetricsRegistry()
        registry.absorb(self.metrics)
        registry.counter(
            "frontdoor_breaker_trips_total",
            help="circuit-breaker trips summed over replicas",
        ).inc(self.breaker_trips_total())
        state_codes = {"closed": 0, "open": 1, "half_open": 2}
        for replica_id in sorted(self.breakers):
            breaker = self.breakers[replica_id]
            registry.gauge(
                f"frontdoor_breaker_state{{replica=\"{replica_id}\"}}",
                help="0=closed 1=open 2=half_open",
            ).set(state_codes[breaker.state])
        registry.counter("frontdoor_stale_cache_hits_total").inc(self.stale.hits)
        registry.counter("frontdoor_stale_cache_misses_total").inc(self.stale.misses)
        return registry


class FrontDoorHandle:
    """Synchronous handle hosting a :class:`FrontDoorServer` in a thread.

    The server's event loop runs on a dedicated daemon thread; the handle
    exposes thread-safe entry points for the driver side (tests, CLI, load
    generator): the bound URL, maintenance application, arbitrary
    loop-thread calls for fault injection, and shutdown.
    """

    def __init__(self, server: FrontDoorServer) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="frontdoor-loop", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if not self._started.is_set():  # pragma: no cover - startup failure
            raise RuntimeError("front door event loop failed to start")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        self._loop.run_forever()
        # Drain the shutdown coroutine scheduled by close().
        self._loop.run_until_complete(self.server.stop())
        self._loop.close()

    @property
    def url(self) -> str:
        """Base URL of the served front door."""
        return self.server.url

    def apply_maintenance(self, updates: Sequence[WeightUpdate]) -> int:
        """Apply one update round to every replica (quiesced); new version."""
        future = asyncio.run_coroutine_threadsafe(
            self.server._apply_maintenance(list(updates)), self._loop
        )
        return future.result(timeout=60.0)

    def run_on_loop(self, fn, *args):
        """Run ``fn(*args)`` on the event-loop thread and return its result.

        The fault-injection entry point: flipping replica/breaker state on
        the loop thread keeps the server's view race-free without locks.
        """
        done = threading.Event()
        box: List[object] = []

        def call() -> None:
            try:
                box.append(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - relayed to caller
                box.append(exc)
            finally:
                done.set()

        self._loop.call_soon_threadsafe(call)
        if not done.wait(timeout=30.0):  # pragma: no cover - watchdog
            raise TimeoutError("loop-thread call timed out")
        result = box[0]
        if isinstance(result, BaseException):
            raise result
        return result

    def health(self) -> dict:
        """Thread-safe ``/healthz`` snapshot without an HTTP round trip."""
        return self.run_on_loop(self.server.health_snapshot)

    def close(self) -> None:
        """Stop the server, its workers and replicas; join the thread."""
        if not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "FrontDoorHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def start_front_door(
    replicas: Sequence[ServiceReplica], **server_kwargs
) -> FrontDoorHandle:
    """Build and start a front door over ``replicas``; returns the handle.

    The handle owns the replicas from here on — :meth:`FrontDoorHandle.close`
    closes them along with the server.
    """
    return FrontDoorHandle(FrontDoorServer(replicas, **server_kwargs))
