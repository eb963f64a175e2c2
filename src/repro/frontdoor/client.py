"""Blocking HTTP client for the front door, with the full retry discipline.

This is the reference *well-behaved client*: the load generator, the chaos
driver and the example script all use it, so the behaviours the server is
designed around — deadline budgets shrinking across retries, ``Retry-After``
respected, no retries past the deadline — are exercised by every caller in
the repository.  Stdlib only (``http.client``); one client per thread
(connections are not shared across threads).
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .deadline import DEFAULT_BUDGET_MS, Deadline
from .retry import RetryPolicy

__all__ = ["ClientResult", "FrontDoorClient"]


@dataclass(frozen=True)
class ClientResult:
    """Final outcome of one logical query, across all its attempts."""

    status: int
    payload: dict = field(default_factory=dict)
    attempts: int = 1
    latency_seconds: float = 0.0
    #: True when the answer came from the server's stale cache.
    degraded: bool = False

    @property
    def ok(self) -> bool:
        """Whether the caller got an answer (fresh or degraded)."""
        return self.status == 200

    @property
    def paths(self) -> List[dict]:
        """The answer's path list (empty on failure)."""
        return self.payload.get("paths", [])


class FrontDoorClient:
    """One keep-alive connection to a front door plus a retry policy."""

    def __init__(
        self,
        host: str,
        port: int,
        retry_policy: Optional[RetryPolicy] = None,
        default_budget_ms: float = DEFAULT_BUDGET_MS,
    ) -> None:
        self._host = host
        self._port = port
        self.retry_policy = retry_policy or RetryPolicy()
        self.default_budget_ms = default_budget_ms
        self._connection: Optional[http.client.HTTPConnection] = None
        #: Lifetime retry count, for report lines.
        self.retries = 0

    @classmethod
    def for_url(cls, url: str, **kwargs) -> "FrontDoorClient":
        """Build a client from a ``http://host:port`` base URL."""
        stripped = url.split("//", 1)[-1].rstrip("/")
        host, _, port = stripped.partition(":")
        return cls(host, int(port or 80), **kwargs)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[dict], headers: dict,
        timeout: float,
    ) -> Tuple[int, dict, dict]:
        """One HTTP exchange; raises ``OSError`` on transport failure."""
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self._host, self._port, timeout=timeout
            )
        connection = self._connection
        connection.timeout = max(1e-3, timeout)
        try:
            connection.request(
                method,
                path,
                body=json.dumps(body) if body is not None else None,
                headers={"Content-Type": "application/json", **headers},
            )
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            # Connection is poisoned (half-read response, reset socket);
            # drop it so the next attempt dials fresh.
            self.close()
            raise
        response_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            payload = {"raw": raw.decode("utf-8", "replace")}
        if not isinstance(payload, dict):
            payload = {"value": payload}
        return response.status, payload, response_headers

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        target: int,
        k: int = 2,
        budget_ms: Optional[float] = None,
    ) -> ClientResult:
        """Ask for k shortest paths, retrying within the deadline budget.

        Retryable outcomes: 429/503 (backoff floored by the server's
        ``Retry-After``) and transport errors (reset/refused — the server
        thread may be mid-restart).  Non-retryable: 200, 400, 404, 504 — a
        spent deadline only gets *more* spent.  The deadline budget covers
        the whole logical query including every backoff sleep; when the
        policy cannot fit another attempt inside the budget, the last
        failure is returned as-is.
        """
        deadline = Deadline.from_budget_ms(
            budget_ms if budget_ms is not None else self.default_budget_ms
        )
        key = (source, target, k)
        started = time.perf_counter()
        attempt = 0
        while True:
            remaining = deadline.remaining()
            if remaining <= 0:
                return ClientResult(
                    status=504,
                    payload={"error": "client-side deadline exhausted"},
                    attempts=attempt + 1,
                    latency_seconds=time.perf_counter() - started,
                )
            try:
                status, payload, response_headers = self._request(
                    "POST",
                    "/query",
                    {"source": source, "target": target, "k": k},
                    # Advertise only the remaining budget: the server must
                    # not plan with time this client has already spent.
                    {"X-Deadline-Ms": f"{remaining * 1e3:.1f}"},
                    timeout=remaining,
                )
                retry_after = float(response_headers.get("retry-after", 0.0))
            except (OSError, http.client.HTTPException):
                status, payload, retry_after = 503, {"error": "transport"}, 0.0
            if status == 200 or status not in (429, 503):
                return ClientResult(
                    status=status,
                    payload=payload,
                    attempts=attempt + 1,
                    latency_seconds=time.perf_counter() - started,
                    degraded=bool(payload.get("degraded", False)),
                )
            delay = self.retry_policy.next_delay(
                attempt, key=key, retry_after=retry_after, deadline=deadline
            )
            if delay is None:
                return ClientResult(
                    status=status,
                    payload=payload,
                    attempts=attempt + 1,
                    latency_seconds=time.perf_counter() - started,
                )
            time.sleep(delay)
            self.retries += 1
            attempt += 1

    def maintenance(self, updates) -> dict:
        """POST one update round: ``updates`` is ``[(u, v, new_weight), ...]``."""
        status, payload, _headers = self._request(
            "POST",
            "/maintenance",
            {"updates": [[u, v, w] for u, v, w in updates]},
            {},
            timeout=60.0,
        )
        if status != 200:
            raise RuntimeError(f"maintenance failed ({status}): {payload}")
        return payload

    def health(self) -> dict:
        """GET the ``/healthz`` document."""
        status, payload, _headers = self._request("GET", "/healthz", None, {}, 10.0)
        if status != 200:
            raise RuntimeError(f"healthz failed ({status}): {payload}")
        return payload

    def close(self) -> None:
        """Drop the persistent connection (idempotent)."""
        if self._connection is not None:
            try:
                self._connection.close()
            except (OSError, socket.error):  # pragma: no cover - best effort
                pass
            self._connection = None

    def __enter__(self) -> "FrontDoorClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
