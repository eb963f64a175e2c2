"""Per-replica circuit breakers: fail fast instead of failing slowly.

A replica that is down fails requests *slowly* — each caller burns its
deadline budget discovering the same dead socket.  The circuit breaker
converts that repeated slow failure into a fast local decision:

* **closed** — traffic flows; consecutive failures are counted by kind.
  A *refused* failure (connection refused / replica killed) trips the
  breaker after ``refused_threshold`` in a row; *timeouts* and generic
  errors need ``failure_threshold`` — a refused connection is definitive
  evidence while a timeout may just be one slow batch;
* **open** — all traffic is rejected locally (the router skips the
  replica) for an *open window* that doubles on every consecutive trip up
  to ``max_open_seconds``.  The doubling is the flapping defence: a
  replica that recovers briefly and dies again is probed less and less
  often instead of re-absorbing full traffic on every blip;
* **half-open** — after the window, up to ``half_open_probes`` concurrent
  requests are admitted as *probes*; everything beyond that is still
  rejected (the probe-storm defence — without the cap, every queued caller
  rushes the convalescent replica the instant the window expires).  A
  probe success closes the breaker and resets the trip streak; a probe
  failure re-opens it with the next-longer window.

The clock is injectable so the state machine is unit-testable without
sleeping; production uses ``time.monotonic``.  Instances are used from the
front door's single event-loop thread and are deliberately lock-free.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN", "FAILURE_KINDS"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Failure classifications accepted by :meth:`CircuitBreaker.record_failure`.
FAILURE_KINDS = ("timeout", "refused", "error")


class CircuitBreaker:
    """Closed → open → half-open breaker guarding one replica."""

    def __init__(
        self,
        failure_threshold: int = 5,
        refused_threshold: int = 2,
        open_seconds: float = 0.25,
        max_open_seconds: float = 4.0,
        half_open_probes: int = 1,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if failure_threshold < 1 or refused_threshold < 1:
            raise ValueError("failure thresholds must be at least 1")
        if open_seconds <= 0 or max_open_seconds < open_seconds:
            raise ValueError("need 0 < open_seconds <= max_open_seconds")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be at least 1")
        self.failure_threshold = failure_threshold
        self.refused_threshold = refused_threshold
        self.open_seconds = open_seconds
        self.max_open_seconds = max_open_seconds
        self.half_open_probes = half_open_probes
        self._clock = clock if clock is not None else time.monotonic
        self._state = CLOSED
        self._consecutive: Dict[str, int] = {kind: 0 for kind in FAILURE_KINDS}
        self._open_until = 0.0
        #: Consecutive trips without an intervening success; drives the
        #: exponential open-window backoff for flapping replicas.
        self._trip_streak = 0
        self._probes_in_flight = 0
        #: Lifetime trip count (telemetry; never reset).
        self.trips = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, advancing open → half-open when the window lapsed."""
        if self._state == OPEN and self._clock() >= self._open_until:
            self._state = HALF_OPEN
            self._probes_in_flight = 0
        return self._state

    def current_open_window(self) -> float:
        """Open window the *next* trip would impose (doubling, capped)."""
        window = self.open_seconds * (2.0 ** max(0, self._trip_streak))
        return min(window, self.max_open_seconds)

    def retry_after(self) -> float:
        """Seconds until an open breaker will admit a probe (0 otherwise)."""
        if self.state != OPEN:
            return 0.0
        return max(0.0, self._open_until - self._clock())

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether a request may be sent to the replica right now.

        In half-open state an allowed request *is* a probe and occupies one
        of the bounded probe slots until its outcome is recorded — callers
        must follow every ``allow() == True`` with exactly one
        ``record_success`` or ``record_failure``.
        """
        state = self.state
        if state == CLOSED:
            return True
        if state == OPEN:
            return False
        if self._probes_in_flight >= self.half_open_probes:
            return False
        self._probes_in_flight += 1
        return True

    # ------------------------------------------------------------------
    # outcomes
    # ------------------------------------------------------------------
    def record_success(self) -> None:
        """A request (or half-open probe) completed: heal the breaker."""
        if self._state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
        self._state = CLOSED
        self._trip_streak = 0
        for kind in self._consecutive:
            self._consecutive[kind] = 0

    def record_failure(self, kind: str = "error") -> None:
        """A request failed; trip when the kind's threshold is reached."""
        if kind not in self._consecutive:
            raise ValueError(f"unknown failure kind {kind!r}; expected {FAILURE_KINDS}")
        state = self.state
        if state == HALF_OPEN:
            # The probe failed: the replica is still sick; back off longer.
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._trip()
            return
        self._consecutive[kind] += 1
        threshold = (
            self.refused_threshold if kind == "refused" else self.failure_threshold
        )
        if self._consecutive[kind] >= threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._open_until = self._clock() + self.current_open_window()
        self._trip_streak += 1
        self.trips += 1
        for kind in self._consecutive:
            self._consecutive[kind] = 0
