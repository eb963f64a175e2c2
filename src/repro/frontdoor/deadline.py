"""Deadline budgets: the time contract a request carries end to end.

A *deadline budget* is the total time a caller is willing to wait for an
answer, fixed once at the edge and threaded — as an absolute instant, not
a duration — through every layer the request crosses: HTTP parsing,
routing, breaker checks, replica admission, micro-batching and the engine.
Passing the absolute instant is the whole point: each layer computes its
*remaining* budget locally, so time spent queueing in layer N is
automatically unavailable to layer N+1, and a retry never gets a fresh
budget by accident (the tail-at-scale failure mode this module exists to
prevent).

Instants are ``time.perf_counter`` values, matching the clock the service
pipeline already uses for enqueue timestamps.  The HTTP layer serialises
budgets as milliseconds (``X-Deadline-Ms``) and converts to an absolute
:class:`Deadline` exactly once, on ingress.
"""

from __future__ import annotations

import math
import time
from typing import Optional

__all__ = ["Deadline", "DEFAULT_BUDGET_MS"]

#: Budget assumed when a request names none — generous enough for a cold
#: engine batch, small enough that a stalled replica is abandoned quickly.
DEFAULT_BUDGET_MS = 2_000.0


class Deadline:
    """An absolute wall-clock deadline with remaining-budget arithmetic."""

    __slots__ = ("at", "budget_seconds")

    def __init__(self, at: float, budget_seconds: float = 0.0) -> None:
        self.at = float(at)
        #: The original budget, kept for reporting (``Retry-After`` hints
        #: and telemetry); the contract itself is only ``at``.
        self.budget_seconds = float(budget_seconds)

    @classmethod
    def from_budget_ms(
        cls, budget_ms: Optional[float], now: Optional[float] = None
    ) -> "Deadline":
        """Fix a deadline ``budget_ms`` from now (default budget if None)."""
        if budget_ms is None:
            budget_ms = DEFAULT_BUDGET_MS
        # A NaN budget compares false to everything and would slip through
        # ``<= 0`` to become a ~1 ms wait that charges a timeout to every
        # replica it touches.
        if not (math.isfinite(budget_ms) and budget_ms > 0):
            raise ValueError(
                f"deadline budget must be positive and finite, got {budget_ms}"
            )
        start = time.perf_counter() if now is None else now
        seconds = budget_ms / 1e3
        return cls(start + seconds, budget_seconds=seconds)

    def remaining(self, now: Optional[float] = None) -> float:
        """Seconds of budget left (<= 0 when expired)."""
        timestamp = time.perf_counter() if now is None else now
        return self.at - timestamp

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the budget is spent."""
        return self.remaining(now) <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(at={self.at:.6f}, budget={self.budget_seconds:.3f}s)"
