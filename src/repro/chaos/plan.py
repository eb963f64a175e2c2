"""Seeded, replayable fault plans.

A :class:`FaultPlan` is the entire source of nondeterminism in a chaos
run, and it is *pinned to batch indices, not wall clock*: every event
names the query micro-batch it fires at, so the same plan injected into
the same workload produces the same fault sequence on every execution
backend and on every repeat — which is what lets the harness assert
byte-identical answers and event logs (see :mod:`repro.chaos.harness`).

Victim selection may be deferred (``worker_id=None``): the concrete
worker is then drawn at injection time from a ``random.Random`` seeded
with ``(plan seed, batch index, event ordinal)`` over the *alive* worker
set — deterministic given the run's history, while staying valid across
earlier kills and joins the plan itself caused.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..graph.errors import ReproError

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan", "ChaosError"]

#: Supported fault kinds.  ``kill`` loses a worker (failover surgery);
#: ``join`` adds one (scale-up surgery); ``stall`` pauses a worker for
#: ``duration_batches`` batches; ``slow`` degrades one by ``factor``.
FAULT_KINDS = ("kill", "join", "stall", "slow")


class ChaosError(ReproError):
    """Invalid fault plan or harness configuration."""


@dataclass(frozen=True)
class FaultEvent:
    """One fault, pinned to a query micro-batch.

    Attributes
    ----------
    batch_index:
        The micro-batch the event fires at (before the batch runs, or —
        for a ``kill`` with ``offset`` — after that many of its queries).
    kind:
        One of :data:`FAULT_KINDS`.
    worker_id:
        The victim (ignored for ``join``), or ``None`` to draw a live
        worker at injection time from the plan's seed.
    duration_batches:
        How many batches a ``stall``/``slow`` lasts.
    factor:
        Slowdown multiplier of a ``slow`` worker.
    offset:
        For ``kill``: number of the batch's queries served *before* the
        worker dies — the mid-batch death the harness asserts answer
        correctness across.  ``None`` kills at the batch boundary.
    """

    batch_index: int
    kind: str
    worker_id: Optional[int] = None
    duration_batches: int = 1
    factor: float = 2.0
    offset: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ChaosError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.batch_index < 0:
            raise ChaosError(f"batch_index must be >= 0, got {self.batch_index}")
        if self.duration_batches < 1:
            raise ChaosError("duration_batches must be >= 1")
        if self.factor < 1.0:
            raise ChaosError(f"slow factor must be >= 1.0, got {self.factor}")
        if self.offset is not None and self.offset < 0:
            raise ChaosError("offset must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, seeded set of fault events for one chaos run."""

    seed: int
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.batch_index))
        )

    def victim_rng(self, batch_index: int, ordinal: int) -> random.Random:
        """The deferred-victim RNG for one event (string-seeded: stable
        across processes and interpreter runs, unlike hash-based seeds)."""
        return random.Random(f"faultplan:{self.seed}:{batch_index}:{ordinal}")

    @classmethod
    def generate(
        cls,
        seed: int,
        num_batches: int,
        kinds: Sequence[str] = ("kill", "join", "stall"),
        rate: float = 0.2,
        batch_size: Optional[int] = None,
    ) -> "FaultPlan":
        """Draw a random plan: each batch suffers one event with ``rate``.

        ``batch_size`` (when known) lets generated kills land *mid-batch*
        — a random split point inside the batch — instead of only at
        batch boundaries.  Batch 0 is left fault-free so every run has at
        least one clean baseline batch for recovery scoring.
        """
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ChaosError(f"unknown fault kind {kind!r}")
        if not 0.0 <= rate <= 1.0:
            raise ChaosError(f"rate must be in [0, 1], got {rate}")
        rng = random.Random(seed)
        events = []
        for index in range(1, num_batches):
            if rng.random() >= rate:
                continue
            kind = kinds[rng.randrange(len(kinds))]
            offset = None
            if kind == "kill" and batch_size and rng.random() < 0.5:
                offset = rng.randrange(1, batch_size) if batch_size > 1 else None
            events.append(
                FaultEvent(
                    batch_index=index,
                    kind=kind,
                    duration_batches=(
                        rng.randrange(1, 3) if kind in ("stall", "slow") else 1
                    ),
                    factor=round(1.5 + rng.random(), 3),
                    offset=offset,
                )
            )
        return cls(seed=seed, events=tuple(events))
