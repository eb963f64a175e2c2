"""Seeded, replayable fault plans.

A :class:`FaultPlan` is the entire source of nondeterminism in a chaos
run, and it is *pinned to batch indices, not wall clock*: every event
names the query micro-batch it fires at, so the same plan injected into
the same workload produces the same fault sequence on every execution
backend and on every repeat (see :mod:`repro.chaos.harness`).

Victim selection may be deferred (``worker_id=None``): the concrete
replica is then drawn at injection time from a ``random.Random`` seeded
with ``(plan seed, batch index, event ordinal)`` over the *alive* replica
set — deterministic given the run's history, while staying valid across
earlier kills the plan itself caused.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..graph.errors import ReproError

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan", "ChaosError"]

#: Supported fault kinds.  ``kill`` takes a replica down for
#: ``duration_batches`` batches; ``stall`` pauses one for
#: ``duration_batches`` batches; ``slow`` degrades one by ``factor``.
FAULT_KINDS = ("kill", "stall", "slow")


class ChaosError(ReproError):
    """Invalid fault plan or harness configuration."""


@dataclass(frozen=True)
class FaultEvent:
    """One fault, pinned to a query micro-batch.

    Attributes
    ----------
    batch_index:
        The micro-batch the event fires at, before the batch runs.
    kind:
        One of :data:`FAULT_KINDS`.
    worker_id:
        The victim, or ``None`` to draw a live replica at injection time
        from the plan's seed.
    duration_batches:
        How many batches a ``kill``/``stall``/``slow`` lasts.
    factor:
        Slowdown multiplier of a ``slow`` replica.
    """

    batch_index: int
    kind: str
    worker_id: Optional[int] = None
    duration_batches: int = 1
    factor: float = 2.0

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
        kinds: Sequence[str] = ("kill", "stall"),
        rate: float = 0.2,
    ) -> "FaultPlan":
        """Draw a random plan: each batch suffers one event with ``rate``.

        Batch 0 is left fault-free so every run starts on a healthy fleet.
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
            events.append(
                FaultEvent(
                    batch_index=index,
                    kind=kind,
                    duration_batches=(
                        rng.randrange(1, 3) if kind in ("stall", "slow") else 1
                    ),
                    factor=round(1.5 + rng.random(), 3),
                )
            )
        return cls(seed=seed, events=tuple(events))
