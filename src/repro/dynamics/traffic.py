"""Traffic evolution model for dynamic road networks.

The paper's datasets contain one static snapshot of travel times; to emulate
evolving traffic conditions the authors apply a well-established time-varying
travel-time model parameterised by

* ``alpha`` — the fraction of edges whose weight changes at each snapshot, and
* ``tau`` — the relative range of the variation (each changed weight moves by
  a factor drawn from ``[-tau, +tau]``).

:class:`TrafficModel` reproduces this behaviour.  Weights vary around the
edge's *initial* weight rather than drifting multiplicatively, which keeps
long simulations stable, and an optional *correlated* mode makes all changed
edges move in the same direction within a snapshot — Section 5.5 argues that
road networks behave this way (congestion builds up or dissipates globally),
and the number-of-iterations analysis relies on it.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..graph.graph import DynamicGraph, WeightUpdate

__all__ = ["TrafficModel"]


class TrafficModel:
    """Generator of per-snapshot edge-weight updates.

    Parameters
    ----------
    graph:
        The dynamic graph whose weights evolve.
    alpha:
        Fraction of edges changing at each snapshot, in ``(0, 1]``.
    tau:
        Relative variation range, ``>= 0``.  A changed edge's new weight is
        ``w0 * (1 + delta)`` with ``delta`` drawn from ``[-tau, +tau]``
        (clamped so weights stay strictly positive).
    seed:
        Random seed for reproducibility.
    correlated:
        When ``True`` (the default) all edges changed in the same snapshot
        share the sign of their variation (all increase or all decrease).
        Section 5.5 of the paper argues that real road networks behave this
        way — congestion builds up or dissipates across the network with a
        similar trend — and the iteration analysis of KSP-DG relies on it.
        Set to ``False`` for adversarial, uncorrelated churn.
    direction:
        ``"both"`` (default) lets snapshots increase or decrease travel
        times; ``"increase"`` models congestion building on top of free-flow
        travel times (weights never drop below the initial value), and
        ``"decrease"`` the opposite.  The congestion-style ``"increase"``
        setting keeps the DTLP lower bounds in the tight regime §5.5 assumes
        and is what the parameter-sweep benchmarks use.
    minimum_factor:
        Lower clamp on ``1 + delta`` to keep weights positive.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        alpha: float = 0.35,
        tau: float = 0.30,
        seed: int = 42,
        correlated: bool = True,
        direction: str = "both",
        minimum_factor: float = 0.05,
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if tau < 0:
            raise ValueError(f"tau must be non-negative, got {tau}")
        if direction not in ("both", "increase", "decrease"):
            raise ValueError(
                f"direction must be 'both', 'increase' or 'decrease', got {direction!r}"
            )
        self._graph = graph
        self.alpha = alpha
        self.tau = tau
        self.correlated = correlated
        self.direction = direction
        self._minimum_factor = minimum_factor
        self._rng = random.Random(seed)
        self._timestamp = 0
        self._edges: List[Tuple[int, int]] = [(u, v) for u, v, _ in graph.edges()]

    def generate_updates(self) -> List[WeightUpdate]:
        """Generate (but do not apply) one snapshot's worth of weight updates.

        Pairs of opposite arcs in directed graphs are treated independently;
        callers who need the undirected behaviour of the paper's default
        setting should build an undirected graph, in which case each edge is
        naturally updated once.
        """
        self._timestamp += 1
        num_changes = max(1, int(len(self._edges) * self.alpha))
        chosen = self._rng.sample(self._edges, min(num_changes, len(self._edges)))
        if self.direction == "increase":
            sign: float = 1.0
        elif self.direction == "decrease":
            sign = -1.0
        elif self.correlated:
            sign = self._rng.choice((-1.0, 1.0))
        else:
            sign = 0.0  # sentinel: per-edge random direction
        updates: List[WeightUpdate] = []
        for u, v in chosen:
            base = self._graph.initial_weight(u, v)
            magnitude = self._rng.uniform(0.0, self.tau)
            direction = sign if sign != 0.0 else self._rng.choice((-1.0, 1.0))
            factor = max(self._minimum_factor, 1.0 + direction * magnitude)
            updates.append(
                WeightUpdate(u, v, round(base * factor, 6), timestamp=self._timestamp)
            )
        return updates

    def pregenerate(self, num_snapshots: int) -> List[List[WeightUpdate]]:
        """Generate ``num_snapshots`` rounds of updates without applying any.

        Because updated weights vary around each edge's *initial* weight
        (not its current weight), generation does not depend on the graph's
        evolving state: pre-generating a sequence of rounds and applying
        them later yields exactly the snapshots :meth:`advance` would have
        produced live.  The trace-replay driver of the serving layer relies
        on this to build reproducible mixed update/query traces up front.
        """
        return [self.generate_updates() for _ in range(num_snapshots)]

    def advance(self) -> List[WeightUpdate]:
        """Generate one snapshot of updates and apply them to the graph.

        Returns the applied updates so callers (benchmarks, index
        maintenance experiments) can measure downstream costs.
        """
        updates = self.generate_updates()
        self._graph.apply_updates(updates)
        return updates

