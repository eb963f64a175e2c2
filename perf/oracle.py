"""Answer checking: structure, re-pricing on a twin graph, and whole-graph Yen.

The oracle replays the session's event log on a twin ``DynamicGraph`` that
never met the serving stack: posts are applied in the order they were
sent, so when an answer is checked the twin is at the version the server
must have answered from.  Re-pricing every path on the twin is what
catches a stale cache; the sampled comparison with whole-graph Yen (the
dict reference path, which shares no kernel with the served engine) is
what catches a wrong k-shortest set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.algorithms import yen_k_shortest_paths
from repro.graph import DynamicGraph
from repro.graph.errors import EdgeNotFoundError, PathNotFoundError

from .measure import PostEvent, QueryEvent

EXACT = 1e-9
#: After increase-only rounds the parent commit returns, for about 7 answers
#: in 1,000, paths up to 0.41% longer than Yen's (README, "Known
#: inexactness": the largest excess in 7,000 answers).  Up to this relative
#: excess such an answer is counted in ``core.inexact_share``; beyond it, or
#: *below* Yen, it is a failure.
INEXACT_AFTER_UPDATES = 2e-2
YEN_EVERY = 40
YEN_AT_LEAST = 15


def close(a: float, b: float) -> bool:
    """Equal within ``EXACT``, relative for distances above 1."""
    return abs(a - b) <= EXACT * max(1.0, abs(b))


@dataclass
class Verdict:
    """What the oracle found over one event log."""

    attempted: int = 0
    failed: int = 0
    yen_compared: int = 0
    inexact: int = 0
    #: First few failure descriptions, for the printed report.
    reasons: List[str] = field(default_factory=list)

    def fail(self, seq: int, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"#{seq}: {reason}")


def _structural(event: QueryEvent, twin: DynamicGraph) -> Optional[str]:
    """Return why the answer is wrong, or ``None`` when it holds up."""
    query, result = event.query, event.result
    if result.status != 200:
        return f"status {result.status}: {result.payload.get('error')}"
    if result.degraded:
        return "degraded answer"
    if result.attempts != 1:
        return f"retried ({result.attempts} attempts)"
    payload = result.payload
    if (payload.get("source"), payload.get("target"), payload.get("k")) != query.key:
        return "answer is for another query"
    if payload.get("graph_version") != twin.version:
        return f"graph_version {payload.get('graph_version')}, twin at {twin.version}"
    paths = result.paths
    if len(paths) != query.k:
        return f"{len(paths)} paths for k={query.k}"
    seen = set()
    previous = 0.0
    for path in paths:
        vertices = tuple(path["vertices"])
        if not vertices or vertices[0] != query.source or vertices[-1] != query.target:
            return "path does not join source and target"
        if len(set(vertices)) != len(vertices):
            return "path is not simple"
        if vertices in seen:
            return "duplicate path"
        seen.add(vertices)
        try:
            repriced = twin.path_distance(vertices)
        except EdgeNotFoundError:
            return "path uses a missing edge"
        if not close(path["distance"], repriced):
            return f"distance {path['distance']!r} re-prices to {repriced!r}"
        if path["distance"] < previous - EXACT:
            return "paths out of order"
        previous = path["distance"]
    return None


def _against_yen(event: QueryEvent, twin: DynamicGraph, tolerance: float) -> str:
    """``"exact"``, ``"inexact"`` (within ``tolerance`` above Yen) or a reason."""
    query = event.query
    try:
        expected = yen_k_shortest_paths(twin, query.source, query.target, query.k)
    except PathNotFoundError:
        return "Yen finds no path"
    served = [path["distance"] for path in event.result.paths]
    if len(expected) != len(served):
        return f"Yen finds {len(expected)} paths, served {len(served)}"
    verdict = "exact"
    for rank, (got, want) in enumerate(zip(served, (p.distance for p in expected))):
        if close(got, want):
            continue
        excess = (got - want) / want
        if 0.0 < excess <= tolerance:
            verdict = "inexact"
            continue
        return f"rank {rank + 1} distance {got!r}, Yen has {want!r}"
    return verdict


def verify(events: Sequence[object], twin: DynamicGraph, seed: int) -> Verdict:
    """Replay ``events`` on ``twin`` and check every answer and post."""
    verdict = Verdict()
    answers = sum(isinstance(event, QueryEvent) for event in events)
    step = max(1, min(YEN_EVERY, answers // YEN_AT_LEAST))
    offset = random.Random(seed).randrange(step)
    answer_index = 0
    for event in events:
        verdict.attempted += 1
        if isinstance(event, PostEvent):
            twin.apply_updates(event.updates)
            if event.payload is None:
                verdict.fail(event.seq, "maintenance post failed")
            elif (
                event.payload.get("applied") != len(event.updates)
                or event.payload.get("graph_version") != twin.version
            ):
                verdict.fail(event.seq, f"maintenance reply {event.payload}")
            continue
        reason = _structural(event, twin)
        if reason is None and answer_index % step == offset:
            tolerance = INEXACT_AFTER_UPDATES if twin.version else 0.0
            outcome = _against_yen(event, twin, tolerance)
            verdict.yen_compared += 1
            if outcome == "inexact":
                verdict.inexact += 1
            elif outcome != "exact":
                reason = outcome
        answer_index += 1
        if reason is not None:
            query = event.query
            verdict.fail(event.seq, f"{query.source}->{query.target}: {reason}")
    return verdict
