"""The four workloads and the seeded request streams that realise them.

A workload is a traffic mix over one of the two pinned networks.  The
names are final — later issues cite them — and ``BENCHMARK.json`` says in
one line why each exists.  ``--seed`` drives the queries, the traffic
snapshots and the oracle's sample; it never changes the network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Set, Tuple

from repro.dynamics import TrafficModel
from repro.graph import DynamicGraph
from repro.workloads import KSPQuery, QueryGenerator

from . import stack

#: Requests per round; every timing metric is a median over rounds.
ROUND_QUERIES = 20
#: Untimed warm-up rounds of the workload's own stream (100 requests).
WARMUP_ROUNDS = 5
POOL_SIZE = 200
ZIPF_EXPONENT = 1.1
#: tau=0.30 (the library default) and direction="both" drive single
#: queries to tens of seconds on these networks (see README, exclusions).
TRAFFIC = {"alpha": 0.35, "tau": 0.10, "direction": "increase"}


@dataclass(frozen=True)
class Workload:
    """One traffic mix; ``BENCHMARK.json`` and the README say why each exists.

    ``pool_share`` of the queries are Zipf draws from a fixed pool of
    ``POOL_SIZE`` keys, the rest are fresh keys that never repeat.
    ``posts_per_round`` maintenance posts split a round into as many
    cycles of ``[post, queries]``.
    """

    name: str
    network: str
    pool_share: float = 0.0
    posts_per_round: int = 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("cold-uniform", "M"),
        Workload("hot-zipf", "M", pool_share=0.75),
        Workload("dynamic-traffic", "M", pool_share=0.5, posts_per_round=2),
        Workload("large-cold", "L"),
    )
}


class QueryStream:
    """Endless seeded stream of the workload's queries.

    Fresh queries come from ``QueryGenerator(min_hops=MIN_HOPS)`` and skip
    any key seen before, so a fresh query is a guaranteed cache miss.
    """

    def __init__(self, workload: Workload, graph: DynamicGraph, seed: int) -> None:
        self._generator = QueryGenerator(graph, seed=seed, min_hops=stack.MIN_HOPS)
        self._mix = random.Random(seed + 1_000_003)
        self._seen: Set[Tuple[int, int, int]] = set()
        self._issued = 0
        self._pool_share = workload.pool_share
        self.pool: List[KSPQuery] = []
        if workload.pool_share > 0.0:
            self.pool = [self._fresh() for _ in range(POOL_SIZE)]
            self._cumulative = list(
                accumulate(1.0 / rank**ZIPF_EXPONENT for rank in range(1, POOL_SIZE + 1))
            )

    def _fresh(self) -> KSPQuery:
        while True:
            query = self._generator.generate_one(self._issued, stack.K)
            self._issued += 1
            if query.key not in self._seen:
                self._seen.add(query.key)
                return query

    def next(self) -> KSPQuery:
        """The stream's next query."""
        if self.pool and self._mix.random() < self._pool_share:
            return self._mix.choices(self.pool, cum_weights=self._cumulative)[0]
        return self._fresh()

    def take(self, count: int) -> List[KSPQuery]:
        """The next ``count`` queries."""
        return [self.next() for _ in range(count)]

    def take_distinct(self, count: int, exclude: Set[Tuple[int, int, int]]) -> List[KSPQuery]:
        """The next ``count`` queries whose keys are new and not in ``exclude``."""
        taken: List[KSPQuery] = []
        keys = set(exclude)
        while len(taken) < count:
            query = self.next()
            if query.key not in keys:
                keys.add(query.key)
                taken.append(query)
        return taken


def traffic_model(graph: DynamicGraph, seed: int) -> TrafficModel:
    """The update source; snapshots vary around *initial* weights, so
    generating them never depends on the graph's current state."""
    return TrafficModel(graph, seed=seed, **TRAFFIC)
