"""Consistent query routing: rendezvous hashing over the replica set.

Queries are routed by their ``(source, target, k)`` key so that repeats of
the same OD pair land on the same replica — that is what makes the
per-replica result caches and request coalescing effective (a round-robin
front door would spread a hot key over every replica and multiply the
compute).  The scheme is *rendezvous* (highest-random-weight) hashing:
each replica's score for a key is an independent keyed hash, the replica
with the highest score wins, and crucially the *ordering* of the remaining
replicas is the failover chain — when the primary is breaker-open or down,
the key moves to its second-choice replica and stays there consistently,
disturbing no other key's placement (the minimal-disruption property that
makes breakers and kill/join churn cheap).

Hashes are ``blake2b`` over an explicit byte string: Python's builtin
``hash`` is process-salted and would re-shard the world on every restart.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

__all__ = ["rendezvous_order", "Router"]

QueryKey = Tuple[int, int, int]


def _score(key: QueryKey, replica_id: int) -> int:
    digest = hashlib.blake2b(
        f"route:{key[0]}:{key[1]}:{key[2]}|replica:{replica_id}".encode("ascii"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big")


def rendezvous_order(key: QueryKey, replica_ids: Sequence[int]) -> List[int]:
    """Replica ids ordered by descending rendezvous score for ``key``.

    Index 0 is the consistent primary; the rest is the failover chain.
    Deterministic across processes and runs (keyed blake2b, not ``hash``).
    """
    return sorted(
        replica_ids, key=lambda replica_id: _score(key, replica_id), reverse=True
    )


class Router:
    """Stateless routing view over a (fixed-id) replica set."""

    def __init__(self, replica_ids: Sequence[int]) -> None:
        if not replica_ids:
            raise ValueError("router needs at least one replica id")
        self._replica_ids = list(replica_ids)

    def order(self, key: QueryKey) -> List[int]:
        """Primary-first failover chain for one query key."""
        return rendezvous_order(key, self._replica_ids)
