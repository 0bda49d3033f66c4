"""Context routing: which shard handles an arriving context.

Contexts of a constrained type go to the shard owning that type's
scope group -- mandatory for correctness, since all contexts a
constraint can relate must share a pool.  Contexts of unconstrained
types can go anywhere (no constraint will ever involve them; every
shard admits them directly), so the router spreads them *subject-keyed*
with a stable hash: all of one subject's unconstrained contexts land on
one shard, keeping per-subject arrival order intact within the shard.

Hashing uses :func:`zlib.crc32`, not :func:`hash`, because Python's
string hashing is salted per process, and a run and its ledger replay
in another process must agree on every routing decision.
"""

from __future__ import annotations

import zlib
from typing import Dict

from ..core.context import Context
from .scope import ScopePartition

__all__ = ["ContextRouter"]


def _stable_hash(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


class ContextRouter:
    """Deterministic context -> shard assignment for a partition."""

    def __init__(self, partition: ScopePartition) -> None:
        self.partition = partition
        self.shards = partition.shards
        #: Routing decisions per shard, for load diagnostics.
        self.routed: Dict[int, int] = {i: 0 for i in range(self.shards)}

    def shard_for(self, ctx: Context) -> int:
        """Pure routing decision for ``ctx`` (no load accounting).

        Observers (the decision ledger's shard attribution) use this to
        ask "where does this context live?" without inflating the
        ``routed`` load counters that :meth:`route` maintains.
        """
        shard = self.partition.shard_of_type(ctx.ctx_type)
        if shard < 0:
            # Unconstrained type: subject-keyed stable spreading.
            key = ctx.subject if ctx.subject else ctx.ctx_type
            shard = _stable_hash(key) % self.shards
        return shard

    def route(self, ctx: Context) -> int:
        """The shard that must (or may) process ``ctx``."""
        shard = self.shard_for(ctx)
        self.routed[shard] += 1
        return shard

    def load_skew(self) -> float:
        """max/mean routed contexts across shards (1.0 = perfectly even)."""
        counts = list(self.routed.values())
        total = sum(counts)
        if total == 0:
            return 1.0
        mean = total / len(counts)
        return max(counts) / mean if mean else 1.0
