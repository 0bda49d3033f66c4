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

    def shard_for(self, ctx: Context) -> int:
        """The shard that must (or may) process ``ctx``.

        Pure: the driver routes arrivals through it and the decision
        ledger attributes entries to shards through it.
        """
        shard = self.partition.shard_of_type(ctx.ctx_type)
        if shard < 0:
            # Unconstrained type: subject-keyed stable spreading.
            key = ctx.subject if ctx.subject else ctx.ctx_type
            shard = _stable_hash(key) % self.shards
        return shard

    #: The driver's routing hook (a distinct attribute, so profilers
    #: can wrap arrival routing without touching ledger attribution).
    route = shard_for
