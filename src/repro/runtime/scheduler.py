"""Use-window scheduling: when applications use received contexts.

The paper's drop-bad life cycle delays the *use* of a context by a
configurable window after its arrival (Section 5.3).  Two window
semantics exist, historically implemented twice (``Middleware`` and the
sharded engine) with an O(n) deque rebuild on every discard.
:class:`UseScheduler` is the single implementation both now share:

* **count-based** (``use_window`` admitted arrivals) -- deterministic
  and the experiments' default;
* **time-based** (``use_delay`` simulated seconds) -- the Cabot
  "checking-sensitive period"; entries become due as the simulation
  clock passes ``arrived_at + use_delay``.

A zero window makes every context due immediately upon admission,
degenerating drop-bad into drop-latest (Section 5.3).

Discard-by-id is amortized O(1): entries live in a FIFO deque *and* an
id index; discarding tombstones the entry through the index instead of
rebuilding the deque.  Tombstones are dropped lazily when they surface
at the head, and the deque is compacted once tombstones outnumber live
entries (amortized constant work per discard) -- so pending-queue
length no longer multiplies discard cost (see the scheduler
micro-benchmark next to the pool guard).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..core.context import Context

__all__ = ["UseScheduler", "ScheduledUse", "BoundedIdSet"]

#: Compaction floor: never rebuild tiny queues, whatever the ratio.
_COMPACT_MIN_TOMBSTONES = 64


class ScheduledUse:
    """One pending use: the context plus its window bookkeeping.

    ``payload`` is opaque caller routing state (the pipeline index for
    multi-shard drivers); ``arrival_index`` is the admitted-arrival
    counter at schedule time (count-based windows); ``arrived_at`` is
    the simulation time of admission (time-based windows).
    """

    __slots__ = ("ctx", "payload", "arrival_index", "arrived_at", "discarded")

    def __init__(
        self,
        ctx: Context,
        payload: object,
        arrival_index: int,
        arrived_at: float,
    ) -> None:
        self.ctx = ctx
        self.payload = payload
        self.arrival_index = arrival_index
        self.arrived_at = arrived_at
        self.discarded = False


class UseScheduler:
    """FIFO use-window queue with O(1) discard, both window semantics.

    Exactly one of the two window parameters is consulted: when
    ``use_delay`` is not ``None`` the scheduler is time-based and
    ``use_window`` is ignored, mirroring the historical middleware
    contract.
    """

    def __init__(
        self, *, use_window: int = 4, use_delay: Optional[float] = None
    ) -> None:
        if use_window < 0:
            raise ValueError(f"use_window must be >= 0, got {use_window}")
        if use_delay is not None and use_delay < 0:
            raise ValueError(f"use_delay must be >= 0, got {use_delay}")
        self.use_window = use_window
        self.use_delay = use_delay
        #: Admitted arrivals so far (the count-based window's clock).
        self.arrivals = 0
        self._queue: Deque[ScheduledUse] = deque()
        self._by_id: Dict[str, ScheduledUse] = {}
        self._tombstones = 0

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self, ctx: Context, payload: object, arrived_at: float
    ) -> ScheduledUse:
        """Admit ``ctx`` and enqueue its pending use."""
        self.arrivals += 1
        entry = ScheduledUse(ctx, payload, self.arrivals, arrived_at)
        self._queue.append(entry)
        self._by_id[ctx.ctx_id] = entry
        return entry

    def discard(self, ctx_id: str) -> bool:
        """Unschedule a pending use by context id; O(1) amortized.

        Returns whether a pending entry existed.  Unknown ids are a
        no-op: strategies discard victims that may have been used or
        never admitted.
        """
        entry = self._by_id.pop(ctx_id, None)
        if entry is None:
            return False
        entry.discarded = True
        self._tombstones += 1
        if (
            self._tombstones > _COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(self._queue)
        ):
            self._compact()
        return True

    def _compact(self) -> None:
        self._queue = deque(e for e in self._queue if not e.discarded)
        self._tombstones = 0

    # -- draining -------------------------------------------------------------

    def _head(self) -> Optional[ScheduledUse]:
        queue = self._queue
        while queue and queue[0].discarded:
            queue.popleft()
            self._tombstones -= 1
        return queue[0] if queue else None

    def _due(self, entry: ScheduledUse, now: float) -> bool:
        if self.use_delay is not None:
            return now >= entry.arrived_at + self.use_delay
        return self.arrivals - entry.arrival_index >= self.use_window

    def pop_due(self, now: float) -> Optional[ScheduledUse]:
        """Pop the oldest pending use that is due at ``now``, if any.

        One entry at a time by design: using a context can discard
        other *pending* contexts, which must stop being due before the
        next pop (the drain loop in the pipeline driver).
        """
        entry = self._head()
        if entry is None or not self._due(entry, now):
            return None
        self._queue.popleft()
        del self._by_id[entry.ctx.ctx_id]
        return entry

    def pop_next(self) -> Optional[ScheduledUse]:
        """Pop the oldest pending use regardless of its window (flush)."""
        entry = self._head()
        if entry is None:
            return None
        self._queue.popleft()
        del self._by_id[entry.ctx.ctx_id]
        return entry

    def next_due_at(self) -> float:
        """Earliest simulation time the head entry becomes due.

        ``-inf`` when the head is already due by count, ``inf`` when
        nothing is pending.  Lets batch paths skip per-context drain
        checks while the clock is below this bound.
        """
        entry = self._head()
        if entry is None:
            return float("inf")
        if self.use_delay is not None:
            return entry.arrived_at + self.use_delay
        if self.arrivals - entry.arrival_index >= self.use_window:
            return float("-inf")
        return float("inf")

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        """Live (non-tombstoned) pending uses."""
        return len(self._by_id)

    def pending(self) -> List[Context]:
        """Live pending contexts in schedule order (a fresh list)."""
        return [e.ctx for e in self._queue if not e.discarded]

    def queue_slots(self) -> int:
        """Deque slots held, tombstones included (compaction tests)."""
        return len(self._queue)


class BoundedIdSet:
    """Recently-seen id set with bounded memory (FIFO eviction).

    Backs ``Middleware.used_count``: distinct-use counting needs to
    recognize a context used twice in close succession, but keeping
    every id of an unbounded stream leaks (the historical ``_used_ids``
    set).  Ids are remembered in insertion order and the oldest are
    evicted past ``maxlen`` -- dedup stays exact within the retention
    window, memory stays O(maxlen) however long the stream runs.
    """

    __slots__ = ("_ids", "_order", "maxlen")

    def __init__(self, maxlen: int = 4096) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = maxlen
        self._ids: set = set()
        self._order: Deque[str] = deque()

    def add(self, item: str) -> bool:
        """Remember ``item``; returns ``True`` when it was not present."""
        if item in self._ids:
            return False
        self._ids.add(item)
        self._order.append(item)
        if len(self._order) > self.maxlen:
            self._ids.discard(self._order.popleft())
        return True

    def __contains__(self, item: object) -> bool:
        return item in self._ids

    def __len__(self) -> int:
        return len(self._ids)
