"""Snapshot-window ingress: asynchronous checking over unordered streams.

The checker, the runtime driver and both host adapters historically
assumed a *synchronized* stream -- contexts arriving in timestamp order
from one clock.  Real pervasive deployments violate that constantly:
contexts arrive late, reordered, duplicated and with skewed source
clocks, and the paper's Rules 1/2/2' are only sound against views whose
timestamps do not regress (the simulation clock is strictly monotone;
an out-of-order arrival is silently evaluated at the *wrong* now).

:class:`SnapshotIngress` restores that soundness the way the
snapshot-based asynchronous event-detection line (SECA; Huang et al.,
PAPERS.md) does: arrivals are buffered into a bounded snapshot window
keyed by context timestamp, and only released -- in timestamp order --
once a *watermark* guarantees no earlier context can still be accepted.

Semantics
---------
* The **watermark** is ``max_observed_timestamp - max_lag``: a context
  is releasable once the stream has advanced ``max_lag`` past it, the
  window in which a late context may still legally arrive.
* The **cursor** is the largest released timestamp.  A context is
  **stale** iff ``timestamp < cursor`` -- it can no longer be placed in
  sorted order, so admitting it would regress the checker's clock.  A
  context *below the watermark but at/after the cursor* is still
  accepted: it is placed in order and released immediately.
* **Duplicates** (a ctx_id seen within the ``dedup_window`` most recent
  ids) are dropped before buffering.
* The buffer is **bounded**: past ``max_buffer`` pending contexts the
  oldest is force-released (counted in :attr:`forced`), advancing the
  cursor early -- under overload the ingress degrades gracefully toward
  synchronous behavior instead of growing without bound.

The load-bearing invariant, relied on by the ledger's deterministic
replay: *the released stream is always timestamp-sorted* (both the
watermark pops and the forced pops take the heap minimum, and stale
arrivals below the cursor are never admitted).  A driver fed from this
ingress therefore sees ``now == ctx.timestamp`` at every release, the
simulation clock never regresses, and re-feeding the released stream --
which is exactly what ledger arrival entries record -- through the same
configuration reproduces every decision byte for byte.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.context import Context
from .scheduler import BoundedIdSet

__all__ = ["AsyncCheckConfig", "IngressOutcome", "SnapshotIngress"]


@dataclass(frozen=True)
class AsyncCheckConfig:
    """Tunables of the snapshot-window asynchronous checking mode.

    Parameters
    ----------
    max_lag:
        Watermark lag in simulated seconds: how far behind the maximum
        observed timestamp a context may arrive and still be reordered
        into place.  Should cover the deployment's worst expected
        delivery delay plus clock skew; see
        :func:`repro.constraints.horizon.temporal_horizon` for deriving
        a lower bound from the constraint set itself.
    max_buffer:
        Bound on buffered (unreleased) contexts; the oldest is
        force-released past it.
    dedup_window:
        How many recent ctx_ids the duplicate filter remembers (exact
        dedup within the window, O(dedup_window) memory).
    per_source:
        Track the maximum observed timestamp *per context source* and
        take the watermark from the slowest **active** source instead
        of the global maximum.  A consistently slow source (transport
        delay, clock skew) then holds the window open so its arrivals
        are reordered into place rather than dropped stale -- the
        global max-based watermark races ahead on the fastest source
        and penalizes stragglers.
    source_idle_arrivals:
        Straggler bound for ``per_source`` mode: a source that stays
        silent while this many arrivals are accepted from other
        sources is considered *idle* and evicted from the watermark
        minimum, so one stalled source cannot stall the whole window
        forever.  It is reinstated by its next accepted arrival.
    """

    max_lag: float = 5.0
    max_buffer: int = 1024
    dedup_window: int = 4096
    per_source: bool = False
    source_idle_arrivals: int = 64

    def __post_init__(self) -> None:
        if self.max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {self.max_lag}")
        if self.max_buffer < 1:
            raise ValueError(
                f"max_buffer must be >= 1, got {self.max_buffer}"
            )
        if self.dedup_window < 1:
            raise ValueError(
                f"dedup_window must be >= 1, got {self.dedup_window}"
            )
        if self.source_idle_arrivals < 1:
            raise ValueError(
                f"source_idle_arrivals must be >= 1, got "
                f"{self.source_idle_arrivals}"
            )

    def to_document(self) -> dict:
        """Plain-JSON form for the ledger's ruleset header."""
        return {
            "max_lag": self.max_lag,
            "max_buffer": self.max_buffer,
            "dedup_window": self.dedup_window,
            "per_source": self.per_source,
            "source_idle_arrivals": self.source_idle_arrivals,
        }

    @classmethod
    def from_document(cls, doc: Mapping[str, object]) -> "AsyncCheckConfig":
        """Rebuild from a :meth:`to_document` mapping (ledger replay)."""
        return cls(
            max_lag=float(doc.get("max_lag", 5.0)),  # type: ignore[arg-type]
            max_buffer=int(doc.get("max_buffer", 1024)),  # type: ignore[arg-type]
            dedup_window=int(doc.get("dedup_window", 4096)),  # type: ignore[arg-type]
            per_source=bool(doc.get("per_source", False)),
            source_idle_arrivals=int(
                doc.get("source_idle_arrivals", 64)  # type: ignore[arg-type]
            ),
        )


@dataclass(frozen=True)
class IngressOutcome:
    """What one :meth:`SnapshotIngress.offer` did.

    ``released`` is the (possibly empty) timestamp-sorted run of
    contexts the offer made releasable; ``dropped`` is ``None`` when
    the offered context was buffered or released, else ``"stale"`` /
    ``"duplicate"``.
    """

    released: Tuple[Context, ...]
    dropped: Optional[str] = None


class SnapshotIngress:
    """Bounded reorder buffer releasing a timestamp-sorted stream."""

    __slots__ = (
        "config",
        "_heap",
        "_seq",
        "_max_ts",
        "_cursor",
        "_seen",
        "_arrivals",
        "_source_max",
        "_source_seen_at",
        "released",
        "stale",
        "duplicates",
        "forced",
        "evicted_sources",
    )

    def __init__(self, config: AsyncCheckConfig) -> None:
        self.config = config
        self._heap: List[Tuple[float, int, Context]] = []
        self._seq = 0
        self._max_ts = float("-inf")
        self._cursor = float("-inf")
        self._seen = BoundedIdSet(maxlen=config.dedup_window)
        #: Accepted arrivals (per-source idle detection clock).
        self._arrivals = 0
        #: source name -> largest accepted timestamp (per_source mode).
        self._source_max: Dict[str, float] = {}
        #: source name -> arrival count at its last accepted arrival.
        self._source_seen_at: Dict[str, int] = {}
        #: Contexts released to the pipeline (watermark + forced + flush).
        self.released = 0
        #: Arrivals dropped because their timestamp predates the cursor.
        self.stale = 0
        #: Arrivals dropped by the ctx_id duplicate filter.
        self.duplicates = 0
        #: Releases forced by the ``max_buffer`` bound (before their
        #: watermark; a high rate means ``max_buffer`` is undersized
        #: for the stream's disorder).
        self.forced = 0
        #: Times a stalled source was dropped from the per-source
        #: watermark minimum (``source_idle_arrivals`` exceeded).
        self.evicted_sources = 0

    def __len__(self) -> int:
        """Buffered (offered but not yet released) contexts."""
        return len(self._heap)

    @property
    def watermark(self) -> float:
        """Largest timestamp currently releasable (``-inf`` initially).

        Global mode: ``max observed - max_lag``.  Per-source mode: the
        minimum over the *tracked* sources' observed maxima, minus the
        lag -- at most the global watermark, holding the window open
        for the slowest live source.  Stalled sources are evicted from
        the tracking map on arrival (see :meth:`offer`), and removing
        a term from a minimum can only raise it, so one straggler
        stops stalling the watermark as soon as it is evicted.
        """
        base = self._max_ts - self.config.max_lag
        if not self.config.per_source or not self._source_max:
            return base
        return min(self._source_max.values()) - self.config.max_lag

    @property
    def cursor(self) -> float:
        """Largest released timestamp; arrivals below it are stale."""
        return self._cursor

    def offer(self, ctx: Context) -> IngressOutcome:
        """Accept one arrival; return the run it makes releasable."""
        if not self._seen.add(ctx.ctx_id):
            self.duplicates += 1
            return IngressOutcome(released=(), dropped="duplicate")
        if ctx.timestamp < self._cursor:
            self.stale += 1
            return IngressOutcome(released=(), dropped="stale")
        self._seq += 1
        heapq.heappush(self._heap, (ctx.timestamp, self._seq, ctx))
        if ctx.timestamp > self._max_ts:
            self._max_ts = ctx.timestamp
        if self.config.per_source:
            self._track_source(ctx)
        return IngressOutcome(released=tuple(self._release()))

    def _track_source(self, ctx: Context) -> None:
        """Per-source bookkeeping: maxima, liveness, straggler eviction."""
        self._arrivals += 1
        source = ctx.source
        if ctx.timestamp > self._source_max.get(source, float("-inf")):
            self._source_max[source] = ctx.timestamp
        self._source_seen_at[source] = self._arrivals
        bound = self.config.source_idle_arrivals
        idle = [
            name
            for name, seen_at in self._source_seen_at.items()
            if self._arrivals - seen_at > bound
        ]
        for name in idle:
            del self._source_max[name]
            del self._source_seen_at[name]
            self.evicted_sources += 1

    def _release(self) -> List[Context]:
        heap = self._heap
        out: List[Context] = []
        watermark = self.watermark
        while heap and heap[0][0] <= watermark:
            out.append(heapq.heappop(heap)[2])
        while len(heap) > self.config.max_buffer:
            out.append(heapq.heappop(heap)[2])
            self.forced += 1
        if out:
            # Heap pops are non-decreasing, so the last pop is the max.
            self._cursor = out[-1].timestamp
            self.released += len(out)
        return out

    def flush(self) -> List[Context]:
        """Release everything still buffered, in timestamp order
        (end-of-stream / drain)."""
        heap = self._heap
        out: List[Context] = []
        while heap:
            out.append(heapq.heappop(heap)[2])
        if out:
            self._cursor = out[-1].timestamp
            self.released += len(out)
        return out

    def stats(self) -> Dict[str, float]:
        """Counters + window position, for telemetry and ``/stats``."""
        return {
            "buffered": float(len(self._heap)),
            "released": float(self.released),
            "stale": float(self.stale),
            "duplicates": float(self.duplicates),
            "forced": float(self.forced),
            "evicted_sources": float(self.evicted_sources),
            "tracked_sources": float(len(self._source_max)),
            "watermark": self.watermark,
            "cursor": self._cursor,
        }
