"""Event-stream recording: lifecycle bus events -> ledger entries.

Every host -- the single-pool middleware, the engine's shards and the
serving front-door -- runs the one canonical :class:`~repro.runtime.pipeline.ResolutionPipeline`,
which publishes the full lifecycle vocabulary on its event bus.  The
recorder converts that stream into ledger entries, so wiring a ledger
into a new host costs one bus subscription, never new stage logic.

Recording is live: :meth:`LedgerRecorder.attach` subscribes to a bus
and feeds a sink per event, so entries reach the ledger in publish
order as decisions happen.  The engine's open stream (which
``ShardedEngine.run`` and the serving front-door both drive) and the
middleware's :class:`~repro.ledger.service.LedgerService` are its two
users.

The recorder keeps two small indexes: context -> owning shard (from
arrivals; popped on terminal verdicts) and context -> implicating
constraint names (from detections; this is the ``why`` a discard
entry carries).  Both are bounded by the number of in-flight contexts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.context import Context
from ..middleware.bus import (
    ContextAdmitted,
    ContextDelivered,
    ContextDiscarded,
    ContextDuplicate,
    ContextExpired,
    ContextMarkedBad,
    ContextReceived,
    ContextStale,
    Event,
    EventBus,
    InconsistencyDetected,
)
from ..middleware.trace import context_record
from .records import (
    KIND_ADMIT,
    KIND_ARRIVAL,
    KIND_DELIVER,
    KIND_DETECTION,
    KIND_DISCARD,
    KIND_DUPLICATE,
    KIND_EXPIRE,
    KIND_MARK_BAD,
    KIND_STALE,
)

__all__ = ["LedgerRecorder"]

# ContextBuffered is deliberately absent: buffering is mechanical
# staging, not a verdict (see :mod:`.records`), and at ~one event per
# context it would dominate the ledger's write cost.
_SIMPLE_KINDS = (
    (ContextAdmitted, KIND_ADMIT),
    (ContextMarkedBad, KIND_MARK_BAD),
)


class LedgerRecorder:
    """Converts lifecycle events into ledger entry dicts.

    Parameters
    ----------
    sink:
        Called with each produced entry (typically
        :meth:`~repro.ledger.writer.LedgerWriter.append` or
        ``list.append``).
    shard_of:
        Optional pure ``Context -> shard`` attribution (the engine's
        :meth:`~repro.engine.router.ContextRouter.shard_for`).  Omitted
        in single-pool hosts, where every entry is shard ``0``.
    """

    def __init__(
        self,
        sink: Callable[[dict], None],
        *,
        shard_of: Optional[Callable[[Context], int]] = None,
    ) -> None:
        self._sink = sink
        self._shard_of = shard_of
        self._shard: Dict[str, int] = {}
        self._why: Dict[str, List[str]] = {}
        self._bus: Optional[EventBus] = None
        # Exact-type dispatch table (an isinstance cascade per event is
        # measurable on the recording hot path); unknown concrete
        # types resolve through isinstance once, then cache.
        self._dispatch: Dict[type, Optional[Callable[[Event], Optional[dict]]]] = {
            ContextReceived: self._on_arrival,
            InconsistencyDetected: self._on_detection,
            ContextDiscarded: self._on_discard,
            ContextDelivered: self._on_deliver,
            ContextExpired: self._on_expire,
            ContextStale: self._refusal_handler(KIND_STALE),
            ContextDuplicate: self._refusal_handler(KIND_DUPLICATE),
        }
        for event_type, kind in _SIMPLE_KINDS:
            self._dispatch[event_type] = self._simple_handler(kind)

    # -- bus lifecycle ------------------------------------------------------

    def attach(self, bus: EventBus) -> None:
        """Subscribe to every lifecycle event on ``bus``."""
        if self._bus is not None:
            raise ValueError("recorder is already attached to a bus")
        bus.subscribe(Event, self.observe)
        self._bus = bus

    def detach(self) -> None:
        """Drop the bus subscription (idempotent)."""
        if self._bus is not None:
            self._bus.unsubscribe(Event, self.observe)
            self._bus = None

    # -- event conversion ---------------------------------------------------

    def observe(self, event: Event) -> None:
        """Record one event (non-lifecycle events are ignored)."""
        try:
            handler = self._dispatch[type(event)]
        except KeyError:
            handler = self._resolve(type(event))
        if handler is None:
            return  # SituationActivated, SubscriberError, ...
        entry = handler(event)
        if entry is not None:
            self._sink(entry)

    def _resolve(
        self, event_type: type
    ) -> Optional[Callable[[Event], Optional[dict]]]:
        """isinstance-resolve a type not in the table (e.g. a subclass)."""
        handler = None
        for known, candidate in list(self._dispatch.items()):
            if candidate is not None and issubclass(event_type, known):
                handler = candidate
                break
        self._dispatch[event_type] = handler
        return handler

    def _shard_for_id(self, ctx_id: str) -> int:
        return self._shard.get(ctx_id, 0)

    def _on_arrival(self, event: ContextReceived) -> dict:
        ctx = event.context
        shard = self._shard_of(ctx) if self._shard_of is not None else 0
        self._shard[ctx.ctx_id] = shard
        return {
            "at": event.at,
            "kind": KIND_ARRIVAL,
            "shard": shard,
            "ctx": context_record(ctx),
        }

    def _on_detection(self, event: InconsistencyDetected) -> dict:
        inconsistency = event.inconsistency
        contexts = inconsistency.contexts
        if len(contexts) == 2:
            # The paper's constraints implicate pairs in practice;
            # unpacking beats a sort-over-genexp on this hot path.
            first, second = contexts
            a, b = first.ctx_id, second.ctx_id
            ctx_ids = [a, b] if a <= b else [b, a]
        else:
            ctx_ids = sorted(c.ctx_id for c in contexts)
        constraint = inconsistency.constraint
        for ctx_id in ctx_ids:
            implicated = self._why.setdefault(ctx_id, [])
            if constraint not in implicated:
                implicated.append(constraint)
        return {
            "at": event.at,
            "kind": KIND_DETECTION,
            "shard": self._shard_for_id(ctx_ids[0]),
            "constraint": constraint,
            "ctx_ids": ctx_ids,
        }

    def _on_discard(self, event: ContextDiscarded) -> dict:
        ctx_id = event.context.ctx_id
        return {
            "at": event.at,
            "kind": KIND_DISCARD,
            "shard": self._shard.pop(ctx_id, 0),
            "ctx_id": ctx_id,
            "why": self._why.pop(ctx_id, []),
        }

    def _on_deliver(self, event: ContextDelivered) -> dict:
        ctx_id = event.context.ctx_id
        self._why.pop(ctx_id, None)
        return {
            "at": event.at,
            "kind": KIND_DELIVER,
            "shard": self._shard.pop(ctx_id, 0),
            "ctx_id": ctx_id,
        }

    def _on_expire(self, event: ContextExpired) -> dict:
        ctx_id = event.context.ctx_id
        self._why.pop(ctx_id, None)
        return {
            "at": event.at,
            "kind": KIND_EXPIRE,
            "shard": self._shard.pop(ctx_id, 0),
            "ctx_id": ctx_id,
        }

    def _refusal_handler(self, kind: str) -> Callable[[Event], dict]:
        """Handler for ingress refusals (stale / duplicate drops).

        The refused context never *arrived* at the pipeline -- replay
        feeds only ``arrival`` entries, and release-order arrivals
        interleaved with offer-time refusals would break its
        determinism -- so these are their own kinds, carrying both the
        ``ctx_id`` (terminal-verdict indexing: explain, diff) and the
        full ``ctx`` record (audit: what exactly was refused).
        """

        def handle(event: Event) -> dict:
            ctx = event.context
            shard = (
                self._shard_of(ctx) if self._shard_of is not None else 0
            )
            return {
                "at": event.at,
                "kind": kind,
                "shard": shard,
                "ctx_id": ctx.ctx_id,
                "ctx": context_record(ctx),
            }

        return handle

    def _simple_handler(self, kind: str) -> Callable[[Event], dict]:
        def handle(event: Event) -> dict:
            ctx_id = event.context.ctx_id
            return {
                "at": event.at,
                "kind": kind,
                "shard": self._shard_for_id(ctx_id),
                "ctx_id": ctx_id,
            }

        return handle
