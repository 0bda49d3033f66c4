"""Situations and the situation-evaluation engine.

A *situation* is an application-meaningful condition over contexts --
"Peter is in his office", "an item reached checkout" -- whose
activation triggers adaptive behaviour (forwarding a call, raising an
alert).  The paper's second context-awareness metric counts situation
activations after inconsistency resolution: discarding the contexts a
situation needed suppresses its activation.

The engine is a middleware plug-in service: it observes every context
delivered to applications and evaluates each registered situation
against the delivered context plus a sliding view of recent
deliveries.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence

from ..core.context import Context
from ..middleware.bus import ContextDelivered, SituationActivated
from ..middleware.manager import Middleware
from ..middleware.service import MiddlewareService

__all__ = ["SituationView", "Situation", "SituationEngine"]


class SituationView:
    """What a situation trigger may inspect: recent delivered contexts.

    The view deliberately exposes only contexts that survived
    resolution and were delivered -- a situation cannot peek at
    discarded or buffered contexts, which is precisely how resolution
    strategies impact situation activation.
    """

    def __init__(self, window: int = 64) -> None:
        self._recent: Deque[Context] = deque(maxlen=window)
        self.now: float = 0.0

    def push(self, ctx: Context, now: float) -> None:
        self._recent.append(ctx)
        self.now = now

    def recent(
        self,
        ctx_type: Optional[str] = None,
        subject: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Context]:
        """Recent delivered contexts, newest last, optionally filtered."""
        matches = [
            c
            for c in self._recent
            if (ctx_type is None or c.ctx_type == ctx_type)
            and (subject is None or c.subject == subject)
        ]
        if limit is not None:
            matches = matches[-limit:]
        return matches

    def previous(self, ctx: Context) -> Optional[Context]:
        """The delivered context of the same type+subject just before
        ``ctx``, if any -- the building block for "entered"/"moved"
        style situations."""
        older = [
            c
            for c in self._recent
            if c.ctx_type == ctx.ctx_type
            and c.subject == ctx.subject
            and c.ctx_id != ctx.ctx_id
            and c.timestamp <= ctx.timestamp
        ]
        if not older:
            return None
        return max(older, key=lambda c: (c.timestamp, c.ctx_id))

    def clear(self) -> None:
        self._recent.clear()
        self.now = 0.0


#: A trigger decides whether the just-delivered context activates the
#: situation, given the view of recent deliveries.
Trigger = Callable[[Context, SituationView], bool]


@dataclass(frozen=True)
class Situation:
    """A named, triggerable application situation."""

    name: str
    trigger: Trigger
    description: str = ""

    def matches(self, ctx: Context, view: SituationView) -> bool:
        return bool(self.trigger(ctx, view))


class SituationEngine(MiddlewareService):
    """Plug-in that evaluates situations on every delivered context."""

    name = "situation-engine"

    def __init__(
        self, situations: Sequence[Situation], view_window: int = 64
    ) -> None:
        names = [s.name for s in situations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate situation names in {names}")
        self.situations = list(situations)
        self.view = SituationView(window=view_window)
        self.activations: Counter = Counter()
        #: Activations triggered by corrupted contexts (spurious), kept
        #: separately for the extended analysis in EXPERIMENTS.md.
        self.spurious_activations: Counter = Counter()
        self._middleware: Optional[Middleware] = None

    def on_attach(self, middleware: Middleware) -> None:
        self._middleware = middleware
        middleware.bus.subscribe(ContextDelivered, self._on_delivered)

    def _on_delivered(self, event: ContextDelivered) -> None:
        ctx = event.context
        self.view.push(ctx, event.at)
        for situation in self.situations:
            if situation.matches(ctx, self.view):
                self.activations[situation.name] += 1
                if ctx.corrupted:
                    self.spurious_activations[situation.name] += 1
                if self._middleware is not None:
                    self._middleware.bus.publish(
                        SituationActivated(
                            at=event.at, situation=situation.name, context=ctx
                        )
                    )

    def total_activations(self) -> int:
        return sum(self.activations.values())

    def total_spurious(self) -> int:
        return sum(self.spurious_activations.values())

    def reset(self) -> None:
        self.view.clear()
        self.activations.clear()
        self.spurious_activations.clear()
