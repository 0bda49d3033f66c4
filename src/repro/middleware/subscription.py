"""Application subscriptions to delivered contexts.

A context-aware application registers interest in context types (and
optionally subjects); whenever a used context is judged consistent and
delivered, matching subscriptions receive it.  This is the "contexts
actually used by applications" side of the paper's first metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..core.context import Context

__all__ = ["Subscription", "SubscriptionRegistry"]

ContextHandler = Callable[[Context], None]


@dataclass
class Subscription:
    """One application's interest in a slice of the context stream."""

    app: str
    handler: ContextHandler
    ctx_type: Optional[str] = None
    subject: Optional[str] = None
    received: int = 0

    def matches(self, ctx: Context) -> bool:
        if self.ctx_type is not None and ctx.ctx_type != self.ctx_type:
            return False
        if self.subject is not None and ctx.subject != self.subject:
            return False
        return True

    def deliver(self, ctx: Context) -> None:
        self.received += 1
        self.handler(ctx)


class SubscriptionRegistry:
    """All active subscriptions of a middleware manager."""

    def __init__(self) -> None:
        self._subscriptions: List[Subscription] = []

    def subscribe(
        self,
        app: str,
        handler: ContextHandler,
        ctx_type: Optional[str] = None,
        subject: Optional[str] = None,
    ) -> Subscription:
        subscription = Subscription(
            app=app, handler=handler, ctx_type=ctx_type, subject=subject
        )
        self._subscriptions.append(subscription)
        return subscription

    def dispatch(self, ctx: Context) -> int:
        """Deliver ``ctx`` to every matching subscription.

        Returns the number of subscriptions that received it.
        """
        count = 0
        for subscription in self._subscriptions:
            if subscription.matches(ctx):
                subscription.deliver(ctx)
                count += 1
        return count

    def for_app(self, app: str) -> List[Subscription]:
        return [s for s in self._subscriptions if s.app == app]

    def __len__(self) -> int:
        return len(self._subscriptions)
