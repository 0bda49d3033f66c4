"""Reusable situation-trigger combinators.

The two applications assemble their situations from these building
blocks, mirroring the kinds of situations participants designed in the
authors' constraint/situation study [19]: presence in a place, moving
between places, co-location, and flow milestones.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.context import Context
from .situation import Situation, SituationView, Trigger

__all__ = [
    "value_is",
    "value_in",
    "entered",
    "left",
    "position_within",
    "co_located",
    "make_situation",
]


def make_situation(name: str, trigger: Trigger, description: str = "") -> Situation:
    """Small sugar over the Situation constructor."""
    return Situation(name=name, trigger=trigger, description=description)


def value_is(ctx_type: str, value: object, subject: Optional[str] = None) -> Trigger:
    """Activates when a delivered context of ``ctx_type`` equals ``value``."""

    def trigger(ctx: Context, view: SituationView) -> bool:
        if ctx.ctx_type != ctx_type or ctx.value != value:
            return False
        return subject is None or ctx.subject == subject

    return trigger


def value_in(
    ctx_type: str, values: Sequence[object], subject: Optional[str] = None
) -> Trigger:
    """Activates when the delivered value is any of ``values``."""
    allowed = set(values)

    def trigger(ctx: Context, view: SituationView) -> bool:
        if ctx.ctx_type != ctx_type or ctx.value not in allowed:
            return False
        return subject is None or ctx.subject == subject

    return trigger


def entered(ctx_type: str, value: object, subject: Optional[str] = None) -> Trigger:
    """Activates on a *transition into* ``value``: the delivered context
    reports it and the previous delivered context of the same subject
    reported something else (or there is no previous one)."""

    def trigger(ctx: Context, view: SituationView) -> bool:
        if ctx.ctx_type != ctx_type or ctx.value != value:
            return False
        if subject is not None and ctx.subject != subject:
            return False
        previous = view.previous(ctx)
        return previous is None or previous.value != value

    return trigger


def left(ctx_type: str, value: object, subject: Optional[str] = None) -> Trigger:
    """Activates on a transition *out of* ``value``."""

    def trigger(ctx: Context, view: SituationView) -> bool:
        if ctx.ctx_type != ctx_type or ctx.value == value:
            return False
        if subject is not None and ctx.subject != subject:
            return False
        previous = view.previous(ctx)
        return previous is not None and previous.value == value

    return trigger


def position_within(
    ctx_type: str,
    box: Tuple[float, float, float, float],
    subject: Optional[str] = None,
) -> Trigger:
    """Activates when a coordinate context falls inside a bounding box."""
    x0, y0, x1, y1 = box

    def trigger(ctx: Context, view: SituationView) -> bool:
        if ctx.ctx_type != ctx_type:
            return False
        if subject is not None and ctx.subject != subject:
            return False
        try:
            x, y = ctx.position
        except TypeError:
            return False
        return x0 <= x <= x1 and y0 <= y <= y1

    return trigger


def co_located(
    ctx_type: str, subject_a: str, subject_b: str, max_age: float = 30.0
) -> Trigger:
    """Activates when the latest deliveries place two subjects at the
    same value (room/zone) within ``max_age`` seconds of each other."""

    def trigger(ctx: Context, view: SituationView) -> bool:
        if ctx.ctx_type != ctx_type or ctx.subject not in (subject_a, subject_b):
            return False
        other = subject_b if ctx.subject == subject_a else subject_a
        other_recent = view.recent(ctx_type=ctx_type, subject=other, limit=1)
        if not other_recent:
            return False
        peer = other_recent[-1]
        return (
            peer.value == ctx.value
            and abs(peer.timestamp - ctx.timestamp) <= max_age
        )

    return trigger
