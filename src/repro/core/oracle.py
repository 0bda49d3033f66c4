"""The artificial optimal resolution strategy (OPT-R, Section 4.1).

OPT-R has a specially designed oracle that discards *precisely* each
incorrect (corrupted) context, so it serves as the theoretical upper
bound of good strategies.  Its metric values define the 100% baseline
that the other strategies' context-use and situation-activation rates
are normalized against.

The oracle reads the ground-truth ``corrupted`` flag that the workload
generator stamps on each context -- the one field practical strategies
are forbidden to touch.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .context import Context
from .inconsistency import Inconsistency
from .strategy import AddOutcome, ImmediateStrategy, register_strategy

__all__ = ["OptimalStrategy"]


@register_strategy("opt-r")
class OptimalStrategy(ImmediateStrategy):
    """Discard exactly the corrupted contexts, as soon as they arrive.

    Because the oracle acts on ground truth rather than on detected
    inconsistencies, corrupted contexts are removed on arrival whether
    or not they have yet violated a constraint; expected contexts are
    never removed.  Under Heuristic Rule 1 (no false inconsistency
    reports) this resolves every inconsistency.
    """

    name = "opt-r"

    def on_context_added(
        self,
        ctx: Context,
        new_inconsistencies: Sequence[Inconsistency],
        *,
        relevant: bool = True,
        now: float = 0.0,
    ) -> AddOutcome:
        self.lifecycle.register(ctx, now)
        self.inconsistencies_seen += len(new_inconsistencies)
        if ctx.corrupted:
            self._discard(ctx, now)
            return AddOutcome(discarded=(ctx,))
        self._admit(ctx, now)
        return AddOutcome(admitted=(ctx,))

    def choose_victims(
        self, ctx: Context, inconsistency: Inconsistency
    ) -> Iterable[Context]:
        """Corrupted members of the inconsistency.

        Unused by :meth:`on_context_added` above (the oracle acts on
        arrival), but provided so the class still honours the
        :class:`ImmediateStrategy` contract if invoked generically.
        """
        return tuple(
            c
            for c in sorted(inconsistency.contexts, key=lambda c: c.ctx_id)
            if c.corrupted
        )
