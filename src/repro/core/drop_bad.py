"""The drop-bad resolution strategy (D-BAD, Section 3 -- the paper's
primary contribution).

Unlike the immediate strategies, drop-bad tolerates a detected
inconsistency until one of its contexts is actually *used* by an
application.  All unresolved inconsistencies are tracked in the set Δ,
and every context carries a *count value*: the number of tracked
inconsistencies it participates in.  The guiding observation is that

    a context that participates more frequently in inconsistencies is
    likelier to be incorrect.

Resolution process (Figure 7):

Part 1 -- when a new context ``d`` is recognized:
    if ``d`` is irrelevant to every consistency constraint, it is set
    ``consistent`` and made available immediately; otherwise it is
    moved to a buffer and any inconsistencies it causes join Δ.

Part 2 -- when a buffered context ``d`` is used:
    * if ``d`` is ``bad``, or there is a tracked inconsistency in
      which ``d`` carries the largest count value, then ``d`` is set
      ``inconsistent`` and discarded;
    * otherwise ``d`` is set ``consistent`` and delivered, and for
      every inconsistency ``d`` participated in, the involved context
      with the largest count value is marked ``bad`` (it will be
      discarded when *it* is used -- deferring the discard lets the
      middleware gather more count evidence first, Section 3.3).
    Either way the inconsistencies involving ``d`` are resolved and
    removed from Δ.

Reliability (Section 3.4): under Heuristic Rules 1 + 2 (Theorem 1) or
1 + 2' (Theorem 2), every context this strategy discards is indeed
corrupted.  Property-based tests in
``tests/core/test_theorems.py`` machine-check both theorems.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .context import Context, ContextState
from .inconsistency import Inconsistency
from .strategy import AddOutcome, ResolutionStrategy, UseOutcome, register_strategy
from .tiebreak import OldestFirst, TieBreakPolicy

__all__ = ["DropBadStrategy"]


@register_strategy("drop-bad")
class DropBadStrategy(ResolutionStrategy):
    """Deferred, count-value-based inconsistency resolution.

    Parameters
    ----------
    tiebreak:
        Policy used to pick the context to mark ``bad`` when several
        involved contexts tie at the maximal count value (Section 5.1's
        open tie case).  Defaults to :class:`OldestFirst`.
    discard_on_tie:
        When the *used* context ties (rather than strictly leads) at
        the maximal count value of an inconsistency, Figure 7 treats it
        as "having the largest count value" and discards it; set this
        to ``False`` for the conservative variant that only discards a
        strict maximum (compared in the tie-break ablation).
    """

    name = "drop-bad"

    #: Used contexts are removed from checking (Section 3.2); only the
    #: buffer participates.
    checking_states = frozenset({ContextState.UNDECIDED, ContextState.BAD})

    def __init__(
        self,
        tiebreak: Optional[TieBreakPolicy] = None,
        discard_on_tie: bool = True,
    ) -> None:
        super().__init__()
        self._tiebreak = tiebreak or OldestFirst()
        self._discard_on_tie = discard_on_tie

    # -- part 1: context addition change -------------------------------------

    def on_context_added(
        self,
        ctx: Context,
        new_inconsistencies: Sequence[Inconsistency],
        *,
        relevant: bool = True,
        now: float = 0.0,
    ) -> AddOutcome:
        self.lifecycle.register(ctx, now)
        if not relevant:
            # Irrelevant to any consistency constraint: no inconsistency
            # can ever involve it, so make it available immediately.
            self._admit(ctx, now)
            return AddOutcome(admitted=(ctx,))
        added = self.delta.add_all(new_inconsistencies)
        self.inconsistencies_seen += added
        return AddOutcome(buffered=True)

    # -- part 2: context deletion (use) change --------------------------------

    def on_context_used(self, ctx: Context, *, now: float = 0.0) -> UseOutcome:
        if not self.lifecycle.known(ctx):
            # A context the strategy never saw (e.g. injected directly
            # into the pool): treat like an irrelevant admission.
            self.lifecycle.register(ctx, now)
            self._admit(ctx, now)
            return UseOutcome(delivered=True)

        state = self.state_of(ctx)
        if state == ContextState.CONSISTENT:
            # Already decided (irrelevant context, or re-used).
            return UseOutcome(delivered=True)
        if state == ContextState.INCONSISTENT:
            return UseOutcome(delivered=False)

        if state == ContextState.BAD:
            # Deferred discard finally happens.
            self._discard(ctx, now)
            self.delta.resolve_involving(ctx)
            return UseOutcome(delivered=False, discarded=(ctx,))

        # state == UNDECIDED
        involved = self.delta.involving(ctx)
        if self._should_discard(ctx, involved):
            self._discard(ctx, now)
            self.delta.resolve_involving(ctx)
            return UseOutcome(delivered=False, discarded=(ctx,))

        # ctx is judged consistent; blame the largest-count context of
        # each of its inconsistencies instead.
        self._admit(ctx, now)
        newly_bad = self._mark_culprits_bad(ctx, involved, now)
        self.delta.resolve_involving(ctx)
        return UseOutcome(delivered=True, newly_bad=tuple(newly_bad))

    # -- internals ------------------------------------------------------------

    def _should_discard(
        self, ctx: Context, involved: Sequence[Inconsistency]
    ) -> bool:
        """Figure 7's discard test for an undecided used context."""
        for inconsistency in involved:
            maxima = self.delta.max_count_contexts(inconsistency)
            if ctx not in maxima:
                continue
            if len(maxima) == 1 or self._discard_on_tie:
                return True
        return False

    def _mark_culprits_bad(
        self, ctx: Context, involved: Sequence[Inconsistency], now: float
    ) -> List[Context]:
        """Mark the largest-count context of each inconsistency bad.

        ``ctx`` has just been judged consistent, so it is not a strict
        maximum in any of its inconsistencies; the chosen culprit is
        always a different context.
        """
        newly_bad: List[Context] = []
        for inconsistency in involved:
            all_maxima = self.delta.max_count_contexts(inconsistency)
            if ctx in all_maxima:
                # Only reachable with discard_on_tie=False: ctx tied at
                # the maximum and survived.  The tied peers are no more
                # suspicious than ctx itself, so nobody is blamed.
                continue
            maxima = all_maxima
            culprit = (
                maxima[0]
                if len(maxima) == 1
                else self._tiebreak.choose(maxima, self.delta)
            )
            if self.state_of(culprit) == ContextState.UNDECIDED:
                self.lifecycle.set_state(culprit, ContextState.BAD, now)
                newly_bad.append(culprit)
        return newly_bad

    def reset(self) -> None:
        super().reset()
