"""Empirical measurement of the heuristic rules (Sections 3.4, 5.2).

The drop-bad strategy's reliability theorems rest on:

* **Rule 1** -- a set of expected contexts never forms an
  inconsistency (constraints do not produce false reports);
* **Rule 2** -- in every inconsistency, *every* corrupted context has
  a larger count value than *any* expected context;
* **Rule 2'** -- in every inconsistency, *at least one* corrupted
  context has a larger count value than any expected context.

The paper's Landmarc case study measures how often the rules hold in
practice (Rule 1: always; Rule 2': 91.7%).  This module instruments a
drop-bad run to take the same measurements: rule 2/2' are evaluated at
resolution time (when a context is used), on the count values the
strategy actually saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.context import Context
from ..core.drop_bad import DropBadStrategy
from ..core.inconsistency import Inconsistency, TrackedInconsistencies
from ..core.strategy import UseOutcome
from ..core.tiebreak import TieBreakPolicy

__all__ = [
    "RuleObservation",
    "RuleReport",
    "rule1_holds",
    "rule2_holds",
    "rule2_relaxed_holds",
    "InstrumentedDropBad",
]


def rule1_holds(inconsistency: Inconsistency) -> bool:
    """Rule 1 for one inconsistency: some participant is corrupted."""
    return any(c.corrupted for c in inconsistency.contexts)


def _partition_counts(
    inconsistency: Inconsistency, delta: TrackedInconsistencies
) -> Tuple[List[int], List[int]]:
    corrupted = [
        delta.count_of(c) for c in inconsistency.contexts if c.corrupted
    ]
    expected = [
        delta.count_of(c) for c in inconsistency.contexts if not c.corrupted
    ]
    return corrupted, expected


def rule2_holds(
    inconsistency: Inconsistency, delta: TrackedInconsistencies
) -> bool:
    """Rule 2: every corrupted count > every expected count.

    Vacuously true when the inconsistency has no corrupted or no
    expected participants.
    """
    corrupted, expected = _partition_counts(inconsistency, delta)
    if not corrupted or not expected:
        return True
    return min(corrupted) > max(expected)


def rule2_relaxed_holds(
    inconsistency: Inconsistency, delta: TrackedInconsistencies
) -> bool:
    """Rule 2': some corrupted count > every expected count."""
    corrupted, expected = _partition_counts(inconsistency, delta)
    if not corrupted or not expected:
        return True
    return max(corrupted) > max(expected)


@dataclass(frozen=True)
class RuleObservation:
    """Rule checks for one inconsistency at its resolution instant."""

    constraint: str
    context_ids: Tuple[str, ...]
    rule1: bool
    rule2: bool
    rule2_relaxed: bool


@dataclass
class RuleReport:
    """Aggregated rule satisfaction over a run."""

    observations: List[RuleObservation] = field(default_factory=list)

    def add(self, observation: RuleObservation) -> None:
        self.observations.append(observation)

    def _fraction(self, selector) -> float:
        if not self.observations:
            return 1.0
        return sum(1 for o in self.observations if selector(o)) / len(
            self.observations
        )

    @property
    def rule1_rate(self) -> float:
        return self._fraction(lambda o: o.rule1)

    @property
    def rule2_rate(self) -> float:
        return self._fraction(lambda o: o.rule2)

    @property
    def rule2_relaxed_rate(self) -> float:
        return self._fraction(lambda o: o.rule2_relaxed)

    def __len__(self) -> int:
        return len(self.observations)


class InstrumentedDropBad(DropBadStrategy):
    """Drop-bad that records rule satisfaction at each resolution.

    Whenever a used context forces resolution of its tracked
    inconsistencies, the rules are evaluated on the count values in
    effect at that moment -- exactly the information the strategy's
    discard decision uses.
    """

    name = "drop-bad"

    def __init__(
        self,
        tiebreak: Optional[TieBreakPolicy] = None,
        discard_on_tie: bool = True,
    ) -> None:
        super().__init__(tiebreak=tiebreak, discard_on_tie=discard_on_tie)
        self.report = RuleReport()

    def on_context_used(self, ctx: Context, *, now: float = 0.0) -> UseOutcome:
        from ..core.context import ContextState

        # Only count-based decisions are observed: when a *bad* context
        # is used, its conviction happened earlier (under the counts in
        # effect then, already recorded); the counts of its remaining
        # inconsistencies have degraded by the interim resolutions and
        # no longer inform any decision.
        if (
            self.lifecycle.known(ctx)
            and self.state_of(ctx) == ContextState.UNDECIDED
        ):
            for inconsistency in self.delta.involving(ctx):
                self.report.add(
                    RuleObservation(
                        constraint=inconsistency.constraint,
                        context_ids=tuple(
                            sorted(c.ctx_id for c in inconsistency.contexts)
                        ),
                        rule1=rule1_holds(inconsistency),
                        rule2=rule2_holds(inconsistency, self.delta),
                        rule2_relaxed=rule2_relaxed_holds(
                            inconsistency, self.delta
                        ),
                    )
                )
        return super().on_context_used(ctx, now=now)
