"""Tie-breaking policies for the drop-bad strategy.

Section 5.1 of the paper identifies the *tie case* -- several contexts
carrying the same maximal count value inside one inconsistency -- as
the main room for improvement of drop-bad, and proposes examining
"discarding which particular context among them would cause less
impact on context-aware applications" as future work.

This module makes the choice pluggable.  A policy receives the tied
candidates (all carrying the maximal count value) plus the tracked
inconsistency set, and returns the single context to treat as the
"largest" one.  The experiment in
``benchmarks/test_bench_ablation_tiebreak.py`` compares the policies.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Optional, Sequence, Type

from .context import Context
from .inconsistency import TrackedInconsistencies

__all__ = [
    "TieBreakPolicy",
    "OldestFirst",
    "NewestFirst",
    "RandomChoice",
    "LeastGlobalCount",
    "MostGlobalCount",
    "make_tiebreak",
]


class TieBreakPolicy(ABC):
    """Chooses among contexts tied at the maximal count value."""

    name: str = "abstract"

    @abstractmethod
    def choose(
        self, candidates: Sequence[Context], delta: TrackedInconsistencies
    ) -> Context:
        """Pick the context to mark bad / discard among ``candidates``.

        ``candidates`` is non-empty and all members carry the same
        (maximal) count value within the inconsistency being resolved.
        """

    def _require(self, candidates: Sequence[Context]) -> None:
        if not candidates:
            raise ValueError("tie-break invoked with no candidates")


class OldestFirst(TieBreakPolicy):
    """Prefer discarding the oldest tied context.

    Rationale: old contexts are closer to expiry and their loss impacts
    applications for the shortest remaining time.
    """

    name = "oldest"

    def choose(
        self, candidates: Sequence[Context], delta: TrackedInconsistencies
    ) -> Context:
        self._require(candidates)
        return min(candidates, key=lambda c: (c.timestamp, c.ctx_id))


class NewestFirst(TieBreakPolicy):
    """Prefer discarding the newest tied context.

    This mirrors the drop-latest intuition that the freshest context is
    the one that "caused" the inconsistency.
    """

    name = "newest"

    def choose(
        self, candidates: Sequence[Context], delta: TrackedInconsistencies
    ) -> Context:
        self._require(candidates)
        return max(candidates, key=lambda c: (c.timestamp, c.ctx_id))


class RandomChoice(TieBreakPolicy):
    """Uniform random choice, with an explicit seeded generator."""

    name = "random"

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng or random.Random(0)

    def choose(
        self, candidates: Sequence[Context], delta: TrackedInconsistencies
    ) -> Context:
        self._require(candidates)
        ordered = sorted(candidates, key=lambda c: c.ctx_id)
        return self._rng.choice(ordered)


class LeastGlobalCount(TieBreakPolicy):
    """Prefer the candidate with the *smallest* count over all of Δ.

    Within the inconsistency the counts are tied by construction, but a
    candidate may participate in fewer inconsistencies globally than
    another; keeping the globally busier context alive lets later
    resolutions gather more evidence about it.
    """

    name = "least-global"

    def choose(
        self, candidates: Sequence[Context], delta: TrackedInconsistencies
    ) -> Context:
        self._require(candidates)
        return min(candidates, key=lambda c: (delta.count_of(c), c.ctx_id))


class MostGlobalCount(TieBreakPolicy):
    """Prefer the candidate most entangled with the rest of Δ.

    Discarding it resolves the most tracked inconsistencies at once --
    the "as few discarded contexts as possible" objective of
    Section 5.1 taken greedily.
    """

    name = "most-global"

    def choose(
        self, candidates: Sequence[Context], delta: TrackedInconsistencies
    ) -> Context:
        self._require(candidates)
        return max(candidates, key=lambda c: (delta.count_of(c), c.ctx_id))


_POLICIES: Dict[str, Type[TieBreakPolicy]] = {
    OldestFirst.name: OldestFirst,
    NewestFirst.name: NewestFirst,
    RandomChoice.name: RandomChoice,
    LeastGlobalCount.name: LeastGlobalCount,
    MostGlobalCount.name: MostGlobalCount,
}


def make_tiebreak(name: str, rng: Optional[random.Random] = None) -> TieBreakPolicy:
    """Instantiate a tie-break policy by name.

    ``rng`` is used only by the stochastic policies.
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise ValueError(f"unknown tie-break policy {name!r}; known: {known}")
    if cls is RandomChoice:
        return RandomChoice(rng)
    return cls()
