"""Context inconsistencies and the tracked-inconsistency set Δ.

An *inconsistency* is detected when a set of contexts violates a
consistency constraint.  The paper models the set of tracked (detected
but not yet resolved) inconsistencies as Δ ⊆ P(P(C)) together with a
``count`` function Δ → (C → N) that tells, for each context, how many
tracked inconsistencies it participates in (Section 3.2, Figure 6).

:class:`TrackedInconsistencies` is the mutable Δ maintained by the
drop-bad strategy; it supports the two context-change events:

* *context addition change* -- newly detected inconsistencies are added;
* *context deletion change* -- inconsistencies involving a context that
  is being used by an application are resolved and removed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from .context import Context

__all__ = ["Inconsistency", "TrackedInconsistencies"]


@dataclass(frozen=True)
class Inconsistency:
    """A violation of a consistency constraint by a set of contexts.

    Parameters
    ----------
    contexts:
        The contexts participating in the violation.  For the location
        velocity constraint of the running example these are pairs, but
        the model is generic: any non-empty finite set (Section 3.4).
    constraint:
        Name of the violated consistency constraint.
    detected_at:
        Simulation time of detection.
    """

    contexts: FrozenSet[Context]
    constraint: str = "unnamed"
    detected_at: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.contexts, frozenset):
            object.__setattr__(self, "contexts", frozenset(self.contexts))
        if not self.contexts:
            raise ValueError("an inconsistency must involve at least one context")

    def involves(self, ctx: Context) -> bool:
        """Whether ``ctx`` participates in this inconsistency."""
        return ctx in self.contexts

    @property
    def key(self) -> Tuple[str, FrozenSet[str]]:
        """A stable identity: constraint name plus involved context ids."""
        return (self.constraint, frozenset(c.ctx_id for c in self.contexts))

    def latest_context(self) -> Context:
        """The most recently produced context in this inconsistency.

        Ties on timestamp are broken by context id so the result is
        deterministic; this is what the drop-latest strategy discards.
        """
        return max(self.contexts, key=lambda c: (c.timestamp, c.ctx_id))

    def __len__(self) -> int:
        return len(self.contexts)

    def __iter__(self) -> Iterator[Context]:
        return iter(self.contexts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ids = ", ".join(sorted(c.ctx_id for c in self.contexts))
        return f"Inconsistency[{self.constraint}]({{{ids}}})"


class TrackedInconsistencies:
    """The set Δ of detected-but-unresolved context inconsistencies.

    Maintains an incrementally updated count index so that
    :meth:`count_of` and :meth:`counts` are O(1)/O(n) rather than
    rescanning Δ (the paper's Figure 6 notes the count value
    information is updated whenever Δ changes).
    """

    def __init__(self) -> None:
        self._inconsistencies: Dict[Tuple[str, FrozenSet[str]], Inconsistency] = {}
        self._counts: Counter = Counter()
        self._by_context: Dict[Context, Set[Tuple[str, FrozenSet[str]]]] = {}

    # -- mutation ------------------------------------------------------------

    def add(self, inconsistency: Inconsistency) -> bool:
        """Track a newly detected inconsistency.

        Returns ``True`` if it was new, ``False`` if an inconsistency
        with the same constraint and participant set was already
        tracked (re-detections are idempotent).
        """
        key = inconsistency.key
        if key in self._inconsistencies:
            return False
        self._inconsistencies[key] = inconsistency
        for ctx in inconsistency.contexts:
            self._counts[ctx] += 1
            self._by_context.setdefault(ctx, set()).add(key)
        return True

    def add_all(self, inconsistencies: Iterable[Inconsistency]) -> int:
        """Track several inconsistencies; returns how many were new."""
        return sum(1 for inc in inconsistencies if self.add(inc))

    def remove(self, inconsistency: Inconsistency) -> bool:
        """Stop tracking a resolved inconsistency.

        Returns ``True`` if it was tracked.
        """
        key = inconsistency.key
        stored = self._inconsistencies.pop(key, None)
        if stored is None:
            return False
        for ctx in stored.contexts:
            self._counts[ctx] -= 1
            if self._counts[ctx] <= 0:
                del self._counts[ctx]
            involved = self._by_context.get(ctx)
            if involved is not None:
                involved.discard(key)
                if not involved:
                    del self._by_context[ctx]
        return True

    def resolve_involving(self, ctx: Context) -> List[Inconsistency]:
        """Remove and return every tracked inconsistency involving ``ctx``.

        This implements the Δ update for a *context deletion change*:
        once the decision about ``ctx`` has been made, all of its
        inconsistencies are resolved and need no further tracking.
        """
        resolved = list(self.involving(ctx))
        for inc in resolved:
            self.remove(inc)
        return resolved

    def clear(self) -> None:
        """Drop all tracked inconsistencies."""
        self._inconsistencies.clear()
        self._counts.clear()
        self._by_context.clear()

    # -- queries ---------------------------------------------------------

    def involving(self, ctx: Context) -> List[Inconsistency]:
        """All tracked inconsistencies ``ctx`` participates in."""
        keys = self._by_context.get(ctx, ())
        return [self._inconsistencies[k] for k in sorted(keys, key=str)]

    def count_of(self, ctx: Context) -> int:
        """The count value of ``ctx``: tracked inconsistencies it is in."""
        return self._counts.get(ctx, 0)

    def counts(self) -> Dict[Context, int]:
        """The full count function over contexts with non-zero counts.

        This is the paper's ``count(Δ)`` (Section 3.2): e.g. for
        Δ = {{d3, d4}, {d3, d5}} it returns {d3: 2, d4: 1, d5: 1}.
        """
        return dict(self._counts)

    def max_count_contexts(self, inconsistency: Inconsistency) -> List[Context]:
        """Contexts of ``inconsistency`` carrying the largest count value.

        Counts are taken over the whole of Δ, not only over this
        inconsistency, matching the paper's use of global count values.
        The result is sorted by context id for determinism.
        """
        best = max(self.count_of(c) for c in inconsistency.contexts)
        return sorted(
            (c for c in inconsistency.contexts if self.count_of(c) == best),
            key=lambda c: c.ctx_id,
        )

    def has_largest_count(self, ctx: Context, inconsistency: Inconsistency) -> bool:
        """Whether ``ctx`` carries the largest count value in ``inconsistency``.

        "Largest" means no other involved context has a strictly larger
        count value (ties count as largest; see Section 5.1's tie-case
        discussion -- tie handling is the pluggable policy in
        :mod:`repro.core.tiebreak`).
        """
        if not inconsistency.involves(ctx):
            return False
        mine = self.count_of(ctx)
        return all(self.count_of(other) <= mine for other in inconsistency.contexts)

    def contexts(self) -> Set[Context]:
        """All contexts involved in at least one tracked inconsistency."""
        return set(self._by_context)

    def __len__(self) -> int:
        return len(self._inconsistencies)

    def __iter__(self) -> Iterator[Inconsistency]:
        return iter(list(self._inconsistencies.values()))

    def __contains__(self, inconsistency: object) -> bool:
        if not isinstance(inconsistency, Inconsistency):
            return False
        return inconsistency.key in self._inconsistencies

    def snapshot(self) -> FrozenSet[FrozenSet[Context]]:
        """Δ as a frozen set-of-sets, mirroring the paper's notation."""
        return frozenset(inc.contexts for inc in self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrackedInconsistencies({len(self)} tracked)"
