"""Links: explanations of constraint satisfaction / violation.

Following the link-generation semantics of consistency checking for
pervasive contexts ([16], [17], after Nentwich et al.'s xlinkit [11]),
evaluating a constraint does not merely return true/false: it returns
*links*, each tying together the variable bindings (contexts) that
jointly satisfy or violate the formula.

A violation link of a constraint is exactly what the paper calls a
context inconsistency: the set of contexts that together breach the
constraint.  E.g. the velocity constraint over Figure 1's scenario A
yields the violation links {d2, d3} and {d3, d4}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Tuple

from ..core.context import Context

__all__ = ["Link", "LinkSet", "cross_join", "EMPTY_LINK"]


@dataclass(frozen=True)
class Link:
    """An immutable set of variable-to-context bindings.

    Two links with the same bindings are equal regardless of the order
    they were built in.
    """

    bindings: FrozenSet[Tuple[str, Context]]

    def __post_init__(self) -> None:
        if not isinstance(self.bindings, frozenset):
            object.__setattr__(self, "bindings", frozenset(self.bindings))

    @classmethod
    def of(cls, **bindings: Context) -> "Link":
        """Build a link from keyword bindings: ``Link.of(p1=d2, p2=d3)``."""
        return cls(frozenset(bindings.items()))

    def merge(self, other: "Link") -> "Link":
        """Union of two links' bindings."""
        return Link(self.bindings | other.bindings)

    def extend(self, var: str, ctx: Context) -> "Link":
        """This link plus one extra binding."""
        return Link(self.bindings | {(var, ctx)})

    def contexts(self) -> FrozenSet[Context]:
        """The distinct contexts bound anywhere in this link."""
        return frozenset(ctx for _, ctx in self.bindings)

    def involves(self, ctx: Context) -> bool:
        return any(c == ctx for _, c in self.bindings)

    def as_dict(self) -> Dict[str, Context]:
        return dict(self.bindings)

    def __len__(self) -> int:
        return len(self.bindings)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{var}={ctx.ctx_id}" for var, ctx in sorted(self.bindings, key=str)
        )
        return f"Link({inner})"


#: The trivial link carrying no bindings.
EMPTY_LINK = Link(frozenset())

#: A set of links.
LinkSet = FrozenSet[Link]


def cross_join(left: Iterable[Link], right: Iterable[Link]) -> LinkSet:
    """Pairwise merge of two link sets (the ⊗ of link semantics).

    Used when *both* operands of a connective contribute to the result:
    e.g. the satisfaction links of ``f1 and f2`` are every satisfaction
    link of ``f1`` merged with every satisfaction link of ``f2``.
    """
    left = tuple(left)
    right = tuple(right)
    if not left:
        return frozenset(right)
    if not right:
        return frozenset(left)
    return frozenset(l.merge(r) for l in left for r in right)
