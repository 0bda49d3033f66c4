"""Abstract syntax for consistency constraints.

Consistency constraints are first-order formulas over the context
pool, in the style of Xu & Cheung's consistency checking work ([16],
[17]) which the paper's middleware uses for inconsistency detection.
A constraint quantifies variables over *context types* and relates the
bound contexts through boolean predicate functions::

    forall p1 in location, forall p2 in location :
        adjacent(p1, p2) implies velocity_ok(p1, p2)

The AST is deliberately small: two quantifiers, the usual boolean
connectives, and applications of named predicate functions to bound
variables and literals.  Formulas are immutable and hashable so
checkers can cache on them.

Construction can go through the classes directly, through the fluent
helpers at the bottom of this module, or through the textual DSL in
:mod:`repro.constraints.parser`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, Tuple, Union

__all__ = [
    "Formula",
    "Universal",
    "Existential",
    "And",
    "Or",
    "Not",
    "Implies",
    "Predicate",
    "Var",
    "Literal",
    "Term",
    "forall",
    "exists",
    "pred",
    "Constraint",
]


@dataclass(frozen=True)
class Var:
    """A variable bound by a quantifier, referencing a context."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal:
    """A constant argument to a predicate (number, string, tuple)."""

    value: object

    def __repr__(self) -> str:
        return repr(self.value)


Term = Union[Var, Literal]


class Formula:
    """Base class for constraint formulas."""

    def variables(self) -> FrozenSet[str]:
        """Names of variables occurring (bound or free) in the formula."""
        raise NotImplementedError

    def free_variables(self) -> FrozenSet[str]:
        """Names of variables not bound by an enclosing quantifier."""
        raise NotImplementedError

    def quantified_types(self) -> FrozenSet[str]:
        """All context types any quantifier in the formula ranges over."""
        raise NotImplementedError

    def walk(self) -> Iterator["Formula"]:
        """Depth-first pre-order traversal of the formula tree."""
        yield self

    # Connective sugar so formulas compose readably in Python:
    def __and__(self, other: "Formula") -> "And":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)

    def implies(self, other: "Formula") -> "Implies":
        return Implies(self, other)


@dataclass(frozen=True)
class Predicate(Formula):
    """Application of a named boolean function to terms.

    The function is looked up in the checker's
    :class:`~repro.constraints.builtins.FunctionRegistry` at evaluation
    time.
    """

    func: str
    args: Tuple[Term, ...]

    def __post_init__(self) -> None:
        for arg in self.args:
            if not isinstance(arg, (Var, Literal)):
                raise TypeError(
                    f"predicate {self.func!r} argument {arg!r} is neither "
                    f"Var nor Literal"
                )

    def variables(self) -> FrozenSet[str]:
        return frozenset(a.name for a in self.args if isinstance(a, Var))

    def free_variables(self) -> FrozenSet[str]:
        return self.variables()

    def quantified_types(self) -> FrozenSet[str]:
        return frozenset()

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.func}({inner})"


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula

    def variables(self) -> FrozenSet[str]:
        return self.operand.variables()

    def free_variables(self) -> FrozenSet[str]:
        return self.operand.free_variables()

    def quantified_types(self) -> FrozenSet[str]:
        return self.operand.quantified_types()

    def walk(self) -> Iterator[Formula]:
        yield self
        yield from self.operand.walk()

    def __repr__(self) -> str:
        return f"not ({self.operand!r})"


class _Binary(Formula):
    """Shared plumbing for binary connectives."""

    left: Formula
    right: Formula
    _symbol = "?"

    def variables(self) -> FrozenSet[str]:
        return self.left.variables() | self.right.variables()

    def free_variables(self) -> FrozenSet[str]:
        return self.left.free_variables() | self.right.free_variables()

    def quantified_types(self) -> FrozenSet[str]:
        return self.left.quantified_types() | self.right.quantified_types()

    def walk(self) -> Iterator[Formula]:
        yield self
        yield from self.left.walk()
        yield from self.right.walk()

    def __repr__(self) -> str:
        return f"({self.left!r}) {self._symbol} ({self.right!r})"


@dataclass(frozen=True, repr=False)
class And(_Binary):
    left: Formula
    right: Formula
    _symbol = "and"


@dataclass(frozen=True, repr=False)
class Or(_Binary):
    left: Formula
    right: Formula
    _symbol = "or"


@dataclass(frozen=True, repr=False)
class Implies(_Binary):
    left: Formula
    right: Formula
    _symbol = "implies"


class _Quantifier(Formula):
    """Shared plumbing for quantified formulas."""

    var: str
    ctx_type: str
    body: Formula

    def variables(self) -> FrozenSet[str]:
        return self.body.variables() | {self.var}

    def free_variables(self) -> FrozenSet[str]:
        return self.body.free_variables() - {self.var}

    def quantified_types(self) -> FrozenSet[str]:
        return self.body.quantified_types() | {self.ctx_type}

    def walk(self) -> Iterator[Formula]:
        yield self
        yield from self.body.walk()


@dataclass(frozen=True)
class Universal(_Quantifier):
    """``forall var in ctx_type : body``."""

    var: str
    ctx_type: str
    body: Formula

    def __repr__(self) -> str:
        return f"forall {self.var} in {self.ctx_type} : ({self.body!r})"


@dataclass(frozen=True)
class Existential(_Quantifier):
    """``exists var in ctx_type : body``."""

    var: str
    ctx_type: str
    body: Formula

    def __repr__(self) -> str:
        return f"exists {self.var} in {self.ctx_type} : ({self.body!r})"


# -- fluent construction helpers ----------------------------------------------


def forall(var: str, ctx_type: str, body: Formula) -> Universal:
    """Build a universal quantification (fluent helper)."""
    return Universal(var, ctx_type, body)


def exists(var: str, ctx_type: str, body: Formula) -> Existential:
    """Build an existential quantification (fluent helper)."""
    return Existential(var, ctx_type, body)


def pred(func: str, *args: Union[str, Term, object]) -> Predicate:
    """Build a predicate application.

    Bare strings are treated as variable names; anything else that is
    not already a :class:`Var`/:class:`Literal` becomes a literal::

        pred("velocity_ok", "p1", "p2", 1.5)
    """
    terms = []
    for arg in args:
        if isinstance(arg, (Var, Literal)):
            terms.append(arg)
        elif isinstance(arg, str):
            terms.append(Var(arg))
        else:
            terms.append(Literal(arg))
    return Predicate(func, tuple(terms))


@dataclass(frozen=True)
class Constraint:
    """A named consistency constraint.

    Attributes
    ----------
    name:
        Identifier used in inconsistency reports.
    formula:
        The closed first-order formula that must hold over the pool.
    description:
        Human-readable intent, for documentation and reports.
    """

    name: str
    formula: Formula
    description: str = ""

    def __post_init__(self) -> None:
        free = self.formula.free_variables()
        if free:
            raise ValueError(
                f"constraint {self.name!r} has free variables: {sorted(free)}"
            )

    def relevant_types(self) -> FrozenSet[str]:
        """Context types this constraint quantifies over."""
        return self.formula.quantified_types()

    def __repr__(self) -> str:
        return f"Constraint({self.name!r})"
