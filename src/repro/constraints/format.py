"""Formatting formulas back to constraint-DSL text.

``format_formula(parse_formula(text))`` produces text that re-parses
to an equal AST (a hypothesis round-trip test asserts this), which
makes constraints loggable, diffable and storable alongside traces.
"""

from __future__ import annotations

from .ast import (
    And,
    Constraint,
    Existential,
    Formula,
    Implies,
    Not,
    Or,
    Predicate,
    Term,
    Universal,
    Var,
)

__all__ = ["format_formula", "format_constraint", "format_term"]

#: Binding strength, loosest first.  Quantifier bodies extend to the
#: right, so a quantifier is the loosest construct.
_PRECEDENCE = {
    Universal: 0,
    Existential: 0,
    Implies: 1,
    Or: 2,
    And: 3,
    Not: 4,
    Predicate: 5,
}


def format_term(term: Term) -> str:
    """One predicate argument as DSL text."""
    if isinstance(term, Var):
        return term.name
    value = term.value
    if isinstance(value, str):
        if "'" in value:
            return f'"{value}"'
        return f"'{value}'"
    if isinstance(value, bool):
        # No boolean literals in the DSL; ints round-trip, booleans
        # would come back as ints.  Be explicit.
        raise ValueError("boolean literals are not expressible in the DSL")
    if isinstance(value, (int, float)):
        return repr(value)
    raise ValueError(f"literal {value!r} is not expressible in the DSL")


def _wrap(child: Formula, parent_level: int) -> str:
    text = format_formula(child)
    if _PRECEDENCE[type(child)] < parent_level:
        return f"({text})"
    return text


def format_formula(formula: Formula) -> str:
    """The formula as DSL text (re-parses to an equal AST)."""
    if isinstance(formula, Predicate):
        args = ", ".join(format_term(arg) for arg in formula.args)
        return f"{formula.func}({args})"
    if isinstance(formula, Not):
        return f"not {_wrap(formula.operand, _PRECEDENCE[Not] + 1)}"
    if isinstance(formula, And):
        return (
            f"{_wrap(formula.left, _PRECEDENCE[And])} and "
            f"{_wrap(formula.right, _PRECEDENCE[And] + 1)}"
        )
    if isinstance(formula, Or):
        return (
            f"{_wrap(formula.left, _PRECEDENCE[Or])} or "
            f"{_wrap(formula.right, _PRECEDENCE[Or] + 1)}"
        )
    if isinstance(formula, Implies):
        # Right-associative: the consequent may be looser (quantifier
        # or implication), the antecedent must be strictly tighter.
        return (
            f"{_wrap(formula.left, _PRECEDENCE[Implies] + 1)} implies "
            f"{_wrap(formula.right, _PRECEDENCE[Implies])}"
        )
    if isinstance(formula, Universal):
        return (
            f"forall {formula.var} in {formula.ctx_type} : "
            f"{format_formula(formula.body)}"
        )
    if isinstance(formula, Existential):
        return (
            f"exists {formula.var} in {formula.ctx_type} : "
            f"{format_formula(formula.body)}"
        )
    raise TypeError(f"cannot format formula node {formula!r}")


def format_constraint(constraint: Constraint) -> str:
    """One-line ``name : formula-text`` rendering of a constraint."""
    return f"{constraint.name}: {format_formula(constraint.formula)}"
