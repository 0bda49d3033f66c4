"""Tests for DSL formatting, including a hypothesis round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.ast import (
    And,
    Existential,
    Implies,
    Literal,
    Not,
    Or,
    Predicate,
    Universal,
    Var,
)
from repro.constraints.format import format_constraint, format_formula, format_term
from repro.constraints.parser import parse_constraint, parse_formula


class TestFormatTerm:
    def test_var(self):
        assert format_term(Var("x")) == "x"

    def test_numbers(self):
        assert format_term(Literal(3)) == "3"
        assert format_term(Literal(-2)) == "-2"
        assert format_term(Literal(1.5)) == "1.5"

    def test_strings(self):
        assert format_term(Literal("dock")) == "'dock'"
        assert format_term(Literal("it's")) == '"it\'s"'

    def test_unexpressible(self):
        with pytest.raises(ValueError):
            format_term(Literal(True))
        with pytest.raises(ValueError):
            format_term(Literal((1, 2)))


class TestFormatFormula:
    @pytest.mark.parametrize(
        "text",
        [
            "true()",
            "before(a, b)",
            "not before(a, b)",
            "a() and b() or c()",
            "a() or b() and c()",
            "a() and (b() or c())",
            "not (a() and b())",
            "a() implies b() implies c()",
            "forall x in t : p(x)",
            "forall x in t, forall y in t : p(x, y) implies q(x)",
            "forall x in t : p(x) implies (exists y in u : r(x, y))",
            "velocity_le(l1, l2, 1.5)",
        ],
    )
    def test_roundtrip_examples(self, text):
        ast = parse_formula(text)
        assert parse_formula(format_formula(ast)) == ast

    def test_app_constraints_roundtrip(self):
        from repro.apps.call_forwarding import CallForwardingApp
        from repro.apps.rfid_anomalies import RFIDAnomaliesApp

        for app in (CallForwardingApp(), RFIDAnomaliesApp()):
            for constraint in app.build_constraints():
                rendered = format_formula(constraint.formula)
                assert parse_formula(rendered) == constraint.formula

    def test_format_constraint_includes_name(self):
        constraint = parse_constraint("c1", "forall x in t : p(x)")
        assert format_constraint(constraint).startswith("c1: forall x in t")


# -- hypothesis round-trip over random formulas ------------------------------

_names = st.sampled_from(["p", "q", "rel", "velocity_le"])
_vars = st.sampled_from(["x", "y", "z"])
_types = st.sampled_from(["location", "badge", "rfid_read"])
_literals = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(
        min_value=-1e6,
        max_value=1e6,
        allow_nan=False,
        allow_infinity=False,
    ),
    st.text(alphabet="abcdef-_ ", max_size=8).filter(lambda s: "'" not in s),
)
_terms = st.one_of(_vars.map(Var), _literals.map(Literal))
_predicates = st.builds(
    Predicate, _names, st.lists(_terms, max_size=3).map(tuple)
)


def _formulas(children):
    return st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Implies, children, children),
        st.builds(Universal, _vars, _types, children),
        st.builds(Existential, _vars, _types, children),
    )


formula_strategy = st.recursive(_predicates, _formulas, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(formula_strategy)
def test_format_parse_roundtrip(formula):
    rendered = format_formula(formula)
    assert parse_formula(rendered) == formula
