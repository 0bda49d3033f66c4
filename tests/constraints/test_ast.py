"""Unit tests for the constraint AST."""

import pytest

from repro.constraints.ast import (
    And,
    Constraint,
    Implies,
    Literal,
    Not,
    Or,
    Predicate,
    Var,
    exists,
    forall,
    pred,
)


class TestPred:
    def test_strings_become_vars_and_values_literals(self):
        p = pred("velocity_le", "l1", "l2", 1.5)
        assert p.func == "velocity_le"
        assert p.args == (Var("l1"), Var("l2"), Literal(1.5))

    def test_existing_terms_pass_through(self):
        p = pred("f", Var("x"), Literal("dock"))
        assert p.args == (Var("x"), Literal("dock"))

    def test_invalid_args_rejected(self):
        with pytest.raises(TypeError):
            Predicate("f", (object(),))


class TestVariables:
    def test_predicate_variables(self):
        p = pred("f", "a", "b", 3)
        assert p.variables() == {"a", "b"}
        assert p.free_variables() == {"a", "b"}

    def test_quantifier_binds(self):
        f = forall("a", "location", pred("f", "a", "b"))
        assert f.free_variables() == {"b"}
        assert f.variables() == {"a", "b"}

    def test_nested_quantifiers_close_formula(self):
        f = forall("a", "location", forall("b", "location", pred("f", "a", "b")))
        assert f.free_variables() == set()

    def test_connectives_union_variables(self):
        f = And(pred("f", "a"), Or(pred("g", "b"), Not(pred("h", "c"))))
        assert f.free_variables() == {"a", "b", "c"}


class TestQuantifiedTypes:
    def test_collects_all_domain_types(self):
        f = forall(
            "b",
            "badge",
            exists("l", "location", pred("agree", "b", "l")),
        )
        assert f.quantified_types() == {"badge", "location"}

    def test_predicate_has_none(self):
        assert pred("f", "a").quantified_types() == set()


class TestSugar:
    def test_operators(self):
        a, b = pred("f", "x"), pred("g", "x")
        assert isinstance(a & b, And)
        assert isinstance(a | b, Or)
        assert isinstance(~a, Not)
        assert isinstance(a.implies(b), Implies)

    def test_walk_visits_every_node(self):
        f = forall("a", "t", And(pred("f", "a"), Not(pred("g", "a"))))
        kinds = [type(node).__name__ for node in f.walk()]
        assert kinds == ["Universal", "And", "Predicate", "Not", "Predicate"]


class TestConstraint:
    def test_closed_formula_accepted(self):
        c = Constraint("c1", forall("a", "t", pred("f", "a")))
        assert c.relevant_types() == {"t"}

    def test_free_variables_rejected(self):
        with pytest.raises(ValueError, match="free variables"):
            Constraint("c1", pred("f", "a"))

    def test_formulas_are_hashable(self):
        f1 = forall("a", "t", pred("f", "a"))
        f2 = forall("a", "t", pred("f", "a"))
        assert f1 == f2
        assert hash(f1) == hash(f2)
        assert len({f1, f2}) == 1
