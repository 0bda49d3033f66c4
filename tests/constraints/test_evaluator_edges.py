"""Edge-case tests for the evaluator: caps, truth(), nesting depth."""

import pytest

from repro.constraints.ast import And, Constraint, Implies, Or, exists, forall, pred
from repro.constraints.builtins import standard_registry
from repro.constraints.evaluator import Evaluator
from repro.core.context import Context


def _pool(n, ctx_type="location"):
    contexts = [
        Context(
            ctx_id=f"e{i}",
            ctx_type=ctx_type,
            subject="s",
            value=(float(i), 0.0),
            timestamp=float(i),
        )
        for i in range(n)
    ]
    return contexts, (lambda t: contexts if t == ctx_type else ())


class TestMaxLinksCap:
    def test_cap_truncates_deterministically(self):
        registry = standard_registry()
        evaluator = Evaluator(registry, max_links=3)
        contexts, domain = _pool(10)
        constraint = Constraint(
            "all-false", forall("x", "location", pred("false"))
        )
        violations = evaluator.violations(constraint, domain)
        assert len(violations) == 3
        # Deterministic: repeated evaluation returns the same subset.
        assert violations == evaluator.violations(constraint, domain)

    def test_generous_default_does_not_bind(self):
        registry = standard_registry()
        evaluator = Evaluator(registry)
        contexts, domain = _pool(50)
        constraint = Constraint(
            "all-false", forall("x", "location", pred("false"))
        )
        assert len(evaluator.violations(constraint, domain)) == 50


class TestTruthShortCircuit:
    def test_truth_agrees_with_evaluate(self):
        registry = standard_registry()
        evaluator = Evaluator(registry)
        contexts, domain = _pool(6)
        formulas = [
            forall(
                "x",
                "location",
                Implies(pred("true"), pred("distinct", "x", "x")),
            ),
            exists("x", "location", pred("true")),
            forall(
                "a",
                "location",
                forall(
                    "b",
                    "location",
                    Or(pred("before", "a", "b"), pred("before", "b", "a"))
                    | pred("distinct", "a", "b").__invert__(),
                ),
            ),
        ]
        for formula in formulas:
            assert evaluator.truth(formula, domain) == evaluator.evaluate(
                formula, domain
            ).value

    def test_truth_short_circuits_universal(self):
        """truth() stops at the first counterexample."""
        registry = standard_registry()
        calls = []
        registry.replace(
            "probe", lambda c: calls.append(c.ctx_id) or False
        )
        evaluator = Evaluator(registry)
        contexts, domain = _pool(10)
        evaluator.truth(forall("x", "location", pred("probe", "x")), domain)
        assert len(calls) == 1

    def test_truth_short_circuits_existential(self):
        registry = standard_registry()
        calls = []
        registry.replace(
            "probe", lambda c: calls.append(c.ctx_id) or True
        )
        evaluator = Evaluator(registry)
        contexts, domain = _pool(10)
        evaluator.truth(exists("x", "location", pred("probe", "x")), domain)
        assert len(calls) == 1

    def test_unknown_node_raises(self):
        registry = standard_registry()
        evaluator = Evaluator(registry)
        with pytest.raises(TypeError):
            evaluator.truth("not a formula", lambda t: ())  # type: ignore


class TestDeepNesting:
    def test_three_quantifier_constraint(self):
        """Ternary constraints work end to end (generic arity,
        Section 3.4's 'different types and numbers of contexts')."""
        registry = standard_registry()
        evaluator = Evaluator(registry)
        contexts, domain = _pool(4)
        constraint = Constraint(
            "monotone-triple",
            forall(
                "a",
                "location",
                forall(
                    "b",
                    "location",
                    forall(
                        "c",
                        "location",
                        Implies(
                            And(
                                pred("before", "a", "b"),
                                pred("before", "b", "c"),
                            ),
                            pred("before", "a", "c"),
                        ),
                    ),
                ),
            ),
        )
        # Transitivity of < holds: no violations.
        assert evaluator.violations(constraint, domain) == []
