"""Unit and property tests for the incremental checking engine.

The key property: on any stream, the incremental fast path detects
exactly the violations (involving the new context) that a full
re-evaluation would.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.ast import Constraint, Implies, Not, exists, forall, pred
from repro.constraints.builtins import standard_registry
from repro.constraints.checker import ConstraintChecker
from repro.constraints.incremental import analyze_prefix
from repro.constraints.parser import parse_constraint
from repro.core.context import Context


def velocity_constraint(bound=1.5, gap=1.5):
    return parse_constraint(
        "velocity",
        f"forall l1 in location, forall l2 in location : "
        f"(same_subject(l1, l2) and before(l1, l2) "
        f"and within_time(l1, l2, {gap})) "
        f"implies velocity_le(l1, l2, {bound})",
    )


def provenance_constraint():
    return parse_constraint(
        "provenance",
        "forall r in location : far(r) implies "
        "(exists s in location : before(s, r))",
    )


class TestAnalyzePrefix:
    def test_prefix_universal_quantifier_free(self):
        analysis = analyze_prefix(velocity_constraint())
        assert analysis.is_prefix_universal
        assert analysis.vars_types == (
            ("l1", "location"),
            ("l2", "location"),
        )

    def test_positive_existential_body_is_fast_path(self):
        analysis = analyze_prefix(provenance_constraint())
        assert analysis.is_prefix_universal

    def test_negated_existential_falls_back(self):
        constraint = Constraint(
            "neg-exists",
            forall(
                "x",
                "location",
                Not(exists("y", "location", pred("before", "x", "y"))),
            ),
        )
        assert not analyze_prefix(constraint).is_prefix_universal

    def test_existential_in_premise_falls_back(self):
        constraint = Constraint(
            "exists-premise",
            forall(
                "x",
                "location",
                Implies(
                    exists("y", "location", pred("before", "y", "x")),
                    pred("true"),
                ),
            ),
        )
        assert not analyze_prefix(constraint).is_prefix_universal

    def test_nested_universal_falls_back(self):
        constraint = Constraint(
            "nested-forall",
            forall(
                "x",
                "location",
                Implies(
                    pred("true"),
                    forall("y", "location", pred("before", "x", "y")),
                ),
            ),
        )
        assert not analyze_prefix(constraint).is_prefix_universal

    def test_no_prefix_falls_back(self):
        constraint = Constraint(
            "pure-exists", exists("x", "location", pred("true"))
        )
        assert not analyze_prefix(constraint).is_prefix_universal


def _ctx(index, x, subject="p"):
    return Context(
        ctx_id=f"s{index:03d}",
        ctx_type="location",
        subject=subject,
        value=(float(x), 0.0),
        timestamp=float(index),
    )


def _detect_stream(checker, contexts):
    """Feed a stream; return [(ctx_id, sorted violation sets)] per step."""
    seen = []
    trace = []
    for ctx in contexts:
        incs = checker.detect(ctx, list(seen), now=ctx.timestamp)
        trace.append(
            (
                ctx.ctx_id,
                sorted(
                    sorted(c.ctx_id for c in inc.contexts) for inc in incs
                ),
            )
        )
        seen.append(ctx)
    return trace


class TestEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=10))
    def test_incremental_equals_full_on_velocity(self, xs):
        contexts = [_ctx(i, x) for i, x in enumerate(xs)]
        fast = ConstraintChecker([velocity_constraint()], incremental=True)
        slow = ConstraintChecker([velocity_constraint()], incremental=False)
        assert _detect_stream(fast, contexts) == _detect_stream(slow, contexts)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.sampled_from(["p", "q"]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_incremental_equals_full_multi_subject(self, specs):
        contexts = [_ctx(i, x, subject=s) for i, (x, s) in enumerate(specs)]
        fast = ConstraintChecker([velocity_constraint()], incremental=True)
        slow = ConstraintChecker([velocity_constraint()], incremental=False)
        assert _detect_stream(fast, contexts) == _detect_stream(slow, contexts)


class TestExistentialFastPath:
    def _far_registry(self):
        registry = standard_registry()
        registry.register("far", lambda c: c.position[0] > 5.0)
        return registry

    def test_unprovenanced_context_detected(self):
        checker = ConstraintChecker(
            [provenance_constraint()], registry=self._far_registry()
        )
        lone = _ctx(0, 9.0)
        incs = checker.detect(lone, [], now=0.0)
        assert [sorted(c.ctx_id for c in i.contexts) for i in incs] == [
            ["s000"]
        ]

    def test_provenanced_context_clean(self):
        checker = ConstraintChecker(
            [provenance_constraint()], registry=self._far_registry()
        )
        early = _ctx(0, 1.0)
        late = _ctx(1, 9.0)
        assert checker.detect(early, [], now=0.0) == []
        assert checker.detect(late, [early], now=1.0) == []

    def test_matches_full_evaluation(self):
        fast = ConstraintChecker(
            [provenance_constraint()],
            registry=self._far_registry(),
            incremental=True,
        )
        slow = ConstraintChecker(
            [provenance_constraint()],
            registry=self._far_registry(),
            incremental=False,
        )
        contexts = [_ctx(0, 9.0), _ctx(1, 2.0), _ctx(2, 8.0)]
        assert _detect_stream(fast, contexts) == _detect_stream(slow, contexts)


class TestBindingEnumeration:
    def test_self_pairs_included(self):
        """The new context may occupy several quantified positions."""
        constraint = parse_constraint(
            "self-incompatible",
            "forall a in location, forall b in location : "
            "distinct(a, b) or before(a, b)",
        )
        checker = ConstraintChecker([constraint])
        ctx = _ctx(0, 0.0)
        # (ctx, ctx) violates: not distinct and not strictly before.
        incs = checker.detect(ctx, [], now=0.0)
        assert [sorted(c.ctx_id for c in i.contexts) for i in incs] == [
            ["s000"]
        ]

    def test_no_duplicate_detection_across_positions(self):
        constraint = velocity_constraint()
        checker = ConstraintChecker([constraint])
        a = _ctx(0, 0.0)
        b = _ctx(1, 9.0)
        incs = checker.detect(b, [a], now=1.0)
        assert len(incs) == 1
