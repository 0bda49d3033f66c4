"""Unit tests for the impact-oriented drop-bad extension."""

from repro.core.drop_bad import DropBadStrategy
from repro.core.impact_aware import (
    ImpactAwareDropBad,
    situation_relevance_model,
)
from repro.core.inconsistency import Inconsistency
from repro.core.strategy import make_strategy


def inc(*contexts, constraint="c"):
    return Inconsistency(frozenset(contexts), constraint=constraint)


class TestRegistration:
    def test_registered_under_name(self):
        strategy = make_strategy("drop-bad-impact")
        assert isinstance(strategy, ImpactAwareDropBad)
        assert strategy.name == "drop-bad-impact"


class TestZeroImpactDegeneration:
    def test_behaves_like_plain_drop_bad(self, mk):
        """With the zero impact model the extension IS drop-bad."""

        def drive(strategy):
            a = mk(ctx_id="a", timestamp=1.0)
            b = mk(ctx_id="b", timestamp=2.0)
            c = mk(ctx_id="c", timestamp=3.0)
            strategy.on_context_added(a, [])
            strategy.on_context_added(b, [inc(a, b)])
            strategy.on_context_added(c, [inc(b, c)])
            return [
                strategy.on_context_used(x).delivered for x in (a, b, c)
            ]

        assert drive(ImpactAwareDropBad()) == drive(DropBadStrategy())


class TestTieImpactGate:
    def _tied_pair(self, mk, strategy):
        """One inconsistency, counts tied 1-1; `a` is used first."""
        a = mk(ctx_id="a", timestamp=1.0)
        b = mk(ctx_id="b", timestamp=2.0)
        strategy.on_context_added(a, [])
        strategy.on_context_added(b, [inc(a, b)])
        return a, b

    def test_valuable_tied_context_spared(self, mk):
        strategy = ImpactAwareDropBad(impact=lambda ctx: 5.0)
        a, b = self._tied_pair(mk, strategy)
        assert strategy.on_context_used(a).delivered

    def test_worthless_tied_context_discarded(self, mk):
        strategy = ImpactAwareDropBad(impact=lambda ctx: 0.0)
        a, b = self._tied_pair(mk, strategy)
        assert not strategy.on_context_used(a).delivered

    def test_budget_raises_the_bar(self, mk):
        strategy = ImpactAwareDropBad(
            impact=lambda ctx: 5.0, tie_impact_budget=10.0
        )
        a, b = self._tied_pair(mk, strategy)
        assert not strategy.on_context_used(a).delivered

    def test_strict_maximum_discarded_regardless_of_impact(self, mk):
        """Impact only gates *tie* discards; clear count evidence wins."""
        strategy = ImpactAwareDropBad(impact=lambda ctx: 100.0)
        a = mk(ctx_id="a", timestamp=1.0)
        b = mk(ctx_id="b", timestamp=2.0)
        c = mk(ctx_id="c", timestamp=3.0)
        strategy.on_context_added(a, [])
        strategy.on_context_added(b, [inc(a, b)])
        strategy.on_context_added(c, [inc(b, c)])
        # b's count (2) strictly exceeds a's and c's (1 each).
        assert not strategy.on_context_used(b).delivered


class TestImpactTieBreakForCulprits:
    def test_cheapest_culprit_marked_bad(self, mk):
        impact = {"old": 9.0, "new": 1.0}
        strategy = ImpactAwareDropBad(
            impact=lambda ctx: impact.get(ctx.ctx_id, 0.0)
        )
        old = mk(ctx_id="old", timestamp=1.0)
        new = mk(ctx_id="new", timestamp=9.0)
        x = mk(ctx_id="x", timestamp=2.0)
        y = mk(ctx_id="y", timestamp=3.0)
        target = mk(ctx_id="t", timestamp=5.0)
        for ctx in (old, new, x, y):
            strategy.on_context_added(ctx, [])
        strategy.on_context_added(target, [inc(old, new, target)])
        strategy.on_context_added(
            mk(ctx_id="b1", timestamp=10.0), [inc(old, x)]
        )
        strategy.on_context_added(
            mk(ctx_id="b2", timestamp=11.0), [inc(new, y)]
        )
        outcome = strategy.on_context_used(target)
        assert outcome.delivered
        assert [c.ctx_id for c in outcome.newly_bad] == ["new"]


class TestSituationRelevanceModel:
    def test_scores_relevant_contexts(self, mk):
        model = situation_relevance_model(
            lambda ctx: ctx.value == "meeting", weight=2.0
        )
        assert model(mk(value="meeting")) == 2.0
        assert model(mk(value="corridor")) == 0.0
