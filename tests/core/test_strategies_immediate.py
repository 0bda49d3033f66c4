"""Unit tests for the immediate baseline strategies."""

import random


from repro.core.context import ContextState
from repro.core.drop_all import DropAllStrategy
from repro.core.drop_latest import DropLatestStrategy
from repro.core.drop_random import DropRandomStrategy
from repro.core.inconsistency import Inconsistency
from repro.core.oracle import OptimalStrategy
from repro.core.user_specified import UserSpecifiedStrategy, source_trust_policy


def inc(*contexts, constraint="c"):
    return Inconsistency(frozenset(contexts), constraint=constraint)


class TestDropLatest:
    def test_discards_latest_of_inconsistency(self, mk):
        strategy = DropLatestStrategy()
        d2 = mk(ctx_id="d2", timestamp=2.0)
        strategy.on_context_added(d2, [])
        d3 = mk(ctx_id="d3", timestamp=3.0)
        outcome = strategy.on_context_added(d3, [inc(d2, d3)])
        assert outcome.discarded == (d3,)
        assert outcome.admitted == ()
        assert strategy.state_of(d3) == ContextState.INCONSISTENT
        assert strategy.state_of(d2) == ContextState.CONSISTENT

    def test_admits_clean_context(self, mk):
        strategy = DropLatestStrategy()
        ctx = mk()
        outcome = strategy.on_context_added(ctx, [])
        assert outcome.admitted == (ctx,)
        assert outcome.discarded == ()
        assert not outcome.buffered

    def test_scenario_b_blames_wrong_context(self, mk):
        """Scenario B: d3 slipped in; (d3, d4) blames d4 (Sec 2.2)."""
        strategy = DropLatestStrategy()
        d3 = mk(ctx_id="d3", timestamp=3.0)
        strategy.on_context_added(d3, [])
        d4 = mk(ctx_id="d4", timestamp=4.0)
        outcome = strategy.on_context_added(d4, [inc(d3, d4)])
        assert outcome.discarded == (d4,)
        assert strategy.state_of(d3) == ContextState.CONSISTENT

    def test_vanished_inconsistency_skipped(self, mk):
        """Once the victim of IC1 is gone, IC2 involving it vanishes."""
        strategy = DropLatestStrategy()
        d2 = mk(ctx_id="d2", timestamp=2.0)
        d3 = mk(ctx_id="d3", timestamp=3.0)
        strategy.on_context_added(d2, [])
        outcome = strategy.on_context_added(
            d3, [inc(d2, d3, constraint="x"), inc(d2, d3, constraint="y")]
        )
        # d3 discarded once; second IC vanished rather than re-blaming.
        assert outcome.discarded == (d3,)
        assert strategy.inconsistencies_seen == 1

    def test_use_reports_admission_state(self, mk):
        strategy = DropLatestStrategy()
        good, bad = mk(timestamp=1.0), mk(timestamp=2.0)
        strategy.on_context_added(good, [])
        strategy.on_context_added(bad, [inc(good, bad)])
        assert strategy.on_context_used(good).delivered
        assert not strategy.on_context_used(bad).delivered

    def test_unknown_context_used_is_delivered(self, mk):
        strategy = DropLatestStrategy()
        assert strategy.on_context_used(mk()).delivered


class TestDropAll:
    def test_discards_every_participant(self, mk):
        strategy = DropAllStrategy()
        d2 = mk(ctx_id="d2", timestamp=2.0)
        strategy.on_context_added(d2, [])
        d3 = mk(ctx_id="d3", timestamp=3.0)
        outcome = strategy.on_context_added(d3, [inc(d2, d3)])
        assert set(outcome.discarded) == {d2, d3}
        assert strategy.state_of(d2) == ContextState.INCONSISTENT

    def test_revokes_admitted_context(self, mk):
        """d2 was already consistent; drop-all still removes it."""
        strategy = DropAllStrategy()
        d2 = mk(ctx_id="d2", timestamp=2.0)
        strategy.on_context_added(d2, [])
        assert strategy.state_of(d2) == ContextState.CONSISTENT
        d3 = mk(ctx_id="d3", timestamp=3.0)
        strategy.on_context_added(d3, [inc(d2, d3)])
        assert strategy.state_of(d2) == ContextState.INCONSISTENT


class TestDropRandom:
    def test_discards_exactly_one_per_inconsistency(self, mk):
        strategy = DropRandomStrategy(rng=random.Random(1))
        a = mk(timestamp=1.0)
        strategy.on_context_added(a, [])
        b = mk(timestamp=2.0)
        outcome = strategy.on_context_added(b, [inc(a, b)])
        assert len(outcome.discarded) == 1
        assert outcome.discarded[0] in (a, b)

    def test_deterministic_given_seed(self, mk):
        def run(seed):
            strategy = DropRandomStrategy(rng=random.Random(seed))
            a = mk(ctx_id="a", timestamp=1.0)
            b = mk(ctx_id="b", timestamp=2.0)
            strategy.on_context_added(a, [])
            return strategy.on_context_added(b, [inc(a, b)]).discarded

        assert run(7) == run(7)


class TestUserSpecified:
    def test_default_freshness_policy_keeps_newest(self, mk):
        strategy = UserSpecifiedStrategy()
        old = mk(ctx_id="old", timestamp=1.0)
        new = mk(ctx_id="new", timestamp=2.0)
        strategy.on_context_added(old, [])
        outcome = strategy.on_context_added(new, [inc(old, new)])
        assert outcome.discarded == (old,)

    def test_source_trust_policy(self, mk):
        trust = source_trust_policy({"good-sensor": 0.9, "flaky-sensor": 0.1})
        strategy = UserSpecifiedStrategy(preference=trust)
        trusted = mk(ctx_id="a", source="good-sensor", timestamp=1.0)
        flaky = mk(ctx_id="b", source="flaky-sensor", timestamp=2.0)
        strategy.on_context_added(trusted, [])
        outcome = strategy.on_context_added(flaky, [inc(trusted, flaky)])
        assert outcome.discarded == (flaky,)

    def test_preference_ties_broken_by_id(self, mk):
        strategy = UserSpecifiedStrategy(preference=lambda c: 0.0)
        a = mk(ctx_id="a", timestamp=1.0)
        b = mk(ctx_id="b", timestamp=1.0)
        strategy.on_context_added(a, [])
        outcome = strategy.on_context_added(b, [inc(a, b)])
        assert outcome.discarded == (a,)


class TestOptimal:
    def test_discards_corrupted_on_arrival(self, mk):
        strategy = OptimalStrategy()
        bad = mk(corrupted=True)
        outcome = strategy.on_context_added(bad, [])
        assert outcome.discarded == (bad,)

    def test_keeps_expected_even_in_inconsistency(self, mk):
        strategy = OptimalStrategy()
        good = mk(ctx_id="g", timestamp=1.0)
        strategy.on_context_added(good, [])
        bad = mk(ctx_id="b", timestamp=2.0, corrupted=True)
        outcome = strategy.on_context_added(bad, [inc(good, bad)])
        assert outcome.discarded == (bad,)
        assert strategy.state_of(good) == ContextState.CONSISTENT

    def test_choose_victims_targets_corrupted(self, mk):
        strategy = OptimalStrategy()
        good = mk(ctx_id="g")
        bad = mk(ctx_id="b", corrupted=True)
        assert strategy.choose_victims(bad, inc(good, bad)) == (bad,)
