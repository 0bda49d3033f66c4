"""Unit tests for heuristic-rule measurement."""

from repro.analysis.rules import (
    InstrumentedDropBad,
    RuleObservation,
    RuleReport,
    rule1_holds,
    rule2_holds,
    rule2_relaxed_holds,
)
from repro.core.inconsistency import Inconsistency, TrackedInconsistencies


def inc(*contexts, constraint="c"):
    return Inconsistency(frozenset(contexts), constraint=constraint)


class TestRule1:
    def test_holds_with_corrupted_participant(self, mk):
        good = mk()
        bad = mk(corrupted=True)
        assert rule1_holds(inc(good, bad))

    def test_fails_for_all_expected(self, mk):
        assert not rule1_holds(inc(mk(), mk()))


class TestRule2:
    def _delta(self, mk):
        """bad has count 2, good count 1: rules hold in {good, bad}."""
        good = mk(ctx_id="g")
        bad = mk(ctx_id="b", corrupted=True)
        other = mk(ctx_id="o")
        delta = TrackedInconsistencies()
        main = inc(good, bad)
        delta.add(main)
        delta.add(inc(bad, other, constraint="c2"))
        return good, bad, main, delta

    def test_rule2_holds_when_corrupted_leads(self, mk):
        good, bad, main, delta = self._delta(mk)
        assert rule2_holds(main, delta)
        assert rule2_relaxed_holds(main, delta)

    def test_rule2_fails_on_tie(self, mk):
        good = mk(ctx_id="g")
        bad = mk(ctx_id="b", corrupted=True)
        delta = TrackedInconsistencies()
        main = inc(good, bad)
        delta.add(main)
        assert not rule2_holds(main, delta)
        assert not rule2_relaxed_holds(main, delta)

    def test_relaxed_weaker_than_strict(self, mk):
        """Two corrupted, one leading: 2' holds, 2 does not."""
        good = mk(ctx_id="g")
        bad1 = mk(ctx_id="b1", corrupted=True)
        bad2 = mk(ctx_id="b2", corrupted=True)
        delta = TrackedInconsistencies()
        main = inc(good, bad1, bad2)
        delta.add(main)
        delta.add(inc(bad1, mk(ctx_id="x"), constraint="c2"))
        delta.add(inc(bad1, mk(ctx_id="y"), constraint="c3"))
        delta.add(inc(good, mk(ctx_id="z"), constraint="c4"))
        # counts: bad1=3, good=2, bad2=1
        assert rule2_relaxed_holds(main, delta)
        assert not rule2_holds(main, delta)

    def test_vacuous_without_both_kinds(self, mk):
        delta = TrackedInconsistencies()
        all_bad = inc(mk(corrupted=True), mk(corrupted=True))
        delta.add(all_bad)
        assert rule2_holds(all_bad, delta)
        all_good = inc(mk(), mk())
        delta.add(all_good)
        assert rule2_relaxed_holds(all_good, delta)


class TestRuleReport:
    def test_rates(self):
        report = RuleReport()
        report.add(
            RuleObservation("c", ("a",), rule1=True, rule2=True, rule2_relaxed=True)
        )
        report.add(
            RuleObservation("c", ("b",), rule1=True, rule2=False, rule2_relaxed=True)
        )
        assert report.rule1_rate == 1.0
        assert report.rule2_rate == 0.5
        assert report.rule2_relaxed_rate == 1.0
        assert len(report) == 2

    def test_empty_report_is_vacuously_perfect(self):
        assert RuleReport().rule1_rate == 1.0


class TestInstrumentedDropBad:
    def test_observations_recorded_at_use_time(self, mk):
        strategy = InstrumentedDropBad()
        good = mk(ctx_id="g", timestamp=1.0)
        bad = mk(ctx_id="b", timestamp=2.0, corrupted=True)
        extra = mk(ctx_id="x", timestamp=3.0)
        strategy.on_context_added(good, [])
        strategy.on_context_added(bad, [inc(good, bad)])
        strategy.on_context_added(extra, [inc(bad, extra, constraint="c2")])
        strategy.on_context_used(good)
        assert len(strategy.report) == 1
        observation = strategy.report.observations[0]
        assert observation.rule1
        assert observation.rule2  # bad count 2 > good count 1
        assert observation.context_ids == ("b", "g")

    def test_behaves_like_drop_bad(self, mk):
        strategy = InstrumentedDropBad()
        good = mk(ctx_id="g", timestamp=1.0)
        bad = mk(ctx_id="b", timestamp=2.0, corrupted=True)
        extra = mk(ctx_id="x", timestamp=3.0)
        strategy.on_context_added(good, [])
        strategy.on_context_added(bad, [inc(good, bad)])
        strategy.on_context_added(extra, [inc(bad, extra, constraint="c2")])
        assert strategy.on_context_used(good).delivered
        assert not strategy.on_context_used(bad).delivered
        assert strategy.on_context_used(extra).delivered
