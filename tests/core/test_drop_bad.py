"""Unit tests for the drop-bad strategy (the paper's Figure 7/8)."""

from repro.core.context import ContextState
from repro.core.drop_bad import DropBadStrategy
from repro.core.inconsistency import Inconsistency
from repro.core.tiebreak import NewestFirst, OldestFirst


def inc(*contexts, constraint="c"):
    return Inconsistency(frozenset(contexts), constraint=constraint)


class TestAdditionChange:
    def test_irrelevant_context_immediately_consistent(self, mk):
        strategy = DropBadStrategy()
        ctx = mk(ctx_type="temperature")
        outcome = strategy.on_context_added(ctx, [], relevant=False)
        assert outcome.admitted == (ctx,)
        assert not outcome.buffered
        assert strategy.state_of(ctx) == ContextState.CONSISTENT

    def test_relevant_context_is_buffered(self, mk):
        strategy = DropBadStrategy()
        ctx = mk()
        outcome = strategy.on_context_added(ctx, [], relevant=True)
        assert outcome.buffered
        assert outcome.admitted == ()
        assert strategy.state_of(ctx) == ContextState.UNDECIDED

    def test_inconsistencies_are_tracked_not_resolved(self, mk):
        strategy = DropBadStrategy()
        a = mk(ctx_id="a", timestamp=1.0)
        strategy.on_context_added(a, [])
        b = mk(ctx_id="b", timestamp=2.0)
        outcome = strategy.on_context_added(b, [inc(a, b)])
        assert outcome.discarded == ()
        assert len(strategy.delta) == 1
        assert strategy.delta.count_of(a) == 1


class TestUseChange:
    def test_clean_context_delivered(self, mk):
        strategy = DropBadStrategy()
        ctx = mk()
        strategy.on_context_added(ctx, [])
        outcome = strategy.on_context_used(ctx)
        assert outcome.delivered
        assert strategy.state_of(ctx) == ContextState.CONSISTENT

    def test_largest_count_context_discarded_when_used(self, mk):
        strategy = DropBadStrategy()
        d3 = mk(ctx_id="d3", timestamp=3.0)
        d4 = mk(ctx_id="d4", timestamp=4.0)
        d5 = mk(ctx_id="d5", timestamp=5.0)
        strategy.on_context_added(d3, [])
        strategy.on_context_added(d4, [inc(d3, d4)])
        strategy.on_context_added(d5, [inc(d3, d5)])
        outcome = strategy.on_context_used(d3)
        assert not outcome.delivered
        assert outcome.discarded == (d3,)
        # Its inconsistencies are resolved away.
        assert len(strategy.delta) == 0

    def test_smaller_count_context_survives_and_blames_culprit(self, mk):
        """Case 2 of Section 3.3: using d1 marks d3 bad, not discarded."""
        strategy = DropBadStrategy()
        d1 = mk(ctx_id="d1", timestamp=1.0)
        d2 = mk(ctx_id="d2", timestamp=2.0)
        d3 = mk(ctx_id="d3", timestamp=3.0)
        d4 = mk(ctx_id="d4", timestamp=4.0)
        strategy.on_context_added(d1, [])
        strategy.on_context_added(d2, [])
        strategy.on_context_added(d3, [inc(d1, d3), inc(d2, d3)])
        strategy.on_context_added(d4, [inc(d3, d4)])
        outcome = strategy.on_context_used(d1)
        assert outcome.delivered
        assert outcome.newly_bad == (d3,)
        assert strategy.state_of(d3) == ContextState.BAD
        # Only d1's inconsistency resolved; (d2,d3), (d3,d4) remain.
        assert len(strategy.delta) == 2

    def test_bad_context_discarded_when_used(self, mk):
        strategy = DropBadStrategy()
        d1 = mk(ctx_id="d1", timestamp=1.0)
        d3 = mk(ctx_id="d3", timestamp=3.0)
        d4 = mk(ctx_id="d4", timestamp=4.0)
        strategy.on_context_added(d1, [])
        strategy.on_context_added(d3, [inc(d1, d3)])
        strategy.on_context_added(d4, [inc(d3, d4)])
        strategy.on_context_used(d1)  # marks d3 bad
        outcome = strategy.on_context_used(d3)
        assert not outcome.delivered
        assert outcome.discarded == (d3,)
        assert strategy.state_of(d3) == ContextState.INCONSISTENT
        # (d3, d4) resolved with d3's discard: d4 is clean now.
        assert strategy.on_context_used(d4).delivered

    def test_drop_bad_never_revokes_consistent_contexts(self, mk):
        """Figure 8 has no consistent->inconsistent edge for drop-bad."""
        strategy = DropBadStrategy()
        a = mk(ctx_id="a", timestamp=1.0)
        strategy.on_context_added(a, [])
        strategy.on_context_used(a)
        assert strategy.state_of(a) == ContextState.CONSISTENT
        b = mk(ctx_id="b", timestamp=2.0)
        strategy.on_context_added(b, [inc(a, b)])
        strategy.on_context_used(b)
        assert strategy.state_of(a) == ContextState.CONSISTENT

    def test_reused_consistent_context_stays_delivered(self, mk):
        strategy = DropBadStrategy()
        ctx = mk(ctx_type="other")
        strategy.on_context_added(ctx, [], relevant=False)
        assert strategy.on_context_used(ctx).delivered
        assert strategy.on_context_used(ctx).delivered

    def test_unknown_context_used_is_admitted(self, mk):
        strategy = DropBadStrategy()
        assert strategy.on_context_used(mk()).delivered


class TestTieHandling:
    def test_tie_discards_used_context_by_default(self, mk):
        """Figure 7 literally: a tied maximum counts as 'largest'."""
        strategy = DropBadStrategy()
        a = mk(ctx_id="a", timestamp=1.0)
        b = mk(ctx_id="b", timestamp=2.0)
        strategy.on_context_added(a, [])
        strategy.on_context_added(b, [inc(a, b)])
        outcome = strategy.on_context_used(a)
        assert not outcome.delivered

    def test_conservative_variant_spares_tied_context(self, mk):
        strategy = DropBadStrategy(discard_on_tie=False)
        a = mk(ctx_id="a", timestamp=1.0)
        b = mk(ctx_id="b", timestamp=2.0)
        strategy.on_context_added(a, [])
        strategy.on_context_added(b, [inc(a, b)])
        outcome = strategy.on_context_used(a)
        assert outcome.delivered
        # Nobody else can be blamed safely on a pure tie.
        assert outcome.newly_bad == ()

    def test_tiebreak_policy_chooses_culprit(self, mk):
        """Two culprits tie at max count inside one inconsistency; the
        policy picks which of them turns bad."""

        def build(policy):
            strategy = DropBadStrategy(tiebreak=policy)
            old = mk(ctx_id="old", timestamp=1.0)
            new = mk(ctx_id="new", timestamp=9.0)
            x = mk(ctx_id="x", timestamp=2.0)
            y = mk(ctx_id="y", timestamp=3.0)
            target = mk(ctx_id="t", timestamp=5.0)
            for ctx in (old, new, x, y):
                strategy.on_context_added(ctx, [])
            # One 3-ary inconsistency involving target plus boosters so
            # counts are old=2, new=2, target=1.
            strategy.on_context_added(target, [inc(old, new, target)])
            strategy.on_context_added(
                mk(ctx_id="b1", timestamp=10.0), [inc(old, x)]
            )
            strategy.on_context_added(
                mk(ctx_id="b2", timestamp=11.0), [inc(new, y)]
            )
            outcome = strategy.on_context_used(target)
            assert outcome.delivered
            return [c.ctx_id for c in outcome.newly_bad]

        assert build(OldestFirst()) == ["old"]
        assert build(NewestFirst()) == ["new"]


class TestReset:
    def test_reset_clears_all_state(self, mk):
        strategy = DropBadStrategy()
        a = mk(timestamp=1.0)
        b = mk(timestamp=2.0)
        strategy.on_context_added(a, [])
        strategy.on_context_added(b, [inc(a, b)])
        strategy.reset()
        assert len(strategy.delta) == 0
        assert not strategy.lifecycle.known(a)
        assert strategy.inconsistencies_seen == 0


class TestCheckingScope:
    def test_used_contexts_leave_checking_scope(self, mk):
        """Section 3.2: deletion removes a context from checking."""
        strategy = DropBadStrategy()
        ctx = mk()
        strategy.on_context_added(ctx, [])
        assert strategy.participates_in_checking(ctx)
        strategy.on_context_used(ctx)
        assert not strategy.participates_in_checking(ctx)

    def test_bad_contexts_remain_in_checking_scope(self, mk):
        """Bad contexts keep collecting count evidence (Section 3.3)."""
        strategy = DropBadStrategy()
        d1 = mk(ctx_id="d1", timestamp=1.0)
        d3 = mk(ctx_id="d3", timestamp=3.0)
        d4 = mk(ctx_id="d4", timestamp=4.0)
        strategy.on_context_added(d1, [])
        strategy.on_context_added(d3, [inc(d1, d3)])
        strategy.on_context_added(d4, [inc(d3, d4)])
        strategy.on_context_used(d1)
        assert strategy.state_of(d3) == ContextState.BAD
        assert strategy.participates_in_checking(d3)

    def test_unknown_contexts_participate(self, mk):
        strategy = DropBadStrategy()
        assert strategy.participates_in_checking(mk())
