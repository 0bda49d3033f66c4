"""Edge cases of the middleware manager contract."""

from repro.constraints.checker import ConstraintChecker
from repro.constraints.parser import parse_constraint
from repro.core.context import Context
from repro.core.strategy import make_strategy
from repro.middleware.manager import Middleware


def checker():
    return ConstraintChecker(
        [
            parse_constraint(
                "velocity",
                "forall l1 in location, forall l2 in location : "
                "(same_subject(l1, l2) and before(l1, l2)) "
                "implies velocity_le(l1, l2, 1.5)",
            )
        ]
    )


def loc(ctx_id, x, t):
    return Context(
        ctx_id=ctx_id,
        ctx_type="location",
        subject="p",
        value=(float(x), 0.0),
        timestamp=float(t),
    )


class TestDuplicateIds:
    def test_duplicate_live_context_id_is_refused(self):
        """Re-receiving a live id is an at-least-once re-delivery: the
        middleware refuses it with a ``ContextDuplicate`` event (the
        original, already-checked instance stays authoritative) instead
        of crashing the receive stage on the pool's unique-id
        invariant."""
        from repro.middleware.bus import ContextDuplicate

        middleware = Middleware(
            checker(), make_strategy("drop-bad"), use_window=10
        )
        refused = []
        middleware.bus.subscribe(
            ContextDuplicate, lambda e: refused.append(e.context)
        )
        original = loc("a", 0.0, 0.0)
        middleware.receive(original)
        middleware.receive(loc("a", 1.0, 1.0))  # re-delivery, new payload
        assert [c.ctx_id for c in refused] == ["a"]
        assert middleware.pool.get("a") is original


class TestOutOfOrderTimestamps:
    def test_late_contexts_are_clamped_to_now(self):
        """A context with an older timestamp than the clock does not
        move time backwards; it is processed at the current time."""
        middleware = Middleware(
            checker(), make_strategy("drop-bad"), use_window=10
        )
        middleware.receive(loc("a", 0.0, 10.0))
        middleware.receive(loc("b", 0.5, 5.0))  # straggler
        assert middleware.clock.now() == 10.0
        assert middleware.pool.get("b") is not None


class TestIrrelevantContexts:
    def test_irrelevant_types_flow_straight_through(self):
        middleware = Middleware(
            checker(), make_strategy("drop-bad"), use_window=0
        )
        other = Context(
            ctx_id="t1",
            ctx_type="temperature",
            subject="room",
            value=21.5,
            timestamp=0.0,
        )
        middleware.receive(other)
        assert middleware.resolution.log.delivered == [other]


class TestUsedCount:
    def test_used_count_tracks_distinct_contexts(self):
        middleware = Middleware(
            checker(), make_strategy("drop-bad"), use_window=0
        )
        a = loc("a", 0.0, 0.0)
        middleware.receive(a)
        middleware.use(a)  # idempotent double use
        assert middleware.used_count() == 1


class TestEmptyStream:
    def test_receive_all_empty(self):
        middleware = Middleware(checker(), make_strategy("drop-bad"))
        middleware.receive_all([])
        assert middleware.used_count() == 0
        assert len(middleware.pool) == 0
