"""Unit tests for the middleware manager (the Cabot host)."""

import pytest

from repro.constraints.checker import ConstraintChecker
from repro.constraints.parser import parse_constraint
from repro.core.context import Context
from repro.core.strategy import make_strategy
from repro.middleware.bus import (
    ContextBuffered,
    ContextDelivered,
    ContextDiscarded,
    ContextExpired,
    InconsistencyDetected,
)
from repro.middleware.manager import Middleware


def velocity_checker():
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


def loc(ctx_id, x, t, lifespan=float("inf"), corrupted=False):
    return Context(
        ctx_id=ctx_id,
        ctx_type="location",
        subject="p",
        value=(float(x), 0.0),
        timestamp=float(t),
        lifespan=lifespan,
        corrupted=corrupted,
    )


class TestReceivePipeline:
    def test_clean_context_admitted_and_used_after_window(self, mk):
        middleware = Middleware(
            velocity_checker(), make_strategy("drop-latest"), use_window=2
        )
        delivered = []
        middleware.bus.subscribe(
            ContextDelivered, lambda e: delivered.append(e.context.ctx_id)
        )
        middleware.receive(loc("a", 0.0, 0.0))
        middleware.receive(loc("b", 1.0, 1.0))
        assert delivered == []  # window not yet elapsed
        middleware.receive(loc("c", 2.0, 2.0))
        assert delivered == ["a"]

    def test_flush_uses_everything(self):
        middleware = Middleware(
            velocity_checker(), make_strategy("drop-latest"), use_window=10
        )
        for i in range(3):
            middleware.receive(loc(f"x{i}", float(i), float(i)))
        middleware.flush_uses()
        assert middleware.used_count() == 3

    def test_receive_all_flushes(self):
        middleware = Middleware(
            velocity_checker(), make_strategy("drop-latest"), use_window=10
        )
        middleware.receive_all([loc("a", 0.0, 0.0), loc("b", 1.0, 1.0)])
        assert middleware.used_count() == 2

    def test_inconsistency_event_published(self):
        middleware = Middleware(
            velocity_checker(), make_strategy("drop-latest"), use_window=2
        )
        detected = []
        middleware.bus.subscribe(InconsistencyDetected, detected.append)
        middleware.receive(loc("a", 0.0, 0.0))
        middleware.receive(loc("b", 9.0, 1.0))
        assert len(detected) == 1

    def test_discarded_context_removed_and_never_used(self):
        middleware = Middleware(
            velocity_checker(), make_strategy("drop-latest"), use_window=1
        )
        discarded = []
        middleware.bus.subscribe(
            ContextDiscarded, lambda e: discarded.append(e.context.ctx_id)
        )
        middleware.receive_all(
            [loc("a", 0.0, 0.0), loc("b", 9.0, 1.0), loc("c", 1.0, 2.0)]
        )
        assert discarded == ["b"]
        assert len(middleware.resolution.log.delivered) == 2

    def test_drop_bad_buffers_and_publishes(self):
        middleware = Middleware(
            velocity_checker(), make_strategy("drop-bad"), use_window=5
        )
        buffered = []
        middleware.bus.subscribe(
            ContextBuffered, lambda e: buffered.append(e.context.ctx_id)
        )
        middleware.receive(loc("a", 0.0, 0.0))
        assert buffered == ["a"]

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            Middleware(velocity_checker(), make_strategy("drop-bad"), use_window=-1)

    def test_clock_follows_timestamps(self):
        middleware = Middleware(velocity_checker(), make_strategy("drop-bad"))
        middleware.receive(loc("a", 0.0, 5.0))
        assert middleware.clock.now() == 5.0

    def test_window_zero_uses_immediately(self):
        middleware = Middleware(
            velocity_checker(), make_strategy("drop-bad"), use_window=0
        )
        middleware.receive(loc("a", 0.0, 0.0))
        assert middleware.used_count() == 1


class TestExpiry:
    def test_expired_contexts_leave_pool_before_use(self):
        middleware = Middleware(
            velocity_checker(), make_strategy("drop-bad"), use_window=50
        )
        expired = []
        middleware.bus.subscribe(
            ContextExpired, lambda e: expired.append(e.context.ctx_id)
        )
        middleware.receive(loc("short", 0.0, 0.0, lifespan=1.0))
        middleware.receive(loc("later", 1.0, 10.0))
        assert expired == ["short"]
        assert middleware.pool.get("short") is None
        middleware.flush_uses()
        # The expired context was never used.
        assert middleware.used_count() == 1

    def test_expired_context_inconsistencies_resolved(self):
        middleware = Middleware(
            velocity_checker(), make_strategy("drop-bad"), use_window=50
        )
        middleware.receive(loc("a", 0.0, 0.0, lifespan=5.0))
        middleware.receive(loc("b", 9.0, 1.0))  # IC (a, b) tracked
        assert len(middleware.strategy.delta) == 1
        middleware.receive(loc("c", 9.5, 10.0))  # a expires here
        assert middleware.strategy.delta.count_of(
            middleware.pool.get("b")
        ) == 0


class TestAvailability:
    def test_available_contexts_reflect_lifecycle(self):
        middleware = Middleware(
            velocity_checker(), make_strategy("drop-bad"), use_window=1
        )
        middleware.receive(loc("a", 0.0, 0.0))
        assert middleware.available_contexts() == []  # still buffered
        middleware.receive(loc("b", 1.0, 1.0))  # uses a
        available = middleware.available_contexts()
        assert [c.ctx_id for c in available] == ["a"]


class TestPlugIn:
    def test_services_attach_once(self):
        from repro.middleware.service import MiddlewareService

        class Probe(MiddlewareService):
            name = "probe"

            def __init__(self):
                self.attached_to = None

            def on_attach(self, middleware):
                self.attached_to = middleware

        middleware = Middleware(velocity_checker(), make_strategy("drop-bad"))
        probe = Probe()
        middleware.plug_in(probe)
        assert probe.attached_to is middleware
        with pytest.raises(ValueError):
            middleware.plug_in(probe)
