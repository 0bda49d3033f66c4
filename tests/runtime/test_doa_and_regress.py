"""Dead-on-arrival admission and regressing-timestamp soundness.

Two paired holes in the arrival path, fixed together:

* **Dead on arrival** -- a context whose ``timestamp + lifespan``
  already passed the pipeline clock at receive used to be admitted,
  checked, and scheduled; it then lingered until the *next* expiry
  sweep, during which it could be delivered or discard a live victim.
  It must instead be expired at receive (``ContextExpired``, ledger
  kind ``expire``), on both the per-context path
  (:meth:`PipelineDriver.receive`) and the batch path
  (:func:`~repro.runtime.batch.receive_batch`).

* **Regressing timestamps** -- the batch path's running
  ``next_expiry`` bound is only tightened by *admitted* contexts.
  Because the DOA fix guarantees every admitted context has
  ``expiry > now``, a straggler with a regressed timestamp can never
  plant a bound in the past (see the soundness note in
  :mod:`repro.runtime.batch`'s docstring).
"""

from __future__ import annotations


from repro.constraints.checker import ConstraintChecker
from repro.core.context import Context
from repro.core.strategy import make_strategy
from repro.middleware.bus import (
    ContextDelivered,
    ContextExpired,
    ContextReceived,
)
from repro.middleware.manager import Middleware
from repro.runtime.batch import receive_batch


def loc(ctx_id, ts, lifespan=float("inf")):
    return Context(
        ctx_id=ctx_id,
        ctx_type="loc",
        subject="s",
        value=0.0,
        timestamp=ts,
        lifespan=lifespan,
    )


def build(use_window=3):
    middleware = Middleware(
        ConstraintChecker([]), make_strategy("drop-latest"),
        use_window=use_window,
    )
    events = {"received": [], "expired": [], "delivered": []}
    middleware.bus.subscribe(
        ContextReceived, lambda e: events["received"].append(e.context.ctx_id)
    )
    middleware.bus.subscribe(
        ContextExpired, lambda e: events["expired"].append(e.context.ctx_id)
    )
    middleware.bus.subscribe(
        ContextDelivered, lambda e: events["delivered"].append(e.context.ctx_id)
    )
    return middleware, events


class TestDeadOnArrival:
    def test_per_context_path_expires_at_receive(self):
        middleware, events = build()
        middleware.receive(loc("live", 10.0))
        # expiry = 0 + 5 = 5 <= clock (10): dead the instant it arrives.
        doa = loc("doa", 0.0, lifespan=5.0)
        middleware.receive(doa)
        assert events["received"] == ["live", "doa"]
        assert events["expired"] == ["doa"]
        assert doa.ctx_id not in [c.ctx_id for c in middleware.pool]
        middleware.flush_uses()
        assert events["delivered"] == ["live"]

    def test_batch_path_matches_per_context_path(self):
        stream = [
            loc("a", 10.0),
            loc("doa", 0.0, lifespan=5.0),
            loc("b", 11.0),
        ]
        per_ctx, per_events = build()
        for c in stream:
            per_ctx.receive(c)
        per_ctx.flush_uses()

        batched, batch_events = build()
        receive_batch(batched._driver, stream)
        batched.flush_uses()

        assert batch_events == per_events
        assert batch_events["expired"] == ["doa"]

    def test_exactly_expired_is_dead(self):
        """``expiry == now`` is dead, matching ``Context.is_expired``."""
        middleware, events = build()
        middleware.receive(loc("live", 8.0))
        middleware.receive(loc("edge", 3.0, lifespan=5.0))  # expiry == 8.0
        assert events["expired"] == ["edge"]

    def test_not_yet_expired_straggler_is_admitted(self):
        middleware, events = build()
        middleware.receive(loc("live", 8.0))
        # Regressed timestamp but expiry 3 + 12 = 15 > 8: still live.
        middleware.receive(loc("late", 3.0, lifespan=12.0))
        assert events["expired"] == []
        assert "late" in [c.ctx_id for c in middleware.pool]


class TestRegressingTimestamps:
    def test_regressed_bound_cannot_stall_the_sweep(self):
        """The regression the batch docstring documents: a DOA
        straggler must not plant ``next_expiry`` in the past, which
        would make every later arrival re-run the expiry sweep (or,
        before the bound's guards, skip sweeps entirely)."""
        middleware, events = build()
        stream = [
            loc("a", 10.0),
            loc("doa", 0.0, lifespan=5.0),  # regressed AND dead
            loc("b", 10.5, lifespan=5.0),  # live: expires at 15.5
            loc("c", 20.0),  # past b's expiry: sweep must fire
        ]
        receive_batch(middleware._driver, stream)
        middleware.flush_uses()
        assert events["expired"] == ["doa", "b"]
        assert sorted(events["delivered"]) == ["a", "c"]

    def test_regressed_arrivals_never_move_the_clock_backwards(self):
        middleware, _ = build()
        middleware.receive(loc("a", 10.0))
        middleware.receive(loc("late", 2.0, lifespan=100.0))
        assert middleware.clock.now() == 10.0
