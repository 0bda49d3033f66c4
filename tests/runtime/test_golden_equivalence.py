"""Golden decision-signature equivalence for the unified runtime.

The runtime refactor (ISSUE 5) moved the receive/check/resolve/use/
deliver/discard life cycle out of ``Middleware`` and ``engine/shard.py``
into :mod:`repro.runtime`.  The acceptance bar is byte-identical
decisions: the files under ``goldens/`` were recorded from the
PRE-refactor tree (see ``record_goldens.py``) and these tests replay
the exact same inputs against the current tree.

* 220 generated streams sweep both window semantics (count windows
  0-6 including the zero-window drop-latest degeneration, time delays
  0/2/6s), finite and infinite lifespans (expiry), and all four
  deterministic strategies.
* The three application streams (call-forwarding, RFID anomalies,
  smart-phone) run through the middleware and through the engine with
  kernels on and off; each run's ordered delivered/discarded id lists
  must hash to the recorded signature.  (The goldens also hold rows
  for the removed ``local``/``process`` engine modes; nothing reads
  them.)

A mismatch here means the refactor changed a resolution decision --
never update the goldens to make this pass without re-deriving them
from a tree whose decisions are known-good.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.constraints.checker import ConstraintChecker
from repro.core.strategy import make_strategy
from repro.engine import EngineConfig, ShardedEngine
from repro.middleware.bus import ContextDelivered, ContextDiscarded
from repro.middleware.manager import Middleware

from . import _streams

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
GENERATED = json.loads((GOLDEN_DIR / "generated_streams.json").read_text())
APPS = json.loads((GOLDEN_DIR / "app_streams.json").read_text())

ENGINE_RUNS = [("inline", kernels) for kernels in (True, False)]


def middleware_decisions(
    constraints, strategy_name, stream, *, use_window, use_delay,
    registry_factory=None,
):
    checker = (
        ConstraintChecker(constraints, registry=registry_factory())
        if registry_factory is not None
        else ConstraintChecker(constraints)
    )
    middleware = Middleware(
        checker,
        make_strategy(strategy_name),
        use_window=use_window,
        use_delay=use_delay,
    )
    delivered, discarded = [], []
    middleware.bus.subscribe(
        ContextDelivered, lambda e: delivered.append(e.context.ctx_id)
    )
    middleware.bus.subscribe(
        ContextDiscarded, lambda e: discarded.append(e.context.ctx_id)
    )
    middleware.receive_all(stream)
    return delivered, discarded


class TestGeneratedStreamGoldens:
    def test_recorded_trial_count(self):
        assert GENERATED["n_trials"] == _streams.N_TRIALS >= 200

    @pytest.mark.parametrize("seed", range(_streams.N_TRIALS))
    def test_signature_matches_seed_tree(self, seed):
        golden = GENERATED["trials"][seed]
        constraints, stream, params = _streams.trial_inputs(seed)
        assert params == golden["params"]
        delivered, discarded = middleware_decisions(
            constraints,
            params["strategy"],
            stream,
            use_window=params["use_window"],
            use_delay=params["use_delay"],
        )
        assert delivered == golden["delivered"]
        assert discarded == golden["discarded"]
        assert _streams.signature(delivered, discarded) == golden["signature"]

    def test_sweep_covers_both_window_kinds_and_expiry(self):
        params = [GENERATED["trials"][s]["params"] for s in range(_streams.N_TRIALS)]
        assert any(p["use_delay"] is not None for p in params)
        assert any(p["use_delay"] is None for p in params)
        assert any(p["use_window"] == 0 and p["use_delay"] is None for p in params)
        # Finite lifespans appear in every stream's generator mix, so
        # expiry is exercised whenever a short-lived context's slot
        # passes; assert the generator still produces them.
        _, stream, _ = _streams.trial_inputs(0)
        assert any(c.expiry != float("inf") for c in stream)


class TestApplicationStreamGoldens:
    @pytest.mark.parametrize("app_key", sorted(APPS))
    def test_middleware_signature(self, app_key):
        golden = APPS[app_key]["runs"]["middleware"]
        constraints, registry_factory, stream, strategy, use_window = (
            _streams.app_inputs(app_key)
        )
        assert len(stream) == APPS[app_key]["n_contexts"]
        delivered, discarded = middleware_decisions(
            constraints,
            strategy,
            stream,
            use_window=use_window,
            use_delay=None,
            registry_factory=registry_factory,
        )
        assert len(delivered) == golden["delivered"]
        assert len(discarded) == golden["discarded"]
        assert _streams.signature(delivered, discarded) == golden["signature"]

    @pytest.mark.parametrize("mode,kernels", ENGINE_RUNS)
    @pytest.mark.parametrize("app_key", sorted(APPS))
    def test_engine_signature(self, app_key, mode, kernels):
        key = f"{mode}-kernels-{'on' if kernels else 'off'}"
        golden = APPS[app_key]["runs"][key]
        constraints, registry_factory, stream, strategy, use_window = (
            _streams.app_inputs(app_key)
        )
        engine = ShardedEngine(
            constraints,
            strategy=strategy,
            registry_factory=registry_factory,
            config=EngineConfig(
                shards=_streams.APP_SHARDS,
                use_window=use_window,
                kernels=kernels,
            ),
        )
        result = engine.run(stream)
        delivered = result.delivered_ids
        discarded = result.discarded_ids
        assert len(delivered) == golden["delivered"]
        assert len(discarded) == golden["discarded"]
        assert _streams.signature(delivered, discarded) == golden["signature"]

    @pytest.mark.parametrize("app_key", sorted(APPS))
    def test_batch_toggle_is_decision_neutral(self, app_key):
        """The per-context arrival path decides exactly as the batch path.

        ``engine.run`` (and every open-stream ``submit``) goes through
        :func:`~repro.runtime.batch.receive_batch`; feeding the same
        app stream one context at a time through ``driver.receive``
        must reproduce the same golden.
        """
        golden = APPS[app_key]["runs"]["inline-kernels-on"]
        constraints, registry_factory, stream, strategy, use_window = (
            _streams.app_inputs(app_key)
        )
        engine = ShardedEngine(
            constraints,
            strategy=strategy,
            registry_factory=registry_factory,
            config=EngineConfig(
                shards=_streams.APP_SHARDS, use_window=use_window
            ),
        )
        delivered, discarded = [], []
        engine.bus.subscribe(
            ContextDelivered, lambda e: delivered.append(e.context.ctx_id)
        )
        engine.bus.subscribe(
            ContextDiscarded, lambda e: discarded.append(e.context.ctx_id)
        )
        session = engine.open_stream()
        for ctx in stream:
            session.driver.receive(ctx)
        session.close()
        assert session.submitted == 0  # the batch path never ran
        signature = _streams.signature(delivered, discarded)
        assert signature == golden["signature"]
