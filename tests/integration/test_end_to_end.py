"""End-to-end integration tests: sources -> middleware -> application."""

import pytest

from repro.apps.call_forwarding import CallForwardingApp, ForwardingController
from repro.apps.rfid_anomalies import RFIDAnomaliesApp
from repro.core.context import ContextState
from repro.core.strategy import make_strategy
from repro.scenarios.runner import PackRunner
from repro.middleware.manager import Middleware
from repro.situations.situation import SituationEngine


class TestCallForwardingEndToEnd:
    def test_full_pipeline_with_application_behavior(self):
        app = CallForwardingApp()
        contexts = app.generate_workload(0.2, seed=21, duration=200.0)
        middleware = Middleware(
            app.build_checker(), make_strategy("drop-bad"), use_window=10
        )
        engine = SituationEngine(app.build_situations())
        middleware.plug_in(engine)
        controller = ForwardingController(subject="peter")
        middleware.subscriptions.subscribe(
            "call-forwarding", controller.on_context, ctx_type="badge"
        )
        middleware.receive_all(contexts)

        log = middleware.resolution.log
        assert log.added == contexts
        assert len(log.delivered) > 0
        assert controller.decisions, "forwarding target never changed"
        # Every stream context ends in a terminal state.
        for ctx in contexts:
            if middleware.strategy.lifecycle.known(ctx):
                state = middleware.strategy.state_of(ctx)
                assert state in (
                    ContextState.CONSISTENT,
                    ContextState.INCONSISTENT,
                ) or ctx.is_expired(middleware.clock.now())

    def test_resolution_cleans_more_than_it_costs(self):
        """Drop-bad removes corrupted contexts at better precision than
        leaving everything in place (sanity of the whole pipeline)."""
        app = CallForwardingApp()
        contexts = app.generate_workload(0.3, seed=22, duration=300.0)
        m = PackRunner("call-forwarding").run(
            "drop-bad",
            err_rate=0.3,
            seed=22,
            use_window=10,
            stream=contexts,
            measures=False,
        ).metrics
        assert m.contexts_discarded > 0
        assert m.removal_precision > 0.5
        assert m.survival_rate > 0.7


class TestRFIDEndToEnd:
    def test_full_pipeline(self):
        app = RFIDAnomaliesApp()
        contexts = app.generate_workload(0.2, seed=31, items=6)
        middleware = Middleware(
            app.build_checker(), make_strategy("drop-bad"), use_window=20
        )
        engine = SituationEngine(app.build_situations())
        middleware.plug_in(engine)
        middleware.receive_all(contexts)
        assert engine.total_activations() > 0
        assert middleware.resolution.log.delivered

    def test_strategy_isolation_across_runs(self):
        """Two consecutive runs through fresh middleware instances do
        not share state."""
        app = RFIDAnomaliesApp()
        contexts = app.generate_workload(0.2, seed=31, items=4)
        results = []
        for _ in range(2):
            m = PackRunner("rfid").run(
                "drop-bad",
                err_rate=0.2,
                seed=31,
                use_window=20,
                stream=contexts,
                measures=False,
            ).metrics
            results.append(m)
        assert results[0] == results[1]


class TestCrossStrategyInvariants:
    @pytest.mark.parametrize(
        "name",
        ["opt-r", "drop-bad", "drop-latest", "drop-all", "drop-random",
         "user-specified"],
    )
    def test_every_strategy_completes_cleanly(self, name):
        app = CallForwardingApp()
        contexts = app.generate_workload(0.3, seed=41, duration=120.0)
        m = PackRunner("call-forwarding").run(
            name,
            err_rate=0.3,
            seed=41,
            use_window=10,
            stream=contexts,
            measures=False,
        ).metrics
        assert m.contexts_used + m.contexts_discarded <= m.contexts_total
        assert 0.0 <= m.removal_precision <= 1.0
        assert 0.0 <= m.survival_rate <= 1.0

    def test_oracle_dominates_on_expected_use(self):
        """OPT-R is the upper bound for expected-context delivery."""
        app = CallForwardingApp()
        contexts = app.generate_workload(0.3, seed=43, duration=200.0)
        used = {}
        for name in ("opt-r", "drop-bad", "drop-latest", "drop-all"):
            m = PackRunner("call-forwarding").run(
                name,
                err_rate=0.3,
                seed=43,
                use_window=10,
                stream=contexts,
                measures=False,
            ).metrics
            used[name] = m.contexts_used_expected
        assert used["opt-r"] >= max(used.values())
