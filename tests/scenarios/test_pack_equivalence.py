"""Legacy apps-as-packs must reproduce the golden decisions byte for byte.

The acceptance bar of the scenario-pack refactor: wrapping the three
hand-written applications as packs (``repro.scenarios.packs.legacy``)
changes NOTHING about their decisions.  Each pack's default
configuration is exactly the golden suite's recorded case
(``tests/runtime/_streams.APP_CASES``: err 0.3, seed 5, the small
stream kwargs), so a default :meth:`PackRunner.run` must hash to the
recorded signature on the middleware host and on the engine host with
kernels on and off.

A mismatch means the pack layer altered resolution behaviour -- never
update the goldens to make this pass.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.scenarios import PackRunner, get_pack

from ..runtime import _streams

GOLDEN_DIR = (
    pathlib.Path(__file__).parent.parent / "runtime" / "goldens"
)
APPS = json.loads((GOLDEN_DIR / "app_streams.json").read_text())

ENGINE_RUNS = [("inline", kernels) for kernels in (True, False)]


@pytest.fixture(scope="module")
def runners():
    # The golden engine runs were recorded on APP_SHARDS shards.
    return {
        name: PackRunner(get_pack(name), shards=_streams.APP_SHARDS)
        for name in APPS
    }


class TestPackDefaultsMatchGoldenCases:
    @pytest.mark.parametrize("app_key", sorted(APPS))
    def test_defaults_pin_the_recorded_case(self, app_key):
        """The pack's defaults ARE the golden case: strategy kwargs,
        window, error rate and seed need no overrides to reproduce it."""
        pack = get_pack(app_key)
        for key, _strategy, use_window, kwargs in _streams.APP_CASES:
            if key == app_key:
                assert pack.use_window == use_window
                assert dict(pack.workload_kwargs) == kwargs
        assert pack.default_seed == _streams.APP_SEED
        assert pack.envelope.reference_err_rate == pytest.approx(
            _streams.APP_ERR_RATE
        )


class TestMiddlewareEquivalence:
    @pytest.mark.parametrize("app_key", sorted(APPS))
    def test_signature_matches_golden(self, app_key, runners):
        golden = APPS[app_key]["runs"]["middleware"]
        result = runners[app_key].run("drop-bad", measures=False)
        assert result.metrics.contexts_total == APPS[app_key]["n_contexts"]
        assert len(result.delivered_ids) == golden["delivered"]
        assert len(result.discarded_ids) == golden["discarded"]
        assert result.signature() == golden["signature"]


class TestEngineEquivalence:
    @pytest.mark.parametrize("mode,kernels", ENGINE_RUNS)
    @pytest.mark.parametrize("app_key", sorted(APPS))
    def test_signature_matches_golden(self, app_key, mode, kernels, runners):
        key = f"{mode}-kernels-{'on' if kernels else 'off'}"
        golden = APPS[app_key]["runs"][key]
        result = runners[app_key].run(
            "drop-bad", host=mode, kernels=kernels, measures=False
        )
        assert len(result.delivered_ids) == golden["delivered"]
        assert len(result.discarded_ids) == golden["discarded"]
        assert result.signature() == golden["signature"]
