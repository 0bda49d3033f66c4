"""One-off golden recorder for the runtime refactor (ISSUE 5).

Run from the repo root with the PRE-refactor tree checked out::

    PYTHONPATH=src:tests python tests/runtime/record_goldens.py

It captures the seed implementation's decision signatures -- the
single-pool :class:`Middleware` on 200+ generated streams, and both
Middleware and the sharded engine (kernels on/off) on the three
application streams -- into ``tests/runtime/goldens/*.json``.  The
committed app goldens also hold ``local-*``/``process-*`` rows, recorded
while the engine still had those execution modes; this script no longer
produces them, so re-running it drops those rows.  The permanent equivalence suite
(``test_golden_equivalence.py``) replays the same inputs against the
refactored tree and requires byte-identical signatures.

The goldens are committed; re-running this script after the refactor
must reproduce every row it records (that is the whole point).
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from runtime import _streams  # noqa: E402

from repro.constraints.checker import ConstraintChecker  # noqa: E402
from repro.core.strategy import make_strategy  # noqa: E402
from repro.engine import EngineConfig, ShardedEngine  # noqa: E402
from repro.middleware.bus import (  # noqa: E402
    ContextDelivered,
    ContextDiscarded,
)
from repro.middleware.manager import Middleware  # noqa: E402

OUT_DIR = pathlib.Path(__file__).parent / "goldens"


def middleware_decisions(constraints, strategy_name, stream, *, use_window,
                         use_delay, registry_factory=None):
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


def record_generated() -> dict:
    trials = []
    for seed in range(_streams.N_TRIALS):
        constraints, stream, params = _streams.trial_inputs(seed)
        delivered, discarded = middleware_decisions(
            constraints,
            params["strategy"],
            stream,
            use_window=params["use_window"],
            use_delay=params["use_delay"],
        )
        trials.append(
            {
                "params": params,
                "delivered": delivered,
                "discarded": discarded,
                "signature": _streams.signature(delivered, discarded),
            }
        )
    return {"n_trials": len(trials), "trials": trials}


def engine_decisions(constraints, registry_factory, strategy_name, stream, *,
                     use_window, kernels):
    engine = ShardedEngine(
        constraints,
        strategy=strategy_name,
        registry_factory=registry_factory,
        config=EngineConfig(
            shards=_streams.APP_SHARDS,
            use_window=use_window,
            kernels=kernels,
        ),
    )
    result = engine.run(stream)
    return result.delivered_ids, result.discarded_ids


def record_apps() -> dict:
    records = {}
    for app_key, _strategy, _window, _kwargs in _streams.APP_CASES:
        constraints, registry_factory, stream, strategy, use_window = (
            _streams.app_inputs(app_key)
        )
        entry = {"n_contexts": len(stream), "runs": {}}
        delivered, discarded = middleware_decisions(
            constraints,
            strategy,
            stream,
            use_window=use_window,
            use_delay=None,
            registry_factory=registry_factory,
        )
        entry["runs"]["middleware"] = {
            "delivered": len(delivered),
            "discarded": len(discarded),
            "signature": _streams.signature(delivered, discarded),
        }
        for kernels in (True, False):
            delivered, discarded = engine_decisions(
                constraints,
                registry_factory,
                strategy,
                stream,
                use_window=use_window,
                kernels=kernels,
            )
            key = f"inline-kernels-{'on' if kernels else 'off'}"
            entry["runs"][key] = {
                "delivered": len(delivered),
                "discarded": len(discarded),
                "signature": _streams.signature(delivered, discarded),
            }
            print(f"  {app_key} {key}: {entry['runs'][key]}")
        records[app_key] = entry
    return records


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    generated = record_generated()
    (OUT_DIR / "generated_streams.json").write_text(
        json.dumps(generated, indent=1, sort_keys=True) + "\n"
    )
    print(f"recorded {generated['n_trials']} generated-stream goldens")
    apps = record_apps()
    (OUT_DIR / "app_streams.json").write_text(
        json.dumps(apps, indent=1, sort_keys=True) + "\n"
    )
    print(f"recorded app goldens for {sorted(apps)}")


if __name__ == "__main__":
    main()
