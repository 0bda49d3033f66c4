"""Replay acceptance matrix: ledger + ruleset => byte-identical decisions.

For each application stream, each recording host (middleware plug-in;
engine) and both kernel settings, the written
ledger must verify and replay to the exact recorded
``decision_signature`` -- using nothing but the file.
"""

import pytest

from repro.constraints.checker import ConstraintChecker
from repro.core.strategy import make_strategy
from repro.engine import EngineConfig, ShardedEngine
from repro.ledger import (
    LedgerService,
    LedgerWriter,
    read_ledger,
    replay_ledger,
    verify_ledger,
)
from repro.middleware.manager import Middleware

from tests.runtime import _streams

APP_KEYS = tuple(case[0] for case in _streams.APP_CASES)

ENGINE_RUNS = [("inline", kernels) for kernels in (True, False)]


def record_engine(app_key, path, *, kernels):
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
            ledger_path=str(path),
        ),
    )
    return engine.run(stream)


def record_middleware(app_key, path):
    constraints, registry_factory, stream, strategy, use_window = (
        _streams.app_inputs(app_key)
    )
    middleware = Middleware(
        ConstraintChecker(constraints, registry=registry_factory()),
        make_strategy(strategy),
        use_window=use_window,
    )
    middleware.plug_in(LedgerService(str(path), registry_factory=registry_factory))
    middleware.receive_all(stream)
    middleware.unplug("ledger")


class TestEngineReplayMatrix:
    @pytest.mark.parametrize("app_key", APP_KEYS)
    @pytest.mark.parametrize("mode,kernels", ENGINE_RUNS)
    def test_replay_is_byte_identical(self, app_key, mode, kernels, tmp_path):
        path = tmp_path / "run.jsonl"
        result = record_engine(app_key, path, kernels=kernels)
        check = verify_ledger(str(path))
        assert check.ok, check.summary()
        replay = replay_ledger(str(path))
        assert replay.ok, replay.summary()
        assert replay.recorded == result.decision_signature()
        assert replay.replayed == result.decision_signature()


class TestMiddlewareReplay:
    @pytest.mark.parametrize("app_key", APP_KEYS)
    def test_replay_is_byte_identical(self, app_key, tmp_path):
        path = tmp_path / "run.jsonl"
        record_middleware(app_key, path)
        replay = replay_ledger(str(path))
        assert replay.ok, replay.summary()


class TestOlderLedgers:
    def test_process_mode_header_still_verifies_and_replays(self, tmp_path):
        """Ledgers recorded by builds that still had the process mode
        carry ``meta.mode == "process"``; they stay auditable."""
        source = tmp_path / "inline.jsonl"
        result = record_engine("rfid", source, kernels=True)
        header, *body = read_ledger(str(source))
        path = tmp_path / "process.jsonl"
        with LedgerWriter(
            str(path),
            header["ruleset"],
            meta={**header["meta"], "mode": "process"},
        ) as writer:
            for entry in body:
                writer.append(
                    {k: v for k, v in entry.items() if k not in ("seq", "h")}
                )
        assert read_ledger(str(path))[0]["meta"]["mode"] == "process"
        check = verify_ledger(str(path))
        assert check.ok, check.summary()
        replay = replay_ledger(str(path))
        assert replay.ok, replay.summary()
        assert replay.replayed == result.decision_signature()


class TestReplaySafety:
    def test_refuses_a_tampered_ledger(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_engine("rfid", path, kernels=True)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"kind"', '"kinD"', 1)
        path.write_text("".join(line + "\n" for line in lines))
        replay = replay_ledger(str(path))
        assert not replay.ok
        assert "refusing" in replay.detail

    def test_shard_count_is_outcome_neutral(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_engine("rfid", path, kernels=True)
        for shards in (1, 2, 5):
            replay = replay_ledger(str(path), shards=shards)
            assert replay.ok, (shards, replay.summary())

    def test_registry_fallback_for_unresolvable_spec(self, tmp_path):
        # A closure factory cannot be recorded as a spec; replay must
        # then demand an explicit registry rather than guess.
        constraints, registry_factory, stream, strategy, use_window = (
            _streams.app_inputs("rfid")
        )

        def local_factory():
            return registry_factory()

        path = tmp_path / "run.jsonl"
        engine = ShardedEngine(
            constraints,
            strategy=strategy,
            registry_factory=local_factory,
            config=EngineConfig(
                shards=1, use_window=use_window, ledger_path=str(path)
            ),
        )
        engine.run(stream)
        entries = read_ledger(str(path))
        assert entries[0]["ruleset"]["registry"] is None
        failed = replay_ledger(str(path))
        assert not failed.ok and "registry" in failed.detail
        replay = replay_ledger(str(path), registry_factory=registry_factory)
        assert replay.ok, replay.summary()
