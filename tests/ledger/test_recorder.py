"""Event recording and shard attribution.

Every host publishes the same lifecycle vocabulary, so the recorder
must produce equivalent ledgers wherever it listens: the middleware's
plug-in and the engine's post-hoc conversion.
"""

import pytest

from repro.constraints.checker import ConstraintChecker
from repro.core.strategy import make_strategy
from repro.engine import EngineConfig, ShardedEngine, scalability_workload
from repro.ledger import (
    LedgerRecorder,
    LedgerService,
    diff_ledgers,
    entries_from_events,
    ledger_signature,
    read_ledger,
    verify_ledger,
)
from repro.middleware.manager import Middleware

from tests.runtime import _streams

APP = "rfid"


@pytest.fixture(scope="module")
def app_case():
    return _streams.app_inputs(APP)


def engine_ledger(app_case, tmp_path, *, shards=_streams.APP_SHARDS):
    constraints, registry_factory, stream, strategy, use_window = app_case
    path = tmp_path / "engine.jsonl"
    engine = ShardedEngine(
        constraints,
        strategy=strategy,
        registry_factory=registry_factory,
        config=EngineConfig(
            shards=shards,
            use_window=use_window,
            ledger_path=str(path),
        ),
    )
    result = engine.run(stream)
    return read_ledger(str(path)), result


def middleware_ledger(app_case, tmp_path):
    constraints, registry_factory, stream, strategy, use_window = app_case
    path = tmp_path / "middleware.jsonl"
    middleware = Middleware(
        ConstraintChecker(constraints, registry=registry_factory()),
        make_strategy(strategy),
        use_window=use_window,
    )
    service = LedgerService(str(path), registry_factory=registry_factory)
    middleware.plug_in(service)
    middleware.receive_all(stream)
    middleware.unplug("ledger")
    return read_ledger(str(path))


class TestHostEquivalence:
    def test_middleware_and_engine_record_identical_decisions(
        self, app_case, tmp_path
    ):
        mw_entries = middleware_ledger(app_case, tmp_path)
        entries, result = engine_ledger(app_case, tmp_path)
        assert verify_ledger(entries).ok
        diff = diff_ledgers(mw_entries, entries)
        assert diff["same_ruleset"]
        assert diff["identical"], diff
        # The ledger signature IS the run's decision signature.
        assert ledger_signature(entries) == result.decision_signature()

    def test_every_host_emits_one_entry_per_lifecycle_event(
        self, app_case, tmp_path
    ):
        stream = app_case[2]
        entries, _ = engine_ledger(app_case, tmp_path)
        arrivals = [e for e in entries if e["kind"] == "arrival"]
        assert len(arrivals) == len(stream)
        terminal = [
            e for e in entries if e["kind"] in ("deliver", "discard", "expire")
        ]
        assert len(terminal) == len(stream)
        assert len({e["ctx_id"] for e in terminal}) == len(stream)


class TestShardAttribution:
    def test_entries_carry_the_router_shard(self, tmp_path):
        """Every arrival is attributed to the shard the router sent it
        to, and a context's verdicts stay on its arrival's shard."""
        constraints, stream = scalability_workload(200)
        path = tmp_path / "sharded.jsonl"
        engine = ShardedEngine(
            constraints,
            config=EngineConfig(shards=4, ledger_path=str(path)),
        )
        engine.run(stream)
        want = {ctx.ctx_id: engine.router.shard_for(ctx) for ctx in stream}
        seen = set()
        for entry in read_ledger(str(path))[1:]:
            if entry["kind"] == "arrival":
                ctx_id = entry["ctx"]["ctx_id"]
            elif entry["kind"] in ("deliver", "discard"):
                ctx_id = entry["ctx_id"]
            else:
                continue
            assert entry["shard"] == want[ctx_id], entry
            seen.add(entry["shard"])
        assert seen == {0, 1, 2, 3}


class TestRecorderApi:
    def test_entries_from_events_defaults_to_shard_zero(self, app_case):
        constraints, registry_factory, stream, strategy, use_window = app_case
        engine = ShardedEngine(
            constraints,
            strategy=strategy,
            registry_factory=registry_factory,
            config=EngineConfig(shards=1, use_window=use_window),
        )
        entries = entries_from_events(engine.run(stream[:20]).events)
        assert entries and {e["shard"] for e in entries} == {0}

    def test_attach_twice_raises(self):
        from repro.middleware.bus import EventBus

        recorder = LedgerRecorder(lambda entry: None)
        bus = EventBus()
        recorder.attach(bus)
        with pytest.raises(ValueError):
            recorder.attach(EventBus())
        recorder.detach()
        recorder.detach()  # idempotent
        recorder.attach(bus)  # reattachable after detach
        recorder.detach()

    def test_discard_why_names_the_implicating_constraints(
        self, app_case, tmp_path
    ):
        entries, _ = engine_ledger(app_case, tmp_path)
        constraint_names = {
            c["name"] for c in entries[0]["ruleset"]["constraints"]
        }
        discards = [e for e in entries if e["kind"] == "discard"]
        assert discards
        explained = [e for e in discards if e["why"]]
        assert explained, "no discard carries a why"
        for entry in explained:
            assert set(entry["why"]) <= constraint_names
