"""Open engine sessions: chunked submit+close == one closed-loop run.

``ShardedEngine.run`` is one open session fed in fixed-size chunks, so
any other chunking of a stream through ``open_stream`` must give
byte-identical decisions and ledgers.  Randomized streams x chunk
shapes pin that claim, reusing the golden equivalence suite's
generators.
"""

import random

import pytest

from repro.engine import EngineConfig, ShardedEngine
from repro.middleware.bus import (
    ContextDelivered,
    ContextDiscarded,
    ContextExpired,
)
from repro.scenarios.registry import get_pack

from .test_equivalence import make_constraints, make_stream


def collect_events(bus):
    events = []
    bus.subscribe(
        ContextDelivered, lambda e: events.append(("D", e.context.ctx_id))
    )
    bus.subscribe(
        ContextDiscarded, lambda e: events.append(("X", e.context.ctx_id))
    )
    bus.subscribe(
        ContextExpired, lambda e: events.append(("E", e.context.ctx_id))
    )
    return events


def make_engine(constraints, *, use_window, use_delay, shards=2):
    return ShardedEngine(
        constraints,
        strategy="drop-bad",
        config=EngineConfig(
            shards=shards,
            mode="inline",
            use_window=use_window,
            use_delay=use_delay,
        ),
    )


def chunked(stream, sizes_rng):
    chunks, i = [], 0
    while i < len(stream):
        size = sizes_rng.randint(1, 7)
        chunks.append(stream[i : i + size])
        i += size
    return chunks


@pytest.mark.parametrize("seed", [0, 3, 11, 27, 42])
def test_chunked_stream_matches_run(seed):
    rng = random.Random(seed)
    constraints = make_constraints(rng)
    stream = make_stream(rng, n=50)
    use_window, use_delay = (
        (4, 2.0) if seed % 2 else (seed % 6, None)
    )

    reference = make_engine(
        constraints, use_window=use_window, use_delay=use_delay
    )
    expected = collect_events(reference.bus)
    reference.run(stream)

    engine = make_engine(
        constraints, use_window=use_window, use_delay=use_delay
    )
    actual = collect_events(engine.bus)
    session = engine.open_stream()
    for chunk in chunked(stream, random.Random(seed ^ 0xC0FFEE)):
        session.submit(chunk)
    session.close()

    assert actual == expected


def test_session_tallies_match_closed_loop_run():
    rng = random.Random(5)
    constraints = make_constraints(rng)
    stream = make_stream(rng, n=40)

    reference = make_engine(constraints, use_window=3, use_delay=None)
    expected = collect_events(reference.bus)
    reference.run(stream)

    engine = make_engine(constraints, use_window=3, use_delay=None)
    session = engine.open_stream()
    assert session.submit(stream[:25]) == 25
    assert session.submitted == 25
    assert session.submit(stream[25:]) == 15
    session.close()
    assert session.pending_uses() == 0
    # Tallies equal the closed-loop run's event counts, kind by kind.
    kinds = [kind for kind, _ in expected]
    assert session.delivered == kinds.count("D")
    assert session.discarded == kinds.count("X")
    assert session.expired == kinds.count("E")
    assert session.decided() == len(expected)


def test_closed_session_rejects_submissions():
    rng = random.Random(9)
    engine = make_engine(
        make_constraints(rng), use_window=2, use_delay=None
    )
    session = engine.open_stream()
    session.close()
    session.close()  # idempotent
    with pytest.raises(RuntimeError):
        session.submit(make_stream(rng, n=3))


def test_one_engine_supports_sequential_sessions():
    """open_stream builds fresh pipelines: a second session starts clean."""
    rng = random.Random(13)
    constraints = make_constraints(rng)
    stream = make_stream(rng, n=30)
    engine = make_engine(constraints, use_window=3, use_delay=None)

    first = engine.open_stream()
    first.submit(stream)
    first.close()

    second = engine.open_stream()
    second.submit(stream)
    second.close()
    # Same stream, fresh state: identical decision totals.
    assert (second.delivered, second.discarded, second.expired) == (
        first.delivered, first.discarded, first.expired,
    )
    assert second.pool_size() == first.pool_size()


@pytest.mark.parametrize("shards", [1, 3])
def test_shard_count_is_transparent_for_sessions(shards):
    rng = random.Random(21)
    constraints = make_constraints(rng)
    stream = make_stream(rng, n=40)

    reference = make_engine(
        constraints, use_window=4, use_delay=None, shards=2
    )
    expected = collect_events(reference.bus)
    reference.run(stream)

    engine = make_engine(
        constraints, use_window=4, use_delay=None, shards=shards
    )
    actual = collect_events(engine.bus)
    session = engine.open_stream()
    session.submit(stream)
    session.close()
    # Delivered/discarded order is shard-count invariant (the golden
    # equivalence guarantee); expiry *order* is a shard-local detail,
    # so it is compared as a multiset.
    assert [e for e in actual if e[0] != "E"] == [
        e for e in expected if e[0] != "E"
    ]
    assert sorted(e for e in actual if e[0] == "E") == sorted(
        e for e in expected if e[0] == "E"
    )


@pytest.mark.parametrize("pack_name", ["call-forwarding", "rfid"])
def test_run_and_session_write_byte_identical_ledgers(pack_name, tmp_path):
    """``run`` is one open session: header, entries and chain all match."""
    pack = get_pack(pack_name)
    stream = pack.generate_workload(0.3, pack.default_seed)

    def engine_for(path):
        return ShardedEngine(
            pack.build_constraints(),
            strategy="drop-bad",
            registry_factory=pack.build_registry,
            config=EngineConfig(
                shards=2, use_window=pack.use_window, ledger_path=str(path)
            ),
        )

    engine_for(tmp_path / "run.jsonl").run(stream)
    session = engine_for(tmp_path / "session.jsonl").open_stream()
    for chunk in chunked(stream, random.Random(7)):
        session.submit(chunk)
    session.close()

    run_bytes = (tmp_path / "run.jsonl").read_bytes()
    assert run_bytes.count(b"\n") > len(stream)
    assert run_bytes == (tmp_path / "session.jsonl").read_bytes()
