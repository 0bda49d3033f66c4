"""Unit tests for the use scheduler and the bounded id set."""

from __future__ import annotations

import pytest

from repro.core.context import Context
from repro.runtime.scheduler import BoundedIdSet, ScheduledUse, UseScheduler


def ctx(ctx_id: str, ts: float = 0.0) -> Context:
    return Context(
        ctx_id=ctx_id, ctx_type="t", subject="s", value=0, timestamp=ts
    )


class TestCountWindow:
    def test_entry_due_after_window_arrivals(self):
        scheduler = UseScheduler(use_window=2)
        scheduler.schedule(ctx("a"), 0, 0.0)
        assert scheduler.pop_due(0.0) is None
        scheduler.schedule(ctx("b"), 0, 1.0)
        assert scheduler.pop_due(1.0) is None
        scheduler.schedule(ctx("c"), 0, 2.0)
        entry = scheduler.pop_due(2.0)
        assert entry is not None and entry.ctx.ctx_id == "a"
        assert scheduler.pop_due(2.0) is None

    def test_zero_window_due_immediately(self):
        scheduler = UseScheduler(use_window=0)
        scheduler.schedule(ctx("a"), 0, 0.0)
        entry = scheduler.pop_due(0.0)
        assert entry is not None and entry.ctx.ctx_id == "a"

    def test_fifo_order_and_payload(self):
        scheduler = UseScheduler(use_window=0)
        scheduler.schedule(ctx("a"), 3, 0.0)
        scheduler.schedule(ctx("b"), 7, 0.0)
        assert [(e.ctx.ctx_id, e.payload) for e in iter(lambda: scheduler.pop_due(0.0), None)] == [
            ("a", 3),
            ("b", 7),
        ]


class TestTimeWindow:
    def test_entry_due_after_delay(self):
        scheduler = UseScheduler(use_delay=5.0)
        scheduler.schedule(ctx("a"), 0, 10.0)
        assert scheduler.pop_due(14.9) is None
        entry = scheduler.pop_due(15.0)
        assert entry is not None and entry.ctx.ctx_id == "a"

    def test_next_due_at(self):
        scheduler = UseScheduler(use_delay=5.0)
        assert scheduler.next_due_at() == float("inf")
        scheduler.schedule(ctx("a"), 0, 10.0)
        assert scheduler.next_due_at() == 15.0


class TestDiscard:
    def test_discard_unschedules(self):
        scheduler = UseScheduler(use_window=0)
        scheduler.schedule(ctx("a"), 0, 0.0)
        scheduler.schedule(ctx("b"), 0, 0.0)
        assert scheduler.discard("a") is True
        assert scheduler.discard("a") is False  # already gone
        assert scheduler.discard("zz") is False  # never scheduled
        entry = scheduler.pop_due(0.0)
        assert entry is not None and entry.ctx.ctx_id == "b"
        assert scheduler.pop_due(0.0) is None

    def test_len_counts_live_entries_only(self):
        scheduler = UseScheduler(use_window=4)
        for i in range(10):
            scheduler.schedule(ctx(f"c{i}"), 0, 0.0)
        for i in range(4):
            scheduler.discard(f"c{i}")
        assert len(scheduler) == 6
        assert [c.ctx_id for c in scheduler.pending()] == [
            f"c{i}" for i in range(4, 10)
        ]

    def test_compaction_bounds_queue_slots(self):
        scheduler = UseScheduler(use_window=10**9)
        for i in range(1000):
            scheduler.schedule(ctx(f"c{i}"), 0, 0.0)
        for i in range(999):
            scheduler.discard(f"c{i}")
        # Tombstones were compacted away: the deque cannot keep one
        # dead slot per discard.
        assert scheduler.queue_slots() < 200
        assert len(scheduler) == 1

    def test_pop_next_flushes_in_order(self):
        scheduler = UseScheduler(use_window=10**9)
        scheduler.schedule(ctx("a"), 0, 0.0)
        scheduler.schedule(ctx("b"), 0, 0.0)
        scheduler.discard("a")
        entry = scheduler.pop_next()
        assert entry is not None and entry.ctx.ctx_id == "b"
        assert scheduler.pop_next() is None


class TestValidationAndSnapshot:
    def test_rejects_negative_window(self):
        with pytest.raises(ValueError):
            UseScheduler(use_window=-1)
        with pytest.raises(ValueError):
            UseScheduler(use_delay=-0.5)


class TestScheduledUse:
    def test_slots_hold_bookkeeping(self):
        entry = ScheduledUse(ctx("a"), 2, 7, 1.5)
        assert (entry.payload, entry.arrival_index, entry.arrived_at) == (2, 7, 1.5)
        assert entry.discarded is False


class TestBoundedIdSet:
    def test_add_reports_novelty(self):
        ids = BoundedIdSet(maxlen=10)
        assert ids.add("a") is True
        assert ids.add("a") is False
        assert "a" in ids and len(ids) == 1

    def test_eviction_is_fifo_and_bounded(self):
        ids = BoundedIdSet(maxlen=3)
        for name in ("a", "b", "c", "d"):
            ids.add(name)
        assert len(ids) == 3
        assert "a" not in ids
        assert all(name in ids for name in ("b", "c", "d"))

    def test_rejects_nonpositive_maxlen(self):
        with pytest.raises(ValueError):
            BoundedIdSet(maxlen=0)
