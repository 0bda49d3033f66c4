"""Per-source watermarks in the snapshot-window ingress.

PR 8's ingress derives its watermark from the *global* maximum
timestamp, so one fast source races the watermark ahead and a
consistently slow source sees its arrivals refused as stale.  The
``per_source`` mode takes the watermark from the slowest tracked
source instead, with an arrival-count idle bound so a source that
stalls outright is evicted rather than freezing the window forever.

Covered here:

* a stalled source no longer stalls the watermark -- releases resume
  after eviction and the counter records it;
* a slow-but-steady source is protected: zero stale refusals where
  the global watermark drops every one of its arrivals;
* the released stream stays timestamp-sorted (the ledger-replay
  invariant) in per-source mode;
* config document round-trip with the new fields (missing keys
  default).
"""

from __future__ import annotations

import pytest

from repro.core.context import Context
from repro.runtime import AsyncCheckConfig, SnapshotIngress

pytestmark = pytest.mark.async_check


def ctx(ctx_id: str, ts: float, source: str) -> Context:
    return Context(
        ctx_id=ctx_id,
        ctx_type="loc",
        subject="s",
        value=0.0,
        timestamp=ts,
        source=source,
    )


class TestStalledSource:
    def test_stalled_source_is_evicted_and_releases_resume(self):
        config = AsyncCheckConfig(
            max_lag=2.0, per_source=True, source_idle_arrivals=3
        )
        ingress = SnapshotIngress(config)
        # Source b speaks once, then goes silent.
        assert ingress.offer(ctx("b0", 0.5, "b")).released == ()
        released = []
        release_points = []
        for i in range(1, 9):
            out = ingress.offer(ctx(f"a{i}", float(i), "a")).released
            released += out
            if out:
                release_points.append(i)
        # While b is tracked the watermark is pinned at 0.5 - 2.0 and
        # nothing can release; after 3 arrivals without b it is evicted
        # and the watermark jumps to a's maximum minus the lag.
        assert ingress.evicted_sources == 1
        assert release_points, "releases never resumed after the stall"
        assert min(release_points) > 3
        stamps = [c.timestamp for c in released]
        assert stamps == sorted(stamps)
        # b's lone context is released in order, not lost.
        assert released[0].ctx_id == "b0"
        assert ingress.stats()["evicted_sources"] == 1.0
        assert ingress.stats()["tracked_sources"] == 1.0

    def test_without_per_source_no_stall_in_the_first_place(self):
        ingress = SnapshotIngress(AsyncCheckConfig(max_lag=2.0))
        ingress.offer(ctx("b0", 0.5, "b"))
        released = []
        for i in range(1, 6):
            released += ingress.offer(ctx(f"a{i}", float(i), "a")).released
        # Global mode never waited on b: watermark follows max ts.
        assert [c.ctx_id for c in released] == ["b0", "a1", "a2", "a3"]
        assert ingress.evicted_sources == 0
        assert ingress.stats()["tracked_sources"] == 0.0

    def test_returning_source_is_reinstated(self):
        config = AsyncCheckConfig(
            max_lag=2.0, per_source=True, source_idle_arrivals=2
        )
        ingress = SnapshotIngress(config)
        ingress.offer(ctx("b0", 0.5, "b"))
        for i in range(1, 6):
            ingress.offer(ctx(f"a{i}", float(i), "a"))
        assert ingress.evicted_sources == 1
        # b comes back with a fresh timestamp: tracked again, and the
        # watermark is once more the minimum over both sources.
        ingress.offer(ctx("b1", 4.0, "b"))
        assert ingress.stats()["tracked_sources"] == 2.0
        assert ingress.watermark == pytest.approx(4.0 - 2.0)


class TestSlowButSteadySource:
    @staticmethod
    def interleaved():
        """a leads b by 4 simulated seconds, strictly alternating."""
        stream = []
        for i in range(8):
            stream.append(ctx(f"a{i}", 10.0 + 2.0 * i, "a"))
            stream.append(ctx(f"b{i}", 6.0 + 2.0 * i, "b"))
        return stream

    def test_global_watermark_drops_the_laggard(self):
        ingress = SnapshotIngress(AsyncCheckConfig(max_lag=2.0))
        for c in self.interleaved():
            ingress.offer(c)
        assert ingress.stale > 0

    def test_per_source_watermark_keeps_every_arrival(self):
        config = AsyncCheckConfig(max_lag=2.0, per_source=True)
        ingress = SnapshotIngress(config)
        released = []
        for c in self.interleaved():
            outcome = ingress.offer(c)
            assert outcome.dropped is None
            released += outcome.released
        released += ingress.flush()
        assert ingress.stale == 0
        assert len(released) == 16
        stamps = [c.timestamp for c in released]
        assert stamps == sorted(stamps)

    def test_per_source_watermark_never_exceeds_global(self):
        config = AsyncCheckConfig(max_lag=2.0, per_source=True)
        ingress = SnapshotIngress(config)
        for c in self.interleaved():
            ingress.offer(c)
            global_mark = ingress._max_ts - config.max_lag
            assert ingress.watermark <= global_mark


class TestConfigAndCheckpoint:
    def test_document_round_trip_with_per_source_fields(self):
        config = AsyncCheckConfig(
            max_lag=3.0, per_source=True, source_idle_arrivals=7
        )
        assert AsyncCheckConfig.from_document(config.to_document()) == config

    def test_old_document_defaults_off(self):
        config = AsyncCheckConfig.from_document({"max_lag": 4.0})
        assert config.per_source is False
        assert config.source_idle_arrivals == 64

    def test_source_idle_arrivals_validated(self):
        with pytest.raises(ValueError):
            AsyncCheckConfig(source_idle_arrivals=0)
