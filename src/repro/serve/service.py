"""The ingestion service: admission -> sequencing -> batching -> engine.

:class:`IngestService` is the transport-agnostic core of the
front-door; :class:`~repro.serve.http.IngestServer` merely parses
bytes into records and verdicts back into status codes.  The dataflow
per arrival:

1. **parse** -- the record becomes a :class:`~repro.core.context.Context`
   (:mod:`repro.serve.protocol`); malformed records are client errors,
   not sheds.
2. **admit** -- :class:`~repro.serve.admission.AdmissionController`
   sheds on rate or backlog depth with an explicit reason.
3. **sequence** -- :class:`~repro.serve.sequencer.SourceSequencer`
   releases the source's contexts in per-source FIFO order (explicit
   ``seq`` gaps are held, bounded).  With ``gap_timeout`` set, a gap
   that starves longer than the timeout is skipped (a periodic sweeper
   task plus an opportunistic sweep per submission); gap-released
   contexts whose availability lapsed while buffered are dropped here
   with the ``serve_gap_expired_total`` metric rather than forwarded
   to the engine as corpses.
4. **batch** -- :class:`~repro.serve.batcher.AdaptiveBatcher` coalesces
   released contexts under max-size/max-linger.
5. **resolve** -- a single *engine pump* task feeds batches in FIFO
   order into an open :class:`~repro.engine.stream.EngineStream`
   (PR 5's amortized ``receive_batch`` path), which preserves both the
   global batch order and therefore every source's FIFO order.

Latency is measured server-side with one monotonic clock, so the two
headline histograms need no cross-host clock agreement:

* ``serve_ingest_decision_seconds`` -- admission to check+resolve
  completion (the batch the context rode returned from the engine);
* ``serve_ingest_delivery_seconds`` -- admission to ``ContextDelivered``
  (the use window has elapsed and the survivor reached applications).

Graceful shutdown is :meth:`drain`: close admission (new arrivals shed
``closed``), release the sequencer's held tail, flush the batcher,
wait out the engine queue, then close the engine stream -- which uses
every context still inside its window.  Every admitted context reaches
a terminal decision; the drain report asserts the loss count is zero.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..core.context import Context
from ..middleware.bus import (
    ContextDelivered,
    ContextDiscarded,
    ContextDuplicate,
    ContextExpired,
    ContextStale,
)
from ..obs.registry import FINE_LATENCY_BUCKETS
from ..obs.telemetry import Telemetry
from .admission import AdmissionController
from .batcher import AdaptiveBatcher
from .config import ServeConfig
from .protocol import context_from_record
from .sequencer import SequenceError, SourceSequencer

__all__ = ["IngestService", "SubmitResult"]

_log = logging.getLogger("repro.serve")

#: A batcher entry: the context plus its admission wall time.
_Entry = Tuple[Context, float]


class SubmitResult:
    """Verdict for one submitted record."""

    __slots__ = ("ctx_id", "admitted", "reason", "released")

    def __init__(
        self, ctx_id: str, admitted: bool, reason: Optional[str], released: int
    ) -> None:
        self.ctx_id = ctx_id
        self.admitted = admitted
        #: Shed reason (``rate``/``depth``/``order``/``closed``) or None.
        self.reason = reason
        #: Contexts this submission released into the batcher (0 when
        #: held for an explicit-seq gap, >1 when it filled one).
        self.released = released

    def to_record(self) -> dict:
        record: Dict[str, Any] = {
            "ctx_id": self.ctx_id,
            "status": "admitted" if self.admitted else "shed",
        }
        if self.reason is not None:
            record["reason"] = self.reason
        return record


class IngestService:
    """Wire an admission-controlled, ordered, batched path to an engine.

    Parameters
    ----------
    engine:
        A :class:`~repro.engine.facade.ShardedEngine`; the service
        opens one inline stream over it for its whole lifetime.
    config:
        :class:`~repro.serve.config.ServeConfig` knobs.
    telemetry:
        Bundle receiving the ``serve_*`` series; latency histograms use
        :data:`~repro.obs.registry.FINE_LATENCY_BUCKETS`.
    """

    def __init__(
        self,
        engine,
        *,
        config: Optional[ServeConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry.disabled()
        )
        self.stream = engine.open_stream(telemetry=self.telemetry)
        self.admission = AdmissionController(
            rate=self.config.rate,
            burst=self.config.effective_burst(),
            max_queue_depth=self.config.max_queue_depth,
            telemetry=self.telemetry,
        )
        self.sequencer: SourceSequencer[_Entry] = SourceSequencer(
            max_pending=self.config.max_pending_per_source,
            gap_timeout=self.config.gap_timeout,
        )
        #: Gap-released contexts dropped because their availability
        #: lapsed while held (the ``serve_gap_expired_total`` metric).
        self._gap_expired = 0
        self.batcher: AdaptiveBatcher[_Entry] = AdaptiveBatcher(
            self._enqueue,
            max_size=self.config.batch_max_size,
            max_delay=self.config.batch_max_delay,
            telemetry=self.telemetry,
        )
        self._queue: "asyncio.Queue[List[_Entry]]" = asyncio.Queue()
        self._queued_items = 0
        self._inflight_items = 0
        self._pump_task: Optional[asyncio.Task] = None
        self._pump_errors = 0
        #: ctx_id -> admission wall time, for undecided contexts.
        self._pending: Dict[str, float] = {}
        self._started_wall = time.perf_counter()
        self._decision_hist = self.telemetry.histogram(
            "serve_ingest_decision_seconds",
            buckets=FINE_LATENCY_BUCKETS,
            help="Admission to check+resolve completion (seconds)",
        )
        self._delivery_hist = self.telemetry.histogram(
            "serve_ingest_delivery_seconds",
            buckets=FINE_LATENCY_BUCKETS,
            help="Admission to application delivery (seconds)",
        )
        bus = self.stream.bus
        bus.subscribe(ContextDelivered, self._on_delivered)
        bus.subscribe(ContextDiscarded, self._on_terminal)
        bus.subscribe(ContextExpired, self._on_terminal)
        # Async-check ingress refusals are terminal too: a stale or
        # duplicate context never reaches a pool, so its pending entry
        # must be settled here or drain would report it as lost.
        bus.subscribe(ContextStale, self._on_terminal)
        bus.subscribe(ContextDuplicate, self._on_terminal)
        self._sweeper_task: Optional[asyncio.Task] = None
        self.draining = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the engine pump task (requires a running loop)."""
        if self._pump_task is None:
            self._pump_task = asyncio.get_running_loop().create_task(
                self._pump(), name="serve-engine-pump"
            )
        if self._sweeper_task is None and self.config.gap_timeout is not None:
            self._sweeper_task = asyncio.get_running_loop().create_task(
                self._gap_sweeper(), name="serve-gap-sweeper"
            )

    def _now(self) -> float:
        return time.perf_counter()

    # -- arrival path --------------------------------------------------------

    def queue_depth(self) -> int:
        """Admitted contexts not yet through check+resolve."""
        return (
            self.sequencer.pending()
            + len(self.batcher)
            + self._queued_items
            + self._inflight_items
        )

    def submit_record(
        self,
        record: Union[Mapping[str, Any], Context],
        *,
        source: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> SubmitResult:
        """Submit one context record; returns its admission verdict.

        Raises :class:`~repro.serve.protocol.ParseError` for malformed
        records (a client error, not a shed).  Must be called on the
        event loop thread.
        """
        if isinstance(record, Context):
            ctx = record
        else:
            ctx, record_seq = context_from_record(
                record, default_timestamp=self._now() - self._started_wall
            )
            if seq is None:
                seq = record_seq
        reason = self.admission.admit(self.queue_depth())
        if reason is not None:
            return SubmitResult(ctx.ctx_id, False, reason, 0)
        entry: _Entry = (ctx, self._now())
        try:
            released = self.sequencer.push(
                source if source is not None else ctx.source, entry, seq
            )
        except SequenceError as error:
            _log.warning("sequencing shed for %s: %s", ctx.ctx_id, error)
            self.admission.revoke("order")
            return SubmitResult(ctx.ctx_id, False, "order", 0)
        for _, released_entry in released:
            self._pending[released_entry[0].ctx_id] = released_entry[1]
            self.batcher.add(released_entry)
        # Opportunistic sweep: a busy service skips starved gaps on the
        # arrival path too, not only at the sweeper's cadence.
        self._sweep_gaps()
        return SubmitResult(ctx.ctx_id, True, None, len(released))

    # -- gap sweeping --------------------------------------------------------

    def _sweep_gaps(self) -> int:
        """Skip starved sequence gaps; forward the released survivors.

        Returns how many gap-released contexts were forwarded.  A
        gap-released context spent wall time buffered; one whose
        availability window lapsed while held (expiry at or before the
        service's sim clock, wall seconds since start -- the same
        mapping :func:`~repro.serve.protocol.context_from_record` uses
        to default timestamps) is dropped here with
        ``serve_gap_expired_total`` instead of being forwarded to the
        engine as a corpse.  No-op when ``gap_timeout`` is unset.
        """
        skips_before = self.sequencer.gap_skips
        released = self.sequencer.expire_gaps()
        skipped = self.sequencer.gap_skips - skips_before
        if skipped:
            self.telemetry.count(
                "serve_gap_skips",
                amount=skipped,
                help="Sequence slots skipped by gap timeouts",
            )
        if not released:
            return 0
        sim_now = self._now() - self._started_wall
        forwarded = 0
        for _, (ctx, ingest_t) in released:
            if ctx.expiry <= sim_now:
                self._gap_expired += 1
                self.telemetry.count(
                    "serve_gap_expired_total",
                    help="Gap-released contexts dropped: availability "
                    "lapsed while held",
                )
                continue
            self._pending[ctx.ctx_id] = ingest_t
            self.batcher.add((ctx, ingest_t))
            forwarded += 1
        return forwarded

    async def _gap_sweeper(self) -> None:
        """Sweep starved gaps at half the timeout, forever (cancelled
        at drain).  Half the timeout bounds how much a starved gap can
        overshoot ``gap_timeout`` between sweeps."""
        interval = self.config.gap_timeout / 2
        while True:
            await asyncio.sleep(interval)
            self._sweep_gaps()

    # -- engine pump ---------------------------------------------------------

    def _enqueue(self, batch: List[_Entry]) -> None:
        self._queued_items += len(batch)
        self._queue.put_nowait(batch)

    async def _pump(self) -> None:
        """Feed flushed batches to the engine stream, strictly in order."""
        while True:
            batch = await self._queue.get()
            self._queued_items -= len(batch)
            self._inflight_items = len(batch)
            try:
                self.stream.submit([entry[0] for entry in batch])
                decided_at = self._now()
                for ctx, ingest_t in batch:
                    self._decision_hist.observe(decided_at - ingest_t)
                self.telemetry.count(
                    "serve_decided_total",
                    amount=len(batch),
                    help="Contexts through check+resolve",
                )
            except Exception:
                # Fail soft: an engine fault must not wedge the pump --
                # the batch's contexts are accounted as lost in stats()
                # (their pending entries stay), loudly.
                self._pump_errors += 1
                _log.exception(
                    "engine pump failed on a %d-context batch", len(batch)
                )
                self.telemetry.count(
                    "serve_pump_errors_total", help="Engine pump failures"
                )
            finally:
                self._inflight_items = 0
                self._queue.task_done()

    # -- decision accounting -------------------------------------------------

    def _on_delivered(self, event) -> None:
        ingest_t = self._pending.pop(event.context.ctx_id, None)
        if ingest_t is not None:
            self._delivery_hist.observe(self._now() - ingest_t)

    def _on_terminal(self, event) -> None:
        self._pending.pop(event.context.ctx_id, None)

    # -- graceful shutdown ---------------------------------------------------

    async def drain(self) -> Dict[str, Any]:
        """Quiesce: shed new arrivals, resolve everything admitted.

        Returns a drain report; ``lost`` must be 0 unless the pump hit
        an engine fault mid-run (``pump_errors``).
        """
        self.draining = True
        self.admission.close()
        # Release the sequencer's held tail (sources whose gaps will
        # now never fill) in per-source seq order, so held-but-admitted
        # contexts are resolved rather than dropped.
        for _, entry in self.sequencer.flush_held():
            self._pending[entry[0].ctx_id] = entry[1]
            self.batcher.add(entry)
        self.batcher.drain()
        await self.start()  # drain works even if start() was never called
        await self._queue.join()
        self.stream.close()
        bus = self.stream.bus
        bus.unsubscribe(ContextDelivered, self._on_delivered)
        bus.unsubscribe(ContextDiscarded, self._on_terminal)
        bus.unsubscribe(ContextExpired, self._on_terminal)
        bus.unsubscribe(ContextStale, self._on_terminal)
        bus.unsubscribe(ContextDuplicate, self._on_terminal)
        for task_attr in ("_pump_task", "_sweeper_task"):
            task = getattr(self, task_attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, task_attr, None)
        report = {
            "admitted": self.admission.admitted,
            "decided": self.stream.decided(),
            "delivered": self.stream.delivered,
            "discarded": self.stream.discarded,
            "expired": self.stream.expired,
            "lost": len(self._pending),
            "gap_skips": self.sequencer.gap_skips,
            "gap_expired": self._gap_expired,
            "pump_errors": self._pump_errors,
        }
        if report["lost"]:
            _log.error(
                "drain lost %d admitted context(s): %s",
                report["lost"],
                sorted(self._pending)[:10],
            )
        return report

    # -- stats ---------------------------------------------------------------

    @staticmethod
    def _latency_stats(histogram) -> Dict[str, float]:
        count = histogram.count
        return {
            "count": count,
            "mean": (histogram.sum / count) if count else 0.0,
            "p50": histogram.percentile(0.50),
            "p95": histogram.percentile(0.95),
            "p99": histogram.percentile(0.99),
        }

    def stats(self) -> Dict[str, Any]:
        """JSON-ready snapshot (the ``GET /stats`` payload)."""
        return {
            "admission": self.admission.stats(),
            "sequencer": self.sequencer.stats(),
            "batcher": self.batcher.stats(),
            "queue_depth": self.queue_depth(),
            "engine": {
                "submitted": self.stream.submitted,
                "delivered": self.stream.delivered,
                "discarded": self.stream.discarded,
                "expired": self.stream.expired,
                "stale": self.stream.stale,
                "duplicates": self.stream.duplicates,
                "pending_uses": self.stream.pending_uses(),
                "pool_size": self.stream.pool_size(),
            },
            "latency": {
                "ingest_to_decision": self._latency_stats(self._decision_hist),
                "ingest_to_delivery": self._latency_stats(self._delivery_hist),
            },
            "undecided": len(self._pending),
            "gap_expired": self._gap_expired,
            "pump_errors": self._pump_errors,
            "draining": self.draining,
        }
