"""Amortized batch arrivals over a :class:`~.pipeline.PipelineDriver`.

:func:`receive_batch` applies a sequence of contexts with decisions
byte-identical to calling ``driver.receive`` per context -- the
equivalence suite machine-checks this -- while hoisting the per-arrival
bookkeeping the sequential path pays:

* **Expiry sweep guard.**  The sequential path asks every pipeline for
  due expiries on every arrival (O(shards) heap peeks per context).
  The batch path tracks one running lower bound -- the minimum pending
  expiry across all pipelines, tightened as admitted contexts bring
  finite lifespans in -- and sweeps only when the simulation clock
  actually reaches it.  Streams of immortal contexts pay a single float
  comparison per arrival.
* **Bound-method hoisting.**  The clock, scheduler, router and
  pipeline lookups are resolved once per batch, not per context.

Sweeping on the bound is sound because pool *removals* (uses, discards)
can only raise the true minimum pending expiry -- a stale bound causes
at most one redundant (cheap, heap-guarded) sweep -- and every pool
*insert* during the batch passes through ``pipeline.add``, where the
bound is tightened with the newcomer's expiry before the next arrival.

The bound stays sound even when batch timestamps *regress* (a late,
older-timestamped arrival), because of the dead-on-arrival intercept:
``now`` itself never regresses (it is the max of the clock and the
arrival timestamp), and a late context whose availability already
lapsed (``expiry <= now``) is expired at receive instead of admitted.
Every context that reaches the pool therefore satisfies
``expiry > now``, so tightening the bound with it can never place
``next_expiry`` in the past and no admitted context can sit in the
pool beyond its availability waiting for a sweep the bound skipped.
(Before the intercept, a regressing timestamp could admit an
already-dead context and deliver it from the very ``drain`` call that
follows -- the non-monotonic-timestamp hole the regression tests in
``tests/runtime/test_doa_and_regress.py`` pin.)

Since ISSUE 9 the batch path also *detects* in batches: when the
driver's ``batch_kernels`` flag is on, a planning pass precomputes
detection verdicts for whole runs of arrivals through the detector's
``detect_batch`` (the columnar kernel path of
:class:`~repro.constraints.checker.ConstraintChecker`), and each
arrival consumes its precomputed verdict instead of paying a
per-context ``detect``.  See :class:`_BatchDetectPlanner` for the
exact soundness conditions; whenever they cannot be established the
arrival transparently falls back to the per-context detect, so
decisions never depend on the flag.

The engine's open streams (its ``run`` is one) and the middleware's
``receive_all`` all feed through here, so the batch path is the one
hot loop everything shares.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..core.context import Context
from .pipeline import PipelineDriver, ResolutionPipeline

__all__ = ["receive_batch"]


class _BatchDetectPlanner:
    """Precomputed ``detect_batch`` verdicts for one pipeline's arrivals.

    ``detect_batch``'s contract is the sequential sweep: row ``k`` is
    checked against the pre-existing scope plus rows ``[:k]``, both
    filtered to contexts alive at the row's clock.  That matches the
    real lifecycle exactly as long as

    * every planned row is admitted when its turn comes (no strategy
      discard of the newcomer or of victims, no dead-on-arrival or
      duplicate interception), and
    * nothing else leaves the pool except expiry (which the per-row
      cutoff filter reproduces), and
    * every pooled context participates in checking
      (``strategy.pool_equals_checking_scope``).

    The planner is therefore *reactive*: verdicts are precomputed
    optimistically for the maximal run of arrivals that provably
    cannot be intercepted (duplicate and dead-on-arrival checks are
    decidable at planning time -- clocks depend only on timestamps),
    and every non-expiry pool removal shows up in the pipeline's
    discard log, whose length is re-checked before each verdict is
    consumed.  On a mismatch the remaining rows are re-planned against
    the current pool, so a discard costs one extra ``detect_batch``
    call, never a wrong verdict.  Row identity and clock are verified
    per consume; any divergence abandons the plan for the rest of the
    batch (per-context fallback).
    """

    __slots__ = (
        "pipeline",
        "detector",
        "ids",
        "rows",
        "nows",
        "verdicts",
        "cursor",
        "discard_mark",
        "open",
    )

    def __init__(self, pipeline: ResolutionPipeline) -> None:
        self.pipeline = pipeline
        self.detector = pipeline.resolution.detector
        self.ids: Set[str] = set()
        self.rows: List[Context] = []
        self.nows: List[float] = []
        self.verdicts: List[List] = []
        self.cursor = 0
        self.discard_mark = 0
        #: Still accepting rows during the planning scan.
        self.open = True

    def offer(self, ctx: Context, now: float) -> None:
        """Accept ``ctx`` into the planned run, or close the run.

        A context that would be intercepted before detection -- dead on
        arrival (decidable now: clocks are timestamp-determined) or a
        duplicate of a live pooled id or of an earlier planned row --
        ends the run: everything after it takes the per-context path.
        """
        if not self.open:
            return
        if (
            ctx.expiry <= now
            or ctx.ctx_id in self.ids
            or self.pipeline.pool.get(ctx.ctx_id) is not None
        ):
            self.open = False
            return
        self.ids.add(ctx.ctx_id)
        self.rows.append(ctx)
        self.nows.append(now)

    def plan(self) -> None:
        """Precompute the verdicts for the accepted run.

        The ``detect_batch`` call is timed as the ``check`` stage (one
        observation per planned batch), so checking latency stays
        visible in the same histogram the per-context path feeds.
        """
        pipeline = self.pipeline
        self.discard_mark = len(pipeline.resolution.log.discarded)
        if self.rows:
            with pipeline.resolution.stage_check:
                self.verdicts = self.detector.detect_batch(
                    self.rows, pipeline.pool.contents(), self.nows
                )

    def take(self, ctx: Context, now: float) -> Optional[List]:
        """The precomputed verdict for ``ctx``, or ``None`` to fall back.

        Re-plans the remaining rows when the pipeline discarded
        contexts since the verdicts were computed (the scope the plan
        assumed no longer matches the pool).
        """
        if self.cursor >= len(self.rows):
            return None
        if len(self.pipeline.resolution.log.discarded) != self.discard_mark:
            del self.rows[: self.cursor]
            del self.nows[: self.cursor]
            self.cursor = 0
            self.plan()
        row = self.rows[self.cursor]
        if row.ctx_id != ctx.ctx_id or self.nows[self.cursor] != now:
            # The lifecycle diverged from the planned model (should be
            # unreachable -- interceptions are planned around); abandon
            # the rest of the plan rather than risk a stale verdict.
            self.cursor = len(self.rows)
            return None
        verdict = self.verdicts[self.cursor]
        self.cursor += 1
        return verdict


def _batch_planners(
    driver: PipelineDriver,
    contexts: Sequence[Context],
    routes: Sequence[int],
) -> Optional[Dict[int, _BatchDetectPlanner]]:
    """Plan ``detect_batch`` verdict runs for every eligible pipeline.

    Eligibility mirrors :class:`_BatchDetectPlanner`'s soundness
    conditions: the detector must expose ``detect_batch`` with its
    batch kernels enabled (with them off the sequential emulation would
    only add overhead), and the strategy must guarantee that the pool
    *is* the checking scope.  ``routes`` is the precomputed pipeline
    index per context (the caller routes each context exactly once
    and shares the result with the hot loop).  Returns ``None``
    when no pipeline qualifies, so the hot loop skips planner lookups
    entirely.
    """
    planners: Dict[int, Optional[_BatchDetectPlanner]] = {}
    for index, pipeline in enumerate(driver.pipelines):
        detector = pipeline.resolution.detector
        if (
            getattr(detector, "batch_kernels", False)
            and callable(getattr(detector, "detect_batch", None))
            and getattr(
                pipeline.resolution.strategy,
                "pool_equals_checking_scope",
                False,
            )
        ):
            planners[index] = _BatchDetectPlanner(pipeline)
        else:
            planners[index] = None
    if not any(planner is not None for planner in planners.values()):
        return None
    # One forward pass replays the clock advance (a pure function of
    # the timestamps) and offers each context to its pipeline's
    # planner.
    sim_now = driver.clock.now()
    for ctx, index in zip(contexts, routes):
        if ctx.timestamp > sim_now:
            sim_now = ctx.timestamp
        planner = planners[index]
        if planner is not None:
            planner.offer(ctx, sim_now)
    out = {
        index: planner
        for index, planner in planners.items()
        if planner is not None and planner.rows
    }
    if not out:
        return None
    for planner in out.values():
        planner.plan()
    return out


def receive_batch(
    driver: PipelineDriver, contexts: Sequence[Context]
) -> int:
    """Apply ``contexts`` in order; returns how many were processed."""
    if driver.ingress is not None:
        # Asynchronous checking: the snapshot window decides release
        # order per arrival, so the hoisted fast path (whose sweep
        # bound amortization assumes arrivals are processed as they
        # come) hands over to the per-context path.
        for ctx in contexts:
            driver.receive(ctx)
        return len(contexts)
    pipelines = driver.pipelines
    scheduler = driver.scheduler
    clock = driver.clock
    route = driver.route
    time_based = scheduler.use_delay is not None
    drain = driver.drain_due_uses
    advance = clock.advance_to
    clock_now = clock.now
    # Each context is routed exactly once: the planning pass and the
    # hot loop share the precomputed indices.
    routes: Optional[List[int]] = None
    planners = None
    if getattr(driver, "batch_kernels", True):
        routes = [route(ctx) for ctx in contexts]
        planners = _batch_planners(driver, contexts, routes)

    next_expiry = min(
        (pipeline.next_expiry() for pipeline in pipelines),
        default=float("inf"),
    )
    position = 0
    for ctx in contexts:
        pipeline_index = routes[position] if routes is not None else route(ctx)
        position += 1
        now = ctx.timestamp
        current = clock_now()
        if current > now:
            now = current
        else:
            advance(now)
        if next_expiry <= now:
            for pipeline in pipelines:
                pipeline.expire_due(now)
            next_expiry = min(
                (pipeline.next_expiry() for pipeline in pipelines),
                default=float("inf"),
            )
        if time_based:
            drain(now)

        if ctx.expiry <= now:
            # Dead on arrival (see the module docstring): expire at
            # receive; the pool, the scheduler and the sweep bound
            # never see a context whose availability already lapsed.
            pipelines[pipeline_index].expire_on_receive(ctx, now)
            continue
        if pipelines[pipeline_index].pool.get(ctx.ctx_id) is not None:
            # Live-id re-delivery: refuse, mirroring the per-context
            # path (see PipelineDriver._receive_now).
            pipelines[pipeline_index].refuse_duplicate(ctx, now)
            continue
        detected = None
        if planners is not None:
            planner = planners.get(pipeline_index)
            if planner is not None:
                detected = planner.take(ctx, now)
        outcome = pipelines[pipeline_index].add(ctx, now, detected=detected)
        if ctx.ctx_id not in {c.ctx_id for c in outcome.discarded}:
            scheduler.schedule(ctx, pipeline_index, now)
            if ctx.expiry < next_expiry:
                next_expiry = ctx.expiry

        drain(now)
    return position
