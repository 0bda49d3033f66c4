"""Shard adapters over the canonical runtime.

The receive/check/resolve/use/expire life cycle lives in exactly one
place -- :mod:`repro.runtime` -- and this module only *adapts* it to
the sharded engine:

* :class:`ShardPipeline` is a
  :class:`~repro.runtime.pipeline.ResolutionPipeline` with a shard id,
  per-shard arrival/use counters and the ``engine_shard_*`` accounting
  (:meth:`~ShardPipeline.flush_stats`).  No stage logic is defined
  here.
* :class:`StreamDriver` is a
  :class:`~repro.runtime.pipeline.PipelineDriver` under its historical
  name: driving all *n* shard pipelines through one driver reproduces
  the single-pool middleware's use schedule globally.
* :class:`ShardSpec` names what one shard is built from (its
  constraints, strategy and checker options).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..constraints.ast import Constraint
from ..constraints.builtins import FunctionRegistry, standard_registry
from ..constraints.checker import ConstraintChecker
from ..core.context import Context
from ..core.resolver import AddOutcome, UseOutcome
from ..core.strategy import ResolutionStrategy, make_strategy
from ..middleware.bus import EventBus
from ..runtime.pipeline import PipelineDriver, ResolutionPipeline

__all__ = ["ShardPipeline", "StreamDriver", "ShardSpec"]


class ShardPipeline(ResolutionPipeline):
    """One shard's pool, detector and strategy, externally scheduled.

    The life cycle itself is inherited; this class adds the shard id,
    the per-shard arrival/use counters and the ``engine_shard_*``
    registry accounting.  The receive/use stage wrappers record
    histogram-only (``wrapper_spans=False``): their interesting
    sub-work (check/resolve/deliver) is already spanned inside, and the
    throughput engine pays for every span it opens (see the telemetry
    overhead benchmark).
    """

    def __init__(
        self,
        shard_id: int,
        detector,
        strategy: ResolutionStrategy,
        bus: Optional[EventBus] = None,
        telemetry=None,
    ) -> None:
        self.shard_id = shard_id
        #: Contexts this shard has processed (arrivals routed here).
        self.arrivals = 0
        self.uses = 0
        # Each pipeline needs a registry of its own (or its engine's):
        # EngineMetrics is a view over it -- flush_stats() lands here,
        # even when the bundle is disabled, so a shared NULL bundle
        # would collide shards into one registry.
        if telemetry is None:
            from ..obs.telemetry import Telemetry

            telemetry = Telemetry.disabled()
        super().__init__(
            detector,
            strategy,
            bus=bus,
            telemetry=telemetry,
            wrapper_spans=False,
        )

    def add(self, ctx: Context, now: float, detected=None) -> AddOutcome:
        self.arrivals += 1
        return super().add(ctx, now, detected=detected)

    def expire_on_receive(self, ctx: Context, now: float) -> None:
        # A dead-on-arrival context was still routed here: it counts
        # toward engine_shard_contexts_total like any other arrival.
        self.arrivals += 1
        super().expire_on_receive(ctx, now)

    def use(self, ctx: Context, now: float) -> UseOutcome:
        self.uses += 1
        return super().use(ctx, now)

    # -- diagnostics --------------------------------------------------------

    def detect_calls(self) -> int:
        detector = self.resolution.detector
        return getattr(detector, "detect_calls", 0)

    def flush_stats(self) -> None:
        """Write this shard's run accounting into the telemetry registry.

        Called once after the shard's stream is drained.  These
        ``engine_shard_*`` series are what
        :meth:`~repro.engine.metrics.EngineMetrics.from_registry`
        reads back -- the registry is the single accounting path.
        Recorded even when the bundle is
        disabled (plain counters; the hot-path span/histogram hooks
        stay off).
        """
        registry = self.telemetry.registry
        labels = {"shard": str(self.shard_id)}
        log = self.resolution.log
        registry.counter(
            "engine_shard_contexts_total",
            help="Contexts routed to the shard",
            labels=labels,
        ).inc(self.arrivals)
        registry.counter(
            "engine_shard_delivered_total",
            help="Contexts the shard delivered",
            labels=labels,
        ).inc(len(log.delivered))
        registry.counter(
            "engine_shard_discarded_total",
            help="Contexts the shard discarded",
            labels=labels,
        ).inc(len(log.discarded))
        registry.counter(
            "engine_shard_inconsistencies_total",
            help="Inconsistencies the shard detected",
            labels=labels,
        ).inc(len(log.detected))
        registry.counter(
            "engine_shard_detect_calls_total",
            help="Incremental checker invocations on the shard",
            labels=labels,
        ).inc(self.detect_calls())
        constraints = getattr(self.resolution.detector, "constraints", None)
        if callable(constraints):
            registry.gauge(
                "engine_shard_constraints",
                help="Constraints assigned to the shard",
                labels=labels,
            ).set(len(constraints()))


class StreamDriver(PipelineDriver):
    """Global use scheduling over one or more shard pipelines.

    The historical engine name for the canonical
    :class:`~repro.runtime.pipeline.PipelineDriver` -- the clock, the
    :class:`~repro.runtime.scheduler.UseScheduler` and the arrival
    loop are all inherited unchanged.
    """


@dataclass(frozen=True)
class ShardSpec:
    """What one shard's pipeline is built from."""

    shard_id: int
    constraints: Tuple[Constraint, ...]
    strategy: str = "drop-latest"
    strategy_kwargs: Tuple[Tuple[str, object], ...] = ()
    registry_factory: Callable[[], FunctionRegistry] = standard_registry
    #: Compiled constraint kernels + equality-join candidate indexes
    #: (the ``--no-kernels`` escape hatch turns this off).
    kernels: bool = True
    #: Columnar batched detection: the runtime batch path plans
    #: verdict runs through ``ConstraintChecker.detect_batch`` (the
    #: ``--no-batch-kernels`` escape hatch turns this off; decisions
    #: are identical either way).
    batch_kernels: bool = True

    def build(self, telemetry=None) -> ShardPipeline:
        """Build the pipeline; the engine passes its one shared
        ``telemetry`` bundle to every shard (``None`` gives the shard
        a disabled bundle of its own)."""
        checker = ConstraintChecker(
            self.constraints,
            registry=self.registry_factory(),
            kernels=self.kernels,
            batch_kernels=self.batch_kernels,
        )
        strategy = make_strategy(self.strategy, **dict(self.strategy_kwargs))
        return ShardPipeline(
            self.shard_id, checker, strategy, telemetry=telemetry
        )
