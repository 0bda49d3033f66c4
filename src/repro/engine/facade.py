"""The engine facade: sharded streaming resolution.

:class:`ShardedEngine` is the scalable counterpart of
:class:`~repro.middleware.manager.Middleware`: same constraints, same
strategies, same event vocabulary, same decisions -- but the pool, the
incremental checker and the strategy are instantiated once per
independent constraint scope, so disjoint scopes never pay for each
other's pool scans.

Every shard runs in-process behind one global control loop that
drives all shards through the exact use schedule of the single-pool
middleware: the use window counts (or times) arrivals over the whole
stream, not per shard.  Events stream live on ``engine.bus`` in global
order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..constraints.ast import Constraint
from ..constraints.builtins import FunctionRegistry, standard_registry
from ..core.context import Context
from ..ledger import LedgerWriter, entries_from_events
from ..ledger import ruleset_document as build_ruleset_document
from ..ledger import ruleset_hash as hash_ruleset
from ..middleware.bus import ContextDelivered, ContextDiscarded, Event, EventBus
from ..obs.telemetry import Telemetry
from .config import EngineConfig
from .metrics import EngineMetrics
from .router import ContextRouter
from .scope import partition_constraints
from .shard import ShardPipeline, ShardSpec, StreamDriver

__all__ = ["ShardedEngine", "EngineResult"]


@dataclass
class EngineResult:
    """Aggregated outcome of one engine run.

    ``delivered``/``discarded`` are in decision order; ``events`` is
    the globally ordered event stream; ``metrics`` carries the
    throughput/per-shard numbers the benchmarks record.
    """

    delivered: List[Context] = field(default_factory=list)
    discarded: List[Context] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)
    metrics: EngineMetrics = field(default_factory=EngineMetrics)

    @property
    def delivered_ids(self) -> List[str]:
        return [c.ctx_id for c in self.delivered]

    @property
    def discarded_ids(self) -> List[str]:
        return [c.ctx_id for c in self.discarded]

    def decision_signature(self) -> Dict[str, List[str]]:
        """The engine's externally visible decisions, for equivalence
        checks against the single-pool middleware."""
        return {
            "delivered": self.delivered_ids,
            "discarded": self.discarded_ids,
        }


class ShardedEngine:
    """Sharded streaming resolution over independent constraint scopes.

    Parameters
    ----------
    constraints:
        The consistency constraints to enforce (uniquely named).
    strategy:
        Registered strategy name instantiated once per shard; each
        shard owns an independent instance, which is safe because
        every inconsistency is confined to one scope group.
        Stochastic strategies (``drop-random``) are not decision-
        equivalent to the single-pool middleware -- the per-shard RNGs
        draw in a different order.
    strategy_kwargs:
        Keyword arguments for the strategy factory.
    registry_factory:
        Zero-argument callable building the predicate registry each
        shard's checker uses; defaults to the standard library
        registry.
    config:
        Engine tunables (shards, windows, batching, ledger).
    telemetry:
        Optional :class:`repro.obs.Telemetry` bundle.  When given, the
        shards' stage timers and spans land in it.  The engine always
        keeps *some* bundle -- metrics are a view over its registry --
        so omitting this only disables the hot-path span/histogram
        hooks, not the accounting.
    """

    def __init__(
        self,
        constraints: Iterable[Constraint],
        *,
        strategy: str = "drop-latest",
        strategy_kwargs: Optional[dict] = None,
        registry_factory: Callable[[], FunctionRegistry] = standard_registry,
        config: Optional[EngineConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.constraints = tuple(constraints)
        self.strategy_name = strategy
        self.strategy_kwargs = tuple(sorted((strategy_kwargs or {}).items()))
        self.registry_factory = registry_factory
        self.partition = partition_constraints(self.constraints, self.config.shards)
        self.router = ContextRouter(self.partition)
        #: Outward event stream (same vocabulary as ``Middleware.bus``).
        self.bus = EventBus()
        self.telemetry = telemetry
        self._ruleset_hash: Optional[str] = None

    # -- construction helpers ----------------------------------------------

    def shard_specs(self) -> List[ShardSpec]:
        return [
            ShardSpec(
                shard_id=shard_id,
                constraints=self.partition.shard_constraints[shard_id],
                strategy=self.strategy_name,
                strategy_kwargs=self.strategy_kwargs,
                registry_factory=self.registry_factory,
                kernels=self.config.kernels,
                batch_kernels=self.config.batch_kernels,
            )
            for shard_id in range(self.config.shards)
        ]

    def build_driver(
        self, telemetry: Telemetry
    ) -> Tuple[List[ShardPipeline], StreamDriver]:
        """Build every shard pipeline and the one driver over them.

        The shards share ``telemetry`` (one registry, one span ring)
        and publish onto ``self.bus``; the driver routes arrivals and
        keeps the single global use schedule.
        """
        pipelines: List[ShardPipeline] = []
        for spec in self.shard_specs():
            pipeline = spec.build(telemetry=telemetry)
            pipeline.bus = self.bus
            pipelines.append(pipeline)
        driver = StreamDriver(
            pipelines,
            self.router.route,
            use_window=self.config.use_window,
            use_delay=self.config.use_delay,
            async_check=self.config.async_check,
            batch_kernels=self.config.batch_kernels,
        )
        return pipelines, driver

    def ruleset_document(self) -> dict:
        """The run's full resolution configuration as a ledger ruleset.

        Covers everything that determines decisions -- constraint DSL
        texts, strategy + kwargs, window semantics, predicate registry
        -- and deliberately excludes decision-neutral execution knobs
        (kernels, mode, shard count), so a kernels-on and a kernels-off
        run of the same configuration share one ``ruleset_hash`` and
        stay diffable.
        """
        return build_ruleset_document(
            self.constraints,
            strategy=self.strategy_name,
            strategy_kwargs=dict(self.strategy_kwargs),
            use_window=self.config.use_window,
            use_delay=self.config.use_delay,
            registry_factory=self.registry_factory,
            async_check=(
                self.config.async_check.to_document()
                if self.config.async_check is not None
                else None
            ),
        )

    @property
    def ruleset_hash(self) -> str:
        """Hash of :meth:`ruleset_document` (cached; config is frozen)."""
        if self._ruleset_hash is None:
            self._ruleset_hash = hash_ruleset(self.ruleset_document())
        return self._ruleset_hash

    # -- open sessions -------------------------------------------------------

    def open_stream(self, *, telemetry: Optional[Telemetry] = None):
        """Open a push-style inline session (the serving entrypoint).

        Returns an :class:`~repro.engine.stream.EngineStream`: arrivals
        are submitted incrementally in batches, pending uses survive
        between submissions, and ``close()`` performs the end-of-stream
        flush.  Decisions are byte-identical to :meth:`run` over the
        same concatenated stream.  ``telemetry``
        overrides the engine's bundle for this session.
        """
        from .stream import EngineStream  # local import: cycle

        return EngineStream(self, telemetry=telemetry)

    # -- running -------------------------------------------------------------

    def run(self, contexts: Iterable[Context]) -> EngineResult:
        """Resolve a whole stream; returns the aggregated result.

        ``contexts`` may be any iterable (including a lazy trace
        reader); it is consumed streamingly.
        """
        self.router.routed = {i: 0 for i in range(self.config.shards)}
        # Every run accounts into *some* registry; a caller-supplied
        # bundle keeps Prometheus counter semantics (cumulative across
        # runs), an implicit one is fresh per engine.
        telemetry = (
            self.telemetry if self.telemetry is not None else Telemetry.disabled()
        )
        telemetry.registry.gauge(
            "repro_ruleset_info",
            help="Resolution ruleset identity (value is always 1)",
            labels={"ruleset_hash": self.ruleset_hash},
        ).set(1.0)
        started = time.perf_counter()
        result = self._run_inline(contexts, telemetry)
        # Ledger emission is part of the run, so its cost lands inside
        # elapsed_s -- the benchmark's overhead column stays honest.
        if self.config.ledger_path:
            self._write_ledger(result, telemetry)
        result.metrics.elapsed_s = time.perf_counter() - started
        return result

    def _write_ledger(self, result: EngineResult, telemetry: Telemetry) -> None:
        """Emit the run's decision ledger to ``config.ledger_path``.

        Converts the globally ordered event stream, attributing shards
        through the router's pure :meth:`shard_for`.  (Recording live
        off the bus was measured as a wash against this post-hoc walk:
        the extra per-event subscriber dispatch costs what the
        warm-cache entry build saves.)
        """
        entries = entries_from_events(
            result.events, shard_of=self.router.shard_for
        )
        meta = {
            "host": "engine",
            "mode": "inline",
            "shards": self.config.shards,
            "kernels": self.config.kernels,
            "batch_kernels": self.config.batch_kernels,
        }
        with LedgerWriter(
            self.config.ledger_path,
            self.ruleset_document(),
            meta=meta,
            fsync=self.config.ledger_fsync,
            buffer_entries=len(entries) + 1,
            telemetry=telemetry,
        ) as writer:
            # The entry dicts are freshly built above and discarded
            # after the write, so the defensive copy is skipped.
            writer.append_many(entries, copy=False)

    # -- the run loop ----------------------------------------------------------

    def _run_inline(
        self, contexts: Iterable[Context], telemetry: Telemetry
    ) -> EngineResult:
        pipelines, driver = self.build_driver(telemetry)
        events: List[Event] = []
        self.bus.subscribe(Event, events.append)
        try:
            if self.config.runtime_batch:
                driver.receive_all(contexts)
            else:
                for ctx in contexts:
                    driver.receive(ctx)
                driver.flush_uses()
        finally:
            # The bus outlives the run: a later run's events must not
            # land in this result.
            self.bus.unsubscribe(Event, events.append)
        delivered = [e.context for e in events if isinstance(e, ContextDelivered)]
        discarded = [e.context for e in events if isinstance(e, ContextDiscarded)]
        for pipeline in pipelines:
            pipeline.flush_stats()
        metrics = EngineMetrics.from_registry(
            telemetry.registry, shards=self.config.shards
        )
        return EngineResult(
            delivered=delivered,
            discarded=discarded,
            events=events,
            metrics=metrics,
        )
