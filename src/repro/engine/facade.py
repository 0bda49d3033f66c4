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
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..constraints.ast import Constraint
from ..constraints.builtins import FunctionRegistry, standard_registry
from ..core.context import Context
from ..ledger import ruleset_document as build_ruleset_document
from ..ledger import ruleset_hash as hash_ruleset
from ..middleware.bus import ContextDelivered, ContextDiscarded, Event, EventBus
from ..obs.telemetry import Telemetry
from ..runtime.pipeline import PipelineDriver
from .config import EngineConfig
from .metrics import EngineMetrics
from .router import ContextRouter
from .scope import partition_constraints
from .shard import ShardPipeline, ShardSpec

__all__ = ["ShardedEngine", "EngineResult"]


@dataclass
class EngineResult:
    """Aggregated outcome of one engine run.

    ``delivered``/``discarded`` are in decision order; ``metrics``
    carries the throughput/per-shard numbers the benchmarks record.
    """

    delivered: List[Context] = field(default_factory=list)
    discarded: List[Context] = field(default_factory=list)
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
    ) -> Tuple[List[ShardPipeline], PipelineDriver]:
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
        driver = PipelineDriver(
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
        flush.  :meth:`run` is one such session over a whole stream.
        ``telemetry`` overrides the engine's bundle for this session.
        """
        from .stream import EngineStream  # local import: cycle

        return EngineStream(self, telemetry=telemetry)

    # -- running -------------------------------------------------------------

    def run(self, contexts: Iterable[Context]) -> EngineResult:
        """Resolve a whole stream; returns the aggregated result.

        One :meth:`open_stream` session: ``contexts`` (any iterable,
        including a lazy trace reader) is submitted in bounded chunks
        and the session closed, so decisions -- and the ledger, when
        ``config.ledger_path`` is set -- are the open stream's by
        construction.
        """
        result = EngineResult()

        def on_delivered(event: Event) -> None:
            result.delivered.append(event.context)

        def on_discarded(event: Event) -> None:
            result.discarded.append(event.context)

        started = time.perf_counter()
        stream = self.open_stream()
        self.bus.subscribe(ContextDelivered, on_delivered)
        self.bus.subscribe(ContextDiscarded, on_discarded)
        try:
            iterator = iter(contexts)
            while True:
                chunk = list(islice(iterator, 256))
                if not chunk:
                    break
                stream.submit(chunk)
        finally:
            # Closing flushes the pending uses and the ledger inside
            # elapsed_s; closing on error too releases the ledger file
            # and the session's subscriptions.  The bus outlives the
            # run, so a later run's decisions must not land here.
            stream.close()
            self.bus.unsubscribe(ContextDelivered, on_delivered)
            self.bus.unsubscribe(ContextDiscarded, on_discarded)
        result.metrics = EngineMetrics.from_registry(
            stream.telemetry.registry, shards=self.config.shards
        )
        result.metrics.elapsed_s = time.perf_counter() - started
        return result
