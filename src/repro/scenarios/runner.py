"""PackRunner: drive any scenario pack through the canonical runtime.

One :meth:`PackRunner.run` plays one generated stream under one
strategy on one *host* -- the event-driven ``middleware`` or the
sharded ``inline`` engine -- and
returns the paper's Figure 9/10 counters (:class:`GroupMetrics`)
together with the Livshits-style inconsistency measures of both the
raw stream and the delivered stream.  The delivered-stream measures
are the *residual* inconsistency a strategy let through to
applications: the principled ranking signal
:func:`rank_strategies` sorts by.

:meth:`PackRunner.sweep` is the one-invocation full-roster sweep
(ROADMAP item 4): every strategy of the pack's roster -- including the
stochastic ``drop-random`` and the preference-driven
``user-specified`` -- over every error rate, sharing streams per
(rate, group) cell so comparisons are like-with-like.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.context import Context
from ..core.strategy import ResolutionStrategy, make_strategy
from ..engine import EngineConfig, ShardedEngine
from ..experiments.metrics import (
    GroupMetrics,
    InconsistencyMeasures,
    measure_stream,
)
from ..middleware.bus import ContextDelivered, ContextDiscarded
from ..middleware.manager import Middleware
from ..situations.situation import SituationEngine
from .registry import get_pack
from .spec import ScenarioPack

__all__ = ["HOSTS", "PackRunResult", "PackRunner", "rank_strategies"]

#: Where a pack run can execute: the event-driven middleware or the
#: sharded engine.
HOSTS: Tuple[str, ...] = ("middleware", "inline")


def decision_signature(
    delivered_ids: Sequence[str], discarded_ids: Sequence[str]
) -> str:
    """The canonical decision digest (same form as the runtime goldens)."""
    blob = json.dumps(
        {"delivered": list(delivered_ids), "discarded": list(discarded_ids)},
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _strategy_kwargs(strategy: str, seed: int) -> Dict[str, Any]:
    """Keyword arguments a named strategy is built with on every host.

    Stochastic strategies get an RNG derived from the run seed, so a
    run is reproducible and every host draws the same choices.
    """
    if strategy == "drop-random":
        return {"rng": random.Random(seed ^ 0x5EED)}
    return {}


@dataclass(frozen=True)
class PackRunResult:
    """Everything one pack run produced."""

    pack: str
    strategy: str
    err_rate: float
    seed: int
    host: str
    kernels: bool
    metrics: GroupMetrics
    measures_raw: InconsistencyMeasures
    measures_delivered: InconsistencyMeasures
    delivered_ids: Tuple[str, ...]
    discarded_ids: Tuple[str, ...]

    def signature(self) -> str:
        """Decision digest, comparable against the recorded goldens."""
        return decision_signature(self.delivered_ids, self.discarded_ids)

    def as_record(self) -> Dict[str, Any]:
        """Plain-JSON row for reports and ``BENCH_engine.json``."""
        return {
            "pack": self.pack,
            "strategy": self.strategy,
            "err_rate": self.err_rate,
            "seed": self.seed,
            "host": self.host,
            "kernels": self.kernels,
            "delivered": len(self.delivered_ids),
            "discarded": len(self.discarded_ids),
            "survival_rate": self.metrics.survival_rate,
            "removal_precision": self.metrics.removal_precision,
            "situations_activated": self.metrics.situations_activated,
            "measures_raw": self.measures_raw.as_record(),
            "measures_delivered": self.measures_delivered.as_record(),
            "signature": self.signature(),
        }


class PackRunner:
    """Drives one scenario pack through the runtime hosts."""

    def __init__(
        self,
        pack: Union[ScenarioPack, str],
        *,
        telemetry=None,
        shards: int = 2,
    ) -> None:
        self.pack = get_pack(pack) if isinstance(pack, str) else pack
        self.telemetry = telemetry
        self.shards = shards

    # -- single run ---------------------------------------------------------

    def run(
        self,
        strategy: Union[str, ResolutionStrategy] = "drop-bad",
        *,
        err_rate: Optional[float] = None,
        seed: Optional[int] = None,
        host: str = "middleware",
        kernels: bool = True,
        use_window: Optional[int] = None,
        stream: Optional[Sequence[Context]] = None,
        ledger_path: Optional[str] = None,
        async_check=None,
        measures: bool = True,
    ) -> PackRunResult:
        """One stream, one strategy, one host.

        ``stream`` short-circuits workload generation so sweeps can
        replay the identical stream under every strategy;
        ``ledger_path`` records the run through the existing ledger
        plumbing (a :class:`~repro.ledger.service.LedgerService` on the
        middleware host, ``EngineConfig.ledger_path`` on engine hosts).
        ``measures=False`` skips the static Livshits measurement passes
        (they re-check the full stream, which benchmarks may not want
        inside a timed section).  ``strategy`` is a registered name or,
        on the ``middleware`` host only, a configured
        :class:`~repro.core.strategy.ResolutionStrategy` instance (the
        ablations' variants); the engine builds its strategies from
        names.
        """
        if host not in HOSTS:
            raise ValueError(f"unknown host {host!r}; known: {HOSTS}")
        if isinstance(strategy, str):
            name = strategy
        elif host == "middleware":
            name = strategy.name
        else:
            raise ValueError(
                f"host {host!r} takes a strategy name; only the "
                f"middleware host runs a strategy instance"
            )
        pack = self.pack
        err = pack.envelope.reference_err_rate if err_rate is None else err_rate
        run_seed = pack.default_seed if seed is None else seed
        window = pack.use_window if use_window is None else use_window
        contexts = (
            list(stream)
            if stream is not None
            else pack.generate_workload(err, run_seed)
        )
        if host == "middleware":
            delivered, discarded, detected, activations, spurious = (
                self._run_middleware(
                    strategy,
                    contexts,
                    seed=run_seed,
                    window=window,
                    kernels=kernels,
                    ledger_path=ledger_path,
                    async_check=async_check,
                )
            )
        else:
            delivered, discarded, detected, activations, spurious = (
                self._run_engine(
                    strategy,
                    contexts,
                    seed=run_seed,
                    window=window,
                    kernels=kernels,
                    ledger_path=ledger_path,
                    async_check=async_check,
                )
            )
        metrics = GroupMetrics(
            strategy=name,
            err_rate=err,
            seed=run_seed,
            contexts_total=len(contexts),
            contexts_corrupted=sum(1 for c in contexts if c.corrupted),
            contexts_used=len(delivered),
            contexts_used_corrupted=sum(1 for c in delivered if c.corrupted),
            situations_activated=activations,
            situations_spurious=spurious,
            inconsistencies_detected=detected,
            contexts_discarded=len(discarded),
            discarded_corrupted=sum(1 for c in discarded if c.corrupted),
            discarded_expected=sum(
                1 for c in discarded if not c.corrupted
            ),
        )
        if measures:
            measures_raw = measure_stream(
                pack.build_checker(incremental=False, kernels=kernels),
                contexts,
            )
            measures_delivered = measure_stream(
                pack.build_checker(incremental=False, kernels=kernels),
                delivered,
            )
        else:
            measures_raw = InconsistencyMeasures(
                universe=len(contexts),
                drastic=0,
                mi_count=0,
                problematic=0,
                repair=0,
            )
            measures_delivered = InconsistencyMeasures(
                universe=len(delivered),
                drastic=0,
                mi_count=0,
                problematic=0,
                repair=0,
            )
        result = PackRunResult(
            pack=pack.name,
            strategy=name,
            err_rate=err,
            seed=run_seed,
            host=host,
            kernels=kernels,
            metrics=metrics,
            measures_raw=measures_raw,
            measures_delivered=measures_delivered,
            delivered_ids=tuple(c.ctx_id for c in delivered),
            discarded_ids=tuple(c.ctx_id for c in discarded),
        )
        if measures:
            self._emit_telemetry(result)
        return result

    def _run_middleware(
        self,
        strategy: Union[str, ResolutionStrategy],
        contexts: Sequence[Context],
        *,
        seed: int,
        window: int,
        kernels: bool,
        ledger_path: Optional[str],
        async_check,
    ):
        pack = self.pack
        if isinstance(strategy, str):
            strategy = make_strategy(
                strategy, **_strategy_kwargs(strategy, seed)
            )
        middleware = Middleware(
            pack.build_checker(kernels=kernels),
            strategy,
            use_window=window,
            telemetry=self.telemetry,
            async_check=async_check,
        )
        if ledger_path is not None:
            from ..ledger.service import LedgerService

            middleware.plug_in(
                LedgerService(
                    ledger_path,
                    strategy_kwargs=_strategy_kwargs(strategy.name, seed),
                    registry_factory=pack.build_registry,
                    meta={"pack": pack.name},
                )
            )
        situations = SituationEngine(pack.build_situations())
        middleware.plug_in(situations)
        delivered: List[Context] = []
        discarded: List[Context] = []
        middleware.bus.subscribe(
            ContextDelivered, lambda e: delivered.append(e.context)
        )
        middleware.bus.subscribe(
            ContextDiscarded, lambda e: discarded.append(e.context)
        )
        middleware.receive_all(contexts)
        if ledger_path is not None:
            middleware.unplug("ledger")  # flush + seal the ledger file
        return (
            delivered,
            discarded,
            len(middleware.resolution.log.detected),
            situations.total_activations(),
            situations.total_spurious(),
        )

    def _run_engine(
        self,
        strategy: str,
        contexts: Sequence[Context],
        *,
        seed: int,
        window: int,
        kernels: bool,
        ledger_path: Optional[str],
        async_check,
    ):
        pack = self.pack
        engine = ShardedEngine(
            pack.build_constraints(),
            strategy=strategy,
            strategy_kwargs=_strategy_kwargs(strategy, seed),
            registry_factory=pack.build_registry,
            config=EngineConfig(
                shards=self.shards,
                use_window=window,
                kernels=kernels,
                ledger_path=ledger_path,
                async_check=async_check,
            ),
        )
        result = engine.run(contexts)
        # Engine hosts have no plug-in bus; replay the delivered stream
        # through a post-hoc SituationEngine to recover the activation
        # counters (the delivered order is the engine's decision order).
        situations = SituationEngine(pack.build_situations())
        activations = spurious = 0
        for ctx in result.delivered:
            situations.view.push(ctx, ctx.timestamp)
            for situation in situations.situations:
                if situation.matches(ctx, situations.view):
                    activations += 1
                    if ctx.corrupted:
                        spurious += 1
        return (
            result.delivered,
            result.discarded,
            result.metrics.inconsistencies_total,
            activations,
            spurious,
        )

    def _emit_telemetry(self, result: PackRunResult) -> None:
        if self.telemetry is None or not getattr(
            self.telemetry, "enabled", False
        ):
            return
        registry = self.telemetry.registry
        for stream_name, measures in (
            ("raw", result.measures_raw),
            ("delivered", result.measures_delivered),
        ):
            for measure, value in (
                ("drastic", measures.drastic),
                ("mi_count", measures.mi_count),
                ("problematic", measures.problematic),
                ("repair", measures.repair),
            ):
                registry.gauge(
                    "pack_inconsistency_measure",
                    help=(
                        "Livshits-style inconsistency measures per "
                        "pack run"
                    ),
                    labels={
                        "pack": result.pack,
                        "strategy": result.strategy,
                        "host": result.host,
                        "stream": stream_name,
                        "measure": measure,
                    },
                ).set(float(value))

    # -- the full-roster sweep ---------------------------------------------

    def sweep(
        self,
        *,
        strategies: Optional[Sequence[str]] = None,
        err_rates: Optional[Sequence[float]] = None,
        groups: int = 2,
        host: str = "middleware",
        kernels: bool = True,
        base_seed: Optional[int] = None,
        measures: bool = True,
    ) -> List[PackRunResult]:
        """Every roster strategy x error rate x group, shared streams.

        This is the Figure 9/10 grid (``run_comparison`` runs on it):
        each (rate, group) cell generates one stream and every strategy
        replays it, so per-cell comparisons isolate the strategy.
        Defaults come from the pack spec; the full roster includes
        ``drop-random`` and ``user-specified``.
        """
        pack = self.pack
        roster = tuple(strategies or pack.strategies)
        rates = tuple(err_rates or pack.err_rates)
        seed0 = pack.default_seed if base_seed is None else base_seed
        results: List[PackRunResult] = []
        for rate_index, err in enumerate(rates):
            for group in range(groups):
                seed = seed0 + rate_index * 1000 + group
                stream = pack.generate_workload(err, seed)
                for strategy in roster:
                    results.append(
                        self.run(
                            strategy,
                            err_rate=err,
                            seed=seed,
                            host=host,
                            kernels=kernels,
                            stream=stream,
                            measures=measures,
                        )
                    )
        return results


def rank_strategies(
    results: Sequence[PackRunResult],
) -> List[Dict[str, Any]]:
    """Rank a sweep's strategies by residual inconsistency.

    Primary key: mean delivered-stream problematic ratio (lower is
    better -- fewer inconsistency-involved contexts reached the
    application).  Tie-breaks: higher survival rate (keep more correct
    contexts), then name for determinism.
    """
    by_strategy: Dict[str, List[PackRunResult]] = {}
    for result in results:
        by_strategy.setdefault(result.strategy, []).append(result)
    rows: List[Dict[str, Any]] = []
    for strategy, runs in by_strategy.items():
        n = len(runs)
        rows.append(
            {
                "strategy": strategy,
                "runs": n,
                "residual_problematic_ratio": sum(
                    r.measures_delivered.problematic_ratio for r in runs
                )
                / n,
                "residual_mi": sum(
                    r.measures_delivered.mi_count for r in runs
                )
                / n,
                "residual_repair": sum(
                    r.measures_delivered.repair for r in runs
                )
                / n,
                "survival_rate": sum(
                    r.metrics.survival_rate for r in runs
                )
                / n,
                "removal_precision": sum(
                    r.metrics.removal_precision for r in runs
                )
                / n,
            }
        )
    rows.sort(
        key=lambda row: (
            row["residual_problematic_ratio"],
            -row["survival_rate"],
            row["strategy"],
        )
    )
    return rows
