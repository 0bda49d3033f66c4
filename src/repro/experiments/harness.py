"""Figure 9/10 comparisons: every strategy over the same streams.

One *group* (paper terminology) is one generated context stream played
through the middleware under one resolution strategy.  A *comparison*
runs every strategy over the same streams at every error rate -- the
paper's 320-group setup is ``strategies(4) x err_rates(4) x
groups(20)`` per application -- and normalizes the two metrics against
OPT-R to produce the Figure 9/10 series.  Every group runs on
:class:`repro.scenarios.runner.PackRunner`, the one driver of a
strategy over an application stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from .metrics import (
    GroupMetrics,
    SeriesPoint,
    average_metrics,
    normalized_rate,
    sample_stdev,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..scenarios.spec import ScenarioPack

__all__ = [
    "ComparisonConfig",
    "ComparisonResult",
    "run_comparison",
    "pack_runner",
    "DEFAULT_STRATEGIES",
    "DEFAULT_ERROR_RATES",
]

#: The four strategies the paper compares.
DEFAULT_STRATEGIES: Tuple[str, ...] = ("opt-r", "drop-bad", "drop-latest", "drop-all")

#: The paper's controlled error rates (Section 4.1).
DEFAULT_ERROR_RATES: Tuple[float, ...] = (0.10, 0.20, 0.30, 0.40)


def pack_runner(
    pack: Union[ScenarioPack, str],
    *,
    workload_kwargs=(),
    use_window: Optional[int] = None,
    telemetry=None,
):
    """A :class:`~repro.scenarios.runner.PackRunner` sized for one experiment.

    ``pack`` is a :class:`~repro.scenarios.spec.ScenarioPack` or a
    registered name.  ``workload_kwargs`` *replace* the pack's default
    stream kwargs (the legacy packs default to the golden suite's small
    streams), so an experiment that passes none gets the application's
    own stream sizes.  ``use_window`` overrides the pack's window.
    """
    # Imported here: ``import repro`` loads this package, and the
    # engine's import closure must not grow by the scenario layer.
    from ..scenarios.registry import get_pack
    from ..scenarios.runner import PackRunner

    if isinstance(pack, str):
        pack = get_pack(pack)
    pack = replace(pack, workload_kwargs=workload_kwargs or ())
    if use_window is not None:
        pack = replace(pack, use_window=use_window)
    return PackRunner(pack, telemetry=telemetry)


@dataclass(frozen=True)
class ComparisonConfig:
    """Grid configuration for a Figure 9/10 style comparison.

    The paper runs 20 groups per (strategy, error rate) point; that is
    the default.  Benchmarks shrink ``groups_per_point`` to keep wall
    time reasonable -- the shape is stable from ~5 groups on.
    """

    strategies: Tuple[str, ...] = DEFAULT_STRATEGIES
    err_rates: Tuple[float, ...] = DEFAULT_ERROR_RATES
    groups_per_point: int = 20
    #: Arrivals between a context's arrival and its use.  Should cover
    #: a few same-subject follow-up contexts so drop-bad can gather
    #: count evidence (Section 5.3); with interleaved sources that
    #: means roughly 3x the number of concurrent streams.
    use_window: int = 10
    base_seed: int = 2008
    workload_kwargs: Tuple[Tuple[str, object], ...] = ()

    @property
    def total_groups(self) -> int:
        """Total experiment groups in the grid (320 at paper scale)."""
        return len(self.strategies) * len(self.err_rates) * self.groups_per_point


@dataclass
class ComparisonResult:
    """All group metrics plus the normalized Figure 9/10 series."""

    config: ComparisonConfig
    groups: List[GroupMetrics] = field(default_factory=list)

    def groups_for(self, strategy: str, err_rate: float) -> List[GroupMetrics]:
        return [
            g
            for g in self.groups
            if g.strategy == strategy and abs(g.err_rate - err_rate) < 1e-12
        ]

    def series(self, baseline: str = "opt-r") -> List[SeriesPoint]:
        """Normalized (ctxUseRate, sitActRate) per strategy x err_rate."""
        points: List[SeriesPoint] = []
        for err_rate in self.config.err_rates:
            base = average_metrics(self.groups_for(baseline, err_rate))
            for strategy in self.config.strategies:
                groups = self.groups_for(strategy, err_rate)
                mine = average_metrics(groups)
                use_base = base["contexts_used_expected"]
                act_base = base["situations_activated_correct"]
                points.append(
                    SeriesPoint(
                        strategy=strategy,
                        err_rate=err_rate,
                        ctx_use_rate=normalized_rate(
                            mine["contexts_used_expected"], use_base
                        ),
                        sit_act_rate=normalized_rate(
                            mine["situations_activated_correct"], act_base
                        ),
                        ctx_use_rate_std=sample_stdev(
                            [
                                normalized_rate(
                                    g.contexts_used_expected, use_base
                                )
                                for g in groups
                            ]
                        ),
                        sit_act_rate_std=sample_stdev(
                            [
                                normalized_rate(
                                    g.situations_activated_correct, act_base
                                )
                                for g in groups
                            ]
                        ),
                        raw=mine,
                    )
                )
        return points

    def point(
        self, strategy: str, err_rate: float, baseline: str = "opt-r"
    ) -> SeriesPoint:
        for candidate in self.series(baseline):
            if candidate.strategy == strategy and abs(
                candidate.err_rate - err_rate
            ) < 1e-12:
                return candidate
        raise KeyError((strategy, err_rate))


def run_comparison(
    pack: Union[ScenarioPack, str],
    config: Optional[ComparisonConfig] = None,
    *,
    telemetry=None,
) -> ComparisonResult:
    """Run the full strategies x error-rates x groups grid over ``pack``.

    Every strategy sees the *same* generated stream for a given
    (error rate, group) cell, so normalization against OPT-R compares
    like with like.  ``config.use_window`` and
    ``config.workload_kwargs`` size the pack for the grid.  A shared
    ``telemetry`` bundle aggregates every group's pipeline latencies
    into one registry.
    """
    config = config or ComparisonConfig()
    runner = pack_runner(
        pack,
        workload_kwargs=config.workload_kwargs,
        use_window=config.use_window,
        telemetry=telemetry,
    )
    runs = runner.sweep(
        strategies=config.strategies,
        err_rates=config.err_rates,
        groups=config.groups_per_point,
        base_seed=config.base_seed,
        measures=False,
    )
    return ComparisonResult(config=config, groups=[r.metrics for r in runs])
