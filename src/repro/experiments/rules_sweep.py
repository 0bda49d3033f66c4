"""Rule-satisfaction sensitivity experiment (Section 5.2's open question).

The paper closes its case study with: "We are now on the way to
further investigate what percentage value [of Rule 2' satisfaction]
is sufficient for guaranteeing satisfactory results from the drop-bad
resolution strategy."  This experiment performs that investigation on
the simulated workloads: it sweeps the error rate, measures the
empirical Rule 1 / 2' satisfaction of each run with the instrumented
strategy, and pairs it with the run's resolution quality (removal
precision and expected-context survival), so the relationship between
"how well the heuristics hold" and "how well drop-bad performs" can
be read off directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from ..analysis.rules import InstrumentedDropBad
from .harness import pack_runner
from .metrics import sample_stdev

if TYPE_CHECKING:  # pragma: no cover
    from ..scenarios.spec import ScenarioPack

__all__ = ["RuleSensitivityPoint", "run_rule_sensitivity"]


@dataclass(frozen=True)
class RuleSensitivityPoint:
    """Rule satisfaction vs resolution quality at one error rate."""

    err_rate: float
    rule1_rate: float
    rule2_relaxed_rate: float
    rule2_relaxed_std: float
    removal_precision: float
    survival_rate: float
    observations: float


def run_rule_sensitivity(
    pack: Union[ScenarioPack, str],
    *,
    err_rates: Sequence[float] = (0.1, 0.2, 0.3, 0.4),
    groups: int = 5,
    use_window: int = 10,
    base_seed: int = 401,
    workload_kwargs: Optional[Dict[str, object]] = None,
) -> List[RuleSensitivityPoint]:
    """Sweep error rates; one aggregated point per rate."""
    runner = pack_runner(pack, workload_kwargs=workload_kwargs)
    points: List[RuleSensitivityPoint] = []
    for rate_index, err_rate in enumerate(err_rates):
        rule1: List[float] = []
        rule2_relaxed: List[float] = []
        precisions: List[float] = []
        survivals: List[float] = []
        observations: List[float] = []
        for group in range(groups):
            seed = base_seed + rate_index * 100 + group
            strategy = InstrumentedDropBad()
            metrics = runner.run(
                strategy,
                err_rate=err_rate,
                seed=seed,
                use_window=use_window,
                measures=False,
            ).metrics
            rule1.append(strategy.report.rule1_rate)
            rule2_relaxed.append(strategy.report.rule2_relaxed_rate)
            precisions.append(metrics.removal_precision)
            survivals.append(metrics.survival_rate)
            observations.append(float(len(strategy.report)))
        n = len(rule1)
        points.append(
            RuleSensitivityPoint(
                err_rate=err_rate,
                rule1_rate=sum(rule1) / n,
                rule2_relaxed_rate=sum(rule2_relaxed) / n,
                rule2_relaxed_std=sample_stdev(rule2_relaxed),
                removal_precision=sum(precisions) / n,
                survival_rate=sum(survivals) / n,
                observations=sum(observations) / n,
            )
        )
    return points
