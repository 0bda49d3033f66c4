"""Statistical comparison of resolution strategies.

The paper averages each plot point over 20 groups "to avoid random
error" but reports no significance analysis.  Since every strategy
replays the *same* generated streams in our harness, the group results
are naturally paired, and paired tests apply directly:

* a paired t-test (via scipy) on the per-group expected-context use
  counts, and
* a distribution-free sign test as a robustness check.

``compare_strategies`` packages both for any pair of strategies at any
error rate of a :class:`~repro.experiments.harness.ComparisonResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from scipy import stats as scipy_stats

from .harness import ComparisonResult
from .metrics import sample_stdev

__all__ = ["PairedComparison", "compare_strategies", "sign_test"]


def sign_test(differences: Sequence[float]) -> float:
    """Two-sided sign-test p-value for paired differences.

    Ignores zero differences; returns 1.0 when nothing remains.
    """
    wins = sum(1 for d in differences if d > 0)
    losses = sum(1 for d in differences if d < 0)
    n = wins + losses
    if n == 0:
        return 1.0
    result = scipy_stats.binomtest(min(wins, losses), n=n, p=0.5)
    return float(result.pvalue)


@dataclass(frozen=True)
class PairedComparison:
    """Paired significance results for strategy A vs strategy B."""

    strategy_a: str
    strategy_b: str
    err_rate: float
    metric: str
    mean_difference: float
    stdev_difference: float
    n: int
    t_statistic: float
    t_pvalue: float
    sign_pvalue: float

    @property
    def a_beats_b(self) -> bool:
        """Whether A's mean exceeds B's on this metric."""
        return self.mean_difference > 0

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the paired t-test rejects equality at ``alpha``."""
        return self.t_pvalue < alpha


def _paired_values(
    result: ComparisonResult, strategy: str, err_rate: float, metric: str
) -> List[float]:
    groups = sorted(
        result.groups_for(strategy, err_rate), key=lambda g: g.seed
    )
    if not groups:
        raise ValueError(
            f"no groups for strategy {strategy!r} at err_rate {err_rate}"
        )
    return [float(getattr(g, metric)) for g in groups]


def compare_strategies(
    result: ComparisonResult,
    strategy_a: str,
    strategy_b: str,
    err_rate: float,
    metric: str = "contexts_used_expected",
) -> PairedComparison:
    """Paired t-test + sign test of A vs B on per-group ``metric``.

    The harness guarantees both strategies replayed identical streams
    per (error rate, seed) cell, so pairing by seed is exact.
    """
    values_a = _paired_values(result, strategy_a, err_rate, metric)
    values_b = _paired_values(result, strategy_b, err_rate, metric)
    if len(values_a) != len(values_b):
        raise ValueError(
            f"unpaired group counts: {len(values_a)} vs {len(values_b)}"
        )
    differences = [a - b for a, b in zip(values_a, values_b)]
    n = len(differences)
    mean_diff = sum(differences) / n
    if n >= 2 and any(d != differences[0] for d in differences):
        t_stat, t_pvalue = scipy_stats.ttest_rel(values_a, values_b)
    else:
        # Degenerate: constant differences (or a single pair).
        t_stat = math.inf if mean_diff else 0.0
        t_pvalue = 0.0 if mean_diff and n >= 2 else 1.0
    return PairedComparison(
        strategy_a=strategy_a,
        strategy_b=strategy_b,
        err_rate=err_rate,
        metric=metric,
        mean_difference=mean_diff,
        stdev_difference=sample_stdev(differences),
        n=n,
        t_statistic=float(t_stat),
        t_pvalue=float(t_pvalue),
        sign_pvalue=sign_test(differences),
    )
