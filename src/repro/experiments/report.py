"""Plain-text reporting of experiment results.

Formats the Figure 9/10 series, the scenario walkthroughs, the case
study and the ablations as aligned ASCII tables -- the same rows and
series the paper's figures plot, printable from benchmarks and
examples.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .ablations import TieBreakPoint, WindowPoint
from .case_study import CaseStudyResult
from .harness import ComparisonResult
from .metrics import SeriesPoint
from .rules_sweep import RuleSensitivityPoint
from .scenarios import ScenarioOutcome

__all__ = [
    "format_table",
    "format_comparison",
    "format_scenarios",
    "format_case_study",
    "format_window_ablation",
    "format_tiebreak_ablation",
    "format_rule_sensitivity",
]

#: Display names matching the paper's legend.
STRATEGY_LABELS: Dict[str, str] = {
    "opt-r": "Opt-R",
    "drop-bad": "D-Bad",
    "drop-latest": "D-Lat",
    "drop-all": "D-All",
    "drop-random": "D-Rnd",
    "user-specified": "D-Usr",
}


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Align a simple ASCII table."""
    table = [list(map(str, headers))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _series_table(
    points: List[SeriesPoint],
    metric: str,
    strategies: Sequence[str],
    err_rates: Sequence[float],
    show_std: bool = False,
) -> str:
    headers = ["err_rate"] + [STRATEGY_LABELS.get(s, s) for s in strategies]
    rows = []
    for err_rate in err_rates:
        row: List[object] = [f"{err_rate:.0%}"]
        for strategy in strategies:
            point = next(
                p
                for p in points
                if p.strategy == strategy and abs(p.err_rate - err_rate) < 1e-12
            )
            cell = f"{getattr(point, metric):6.1f}%"
            std = getattr(point, f"{metric}_std", 0.0)
            if show_std and std > 0:
                cell += f" ±{std:4.1f}"
            row.append(cell)
        rows.append(row)
    return format_table(headers, rows)


def format_comparison(
    result: ComparisonResult, title: str, show_std: bool = False
) -> str:
    """The two stacked panels of a Figure 9/10 plot, as tables.

    With ``show_std`` each cell carries the across-group standard
    deviation of the normalized rate.
    """
    points = result.series()
    strategies = list(result.config.strategies)
    err_rates = list(result.config.err_rates)
    return (
        f"{title}\n"
        f"\nctxUseRate (%) [top panel]\n"
        + _series_table(
            points, "ctx_use_rate", strategies, err_rates, show_std
        )
        + "\n\nsitActRate (%) [bottom panel]\n"
        + _series_table(
            points, "sit_act_rate", strategies, err_rates, show_std
        )
    )


def format_scenarios(outcomes: Sequence[ScenarioOutcome]) -> str:
    """Walkthrough outcomes, one row per (strategy, scenario)."""
    headers = ["strategy", "scenario", "constraints", "discarded", "correct"]
    rows = [
        [
            STRATEGY_LABELS.get(o.strategy, o.strategy),
            o.scenario,
            "refined" if o.refined else "basic",
            ",".join(o.discarded) or "(none)",
            "yes" if o.correct else "NO",
        ]
        for o in outcomes
    ]
    return format_table(headers, rows)


def format_case_study(result: CaseStudyResult) -> str:
    """Section 5.2 headline numbers (paper values in brackets)."""
    rows = [
        ["survival rate", f"{result.survival_rate:.1%}", "96.5%"],
        ["removal precision", f"{result.removal_precision:.1%}", "84.7%"],
        ["Rule 1 held", f"{result.rule1_rate:.1%}", "100%"],
        ["Rule 2' held", f"{result.rule2_relaxed_rate:.1%}", "91.7%"],
        ["Rule 2 held", f"{result.rule2_rate:.1%}", "(not reported)"],
        ["removal recall", f"{result.removal_recall:.1%}", "(not reported)"],
        [
            "mean error raw -> delivered",
            f"{result.mean_error_raw:.2f}m -> {result.mean_error_delivered:.2f}m",
            "(accuracy improves)",
        ],
    ]
    return format_table(["metric", "measured", "paper"], rows)


def format_window_ablation(points: Sequence[WindowPoint]) -> str:
    headers = [
        "window",
        "D-Bad ctxUse%",
        "D-Lat ctxUse%",
        "D-Bad precision",
        "advantage",
    ]
    rows = [
        [
            p.window,
            f"{p.drop_bad_use_rate:6.1f}",
            f"{p.drop_latest_use_rate:6.1f}",
            f"{p.drop_bad_precision:.3f}",
            f"{p.advantage:+5.1f}",
        ]
        for p in points
    ]
    return format_table(headers, rows)


def format_rule_sensitivity(points: Sequence[RuleSensitivityPoint]) -> str:
    headers = [
        "err_rate",
        "Rule 1",
        "Rule 2'",
        "precision",
        "survival",
        "obs/run",
    ]
    rows = [
        [
            f"{p.err_rate:.0%}",
            f"{p.rule1_rate:.1%}",
            f"{p.rule2_relaxed_rate:.1%} ±{p.rule2_relaxed_std:.2f}",
            f"{p.removal_precision:.3f}",
            f"{p.survival_rate:.3f}",
            f"{p.observations:.0f}",
        ]
        for p in points
    ]
    return format_table(headers, rows)


def format_tiebreak_ablation(points: Sequence[TieBreakPoint]) -> str:
    headers = ["policy", "tie-discard", "ctxUse%", "sitAct%", "precision", "survival"]
    rows = [
        [
            p.policy,
            "yes" if p.discard_on_tie else "no",
            f"{p.ctx_use_rate:6.1f}",
            f"{p.sit_act_rate:6.1f}",
            f"{p.removal_precision:.3f}",
            f"{p.survival_rate:.3f}",
        ]
        for p in points
    ]
    return format_table(headers, rows)
