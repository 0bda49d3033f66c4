"""One-command reproduction of the whole paper.

``reproduce_paper()`` runs every experiment of the evaluation --
the Figure 1-5 walkthroughs, the Figure 9/10 comparisons, the
Section 5.2 Landmarc case study and the Section 5.1/5.3 ablations --
and assembles a single markdown report with tables and ASCII charts.
Also exposed as ``python -m repro reproduce [--groups N] [--out F]``.

At ``groups=20`` this is the paper's exact 320-groups-per-application
scale; the default of 5 reproduces every shape in a few minutes.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional, Union

from .ablations import run_tiebreak_ablation, run_window_ablation
from .case_study import run_case_study
from .charts import chart_comparison
from .harness import ComparisonConfig, run_comparison
from .report import (
    format_case_study,
    format_comparison,
    format_rule_sensitivity,
    format_scenarios,
    format_tiebreak_ablation,
    format_window_ablation,
)
from .rules_sweep import run_rule_sensitivity
from .scenarios import SCENARIOS, replay_strategy
from .stats import compare_strategies

__all__ = ["reproduce_paper"]


def _block(text: str) -> str:
    return f"```\n{text}\n```\n"


def reproduce_paper(
    groups: int = 5,
    out_path: Optional[Union[str, Path]] = None,
    *,
    progress=None,
) -> str:
    """Run all experiments; return (and optionally write) the report.

    ``progress`` is an optional ``callable(str)`` notified as each
    experiment completes (the CLI passes ``print``).
    """

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    started = time.time()
    sections: List[str] = [
        "# Reproduction report",
        "",
        "*Heuristics-Based Strategies for Resolving Context "
        "Inconsistencies in Pervasive Computing Applications* "
        "(Xu, Cheung, Chan, Ye -- ICDCS 2008), reproduced by this "
        f"library at {groups} groups per plot point "
        f"(paper scale: 20).",
        "",
    ]

    # -- E1: Figures 1-5 -------------------------------------------------------
    outcomes = [
        replay_strategy(strategy, scenario, refined=refined)
        for strategy in ("opt-r", "drop-bad", "drop-latest", "drop-all")
        for scenario in SCENARIOS
        for refined in (False, True)
    ]
    sections += [
        "## Figures 1-5: scenario walkthroughs",
        "",
        _block(format_scenarios(outcomes)),
    ]
    note("E1 scenarios done")

    # -- E2: Figure 9 -----------------------------------------------------------
    cf_result = run_comparison(
        "call-forwarding",
        ComparisonConfig(
            groups_per_point=groups,
            use_window=10,
            workload_kwargs=(("duration", 300.0),),
        ),
    )
    sections += [
        "## Figure 9: Call Forwarding",
        "",
        _block(format_comparison(cf_result, "Call Forwarding")),
        _block(
            chart_comparison(
                cf_result.series(),
                metric="ctx_use_rate",
                title="ctxUseRate (%) vs error rate",
            )
        ),
    ]
    note("E2 Figure 9 done")

    # -- E3: Figure 10 ------------------------------------------------------------
    rfid_result = run_comparison(
        "rfid",
        ComparisonConfig(
            groups_per_point=groups,
            use_window=20,
            workload_kwargs=(("items", 10),),
        ),
    )
    significance = compare_strategies(rfid_result, "drop-bad", "drop-all", 0.4)
    sections += [
        "## Figure 10: RFID data anomalies",
        "",
        _block(format_comparison(rfid_result, "RFID data anomalies")),
        _block(
            chart_comparison(
                rfid_result.series(),
                metric="ctx_use_rate",
                title="ctxUseRate (%) vs error rate",
            )
        ),
        f"Paired significance at err 40%: drop-bad beats drop-all by "
        f"{significance.mean_difference:+.1f} expected contexts/run "
        f"(t-test p={significance.t_pvalue:.4f}).",
        "",
    ]
    note("E3 Figure 10 done")

    # -- E4: Landmarc case study -----------------------------------------------------
    study = run_case_study(seed=7)
    sections += [
        "## Section 5.2: Landmarc case study",
        "",
        _block(format_case_study(study)),
    ]
    note("E4 case study done")

    # -- E5/E6: ablations ----------------------------------------------------------------
    window_points = run_window_ablation(
        "rfid",
        groups=max(3, groups // 2),
        workload_kwargs={"items": 10},
    )
    tiebreak_points = run_tiebreak_ablation(
        "call-forwarding",
        groups=max(3, groups // 2),
        workload_kwargs={"duration": 300.0},
    )
    sections += [
        "## Section 5.3: use-window ablation",
        "",
        _block(format_window_ablation(window_points)),
        "## Section 5.1: tie-break ablation",
        "",
        _block(format_tiebreak_ablation(tiebreak_points)),
    ]
    note("E5/E6 ablations done")

    # -- E8: rule sensitivity ----------------------------------------------------------
    rule_points = run_rule_sensitivity(
        "call-forwarding",
        groups=max(3, groups // 2),
        workload_kwargs={"duration": 300.0},
    )
    sections += [
        "## Section 5.2 open question: rule satisfaction vs quality",
        "",
        _block(format_rule_sensitivity(rule_points)),
    ]
    note("E8 rule sensitivity done")

    elapsed = time.time() - started
    sections += [
        "---",
        "",
        f"Reproduced in {elapsed:.0f}s.  See EXPERIMENTS.md for the "
        f"shape-vs-paper discussion of every number above, and "
        f"`benchmarks/` for the per-experiment regeneration targets "
        f"(including E7 impact extension, E9 smart phone and E10 "
        f"strategy survey).",
        "",
    ]
    report = "\n".join(sections)
    if out_path is not None:
        Path(out_path).write_text(report)
    return report
