"""Figure 9/10 comparisons, metrics, scenarios, case study and ablations."""

from .ablations import (
    TieBreakPoint,
    WindowPoint,
    run_tiebreak_ablation,
    run_window_ablation,
)
from .asynchrony import (
    AsynchronyPoint,
    format_asynchrony_table,
    run_asynchrony,
)
from .case_study import CaseStudyConfig, CaseStudyResult, run_case_study
from .harness import (
    DEFAULT_ERROR_RATES,
    DEFAULT_STRATEGIES,
    ComparisonConfig,
    ComparisonResult,
    run_comparison,
)
from .metrics import (
    GroupMetrics,
    SeriesPoint,
    average_metrics,
    normalized_rate,
    sample_stdev,
)
from .report import (
    format_case_study,
    format_comparison,
    format_rule_sensitivity,
    format_scenarios,
    format_table,
    format_tiebreak_ablation,
    format_window_ablation,
)
from .charts import ascii_chart, chart_comparison
from .reproduce import reproduce_paper
from .rules_sweep import RuleSensitivityPoint, run_rule_sensitivity
from .stats import PairedComparison, compare_strategies, sign_test
from .scenarios import (
    SCENARIOS,
    ScenarioOutcome,
    count_values,
    replay_strategy,
    scenario_contexts,
    tracked_inconsistencies,
    velocity_constraints,
)

__all__ = [
    "TieBreakPoint",
    "WindowPoint",
    "run_tiebreak_ablation",
    "run_window_ablation",
    "CaseStudyConfig",
    "CaseStudyResult",
    "run_case_study",
    "DEFAULT_ERROR_RATES",
    "DEFAULT_STRATEGIES",
    "ComparisonConfig",
    "ComparisonResult",
    "run_comparison",
    "GroupMetrics",
    "SeriesPoint",
    "average_metrics",
    "normalized_rate",
    "sample_stdev",
    "RuleSensitivityPoint",
    "run_rule_sensitivity",
    "AsynchronyPoint",
    "format_asynchrony_table",
    "run_asynchrony",
    "format_rule_sensitivity",
    "PairedComparison",
    "compare_strategies",
    "sign_test",
    "ascii_chart",
    "chart_comparison",
    "reproduce_paper",
    "format_case_study",
    "format_comparison",
    "format_scenarios",
    "format_table",
    "format_tiebreak_ablation",
    "format_window_ablation",
    "SCENARIOS",
    "ScenarioOutcome",
    "count_values",
    "replay_strategy",
    "scenario_contexts",
    "tracked_inconsistencies",
    "velocity_constraints",
]
