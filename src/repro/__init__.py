"""repro: heuristics-based context inconsistency resolution.

A full reproduction of *Heuristics-Based Strategies for Resolving
Context Inconsistencies in Pervasive Computing Applications* (Xu,
Cheung, Chan, Ye -- ICDCS 2008): the drop-bad resolution strategy and
its baselines, a Cabot-like context middleware with first-order
consistency-constraint checking, simulated sensing (location tracking,
Landmarc, RFID, Active Badge), the two evaluated applications, and the
complete set of experiments, each run over a scenario pack.

Quickstart::

    from repro import ComparisonConfig, format_comparison, run_comparison

    result = run_comparison(
        "call-forwarding", ComparisonConfig(groups_per_point=3)
    )
    print(format_comparison(result, "Figure 9"))
"""

from .analysis import InstrumentedDropBad, RuleReport
from .apps import (
    CallForwardingApp,
    ForwardingController,
    RFIDAnomaliesApp,
    RingerController,
    SmartPhoneApp,
)
from .constraints import (
    Constraint,
    ConstraintChecker,
    Evaluator,
    FunctionRegistry,
    parse_constraint,
    parse_formula,
    standard_registry,
)
from .core import (
    Context,
    ContextFactory,
    ContextState,
    DropAllStrategy,
    DropBadStrategy,
    DropLatestStrategy,
    DropRandomStrategy,
    Inconsistency,
    OptimalStrategy,
    ResolutionService,
    ResolutionStrategy,
    TrackedInconsistencies,
    UserSpecifiedStrategy,
    make_strategy,
    strategy_names,
)
from .experiments import (
    CaseStudyConfig,
    CaseStudyResult,
    ComparisonConfig,
    ComparisonResult,
    count_values,
    format_case_study,
    format_comparison,
    format_scenarios,
    format_tiebreak_ablation,
    format_window_ablation,
    replay_strategy,
    run_case_study,
    run_comparison,
    run_tiebreak_ablation,
    run_window_ablation,
)
from .middleware import EventBus, Middleware, SimulationClock
from .situations import Situation, SituationEngine

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "InstrumentedDropBad",
    "RuleReport",
    "CallForwardingApp",
    "ForwardingController",
    "RFIDAnomaliesApp",
    "RingerController",
    "SmartPhoneApp",
    "Constraint",
    "ConstraintChecker",
    "Evaluator",
    "FunctionRegistry",
    "parse_constraint",
    "parse_formula",
    "standard_registry",
    "Context",
    "ContextFactory",
    "ContextState",
    "DropAllStrategy",
    "DropBadStrategy",
    "DropLatestStrategy",
    "DropRandomStrategy",
    "Inconsistency",
    "OptimalStrategy",
    "ResolutionService",
    "ResolutionStrategy",
    "TrackedInconsistencies",
    "UserSpecifiedStrategy",
    "make_strategy",
    "strategy_names",
    "CaseStudyConfig",
    "CaseStudyResult",
    "ComparisonConfig",
    "ComparisonResult",
    "count_values",
    "format_case_study",
    "format_comparison",
    "format_scenarios",
    "format_tiebreak_ablation",
    "format_window_ablation",
    "replay_strategy",
    "run_case_study",
    "run_comparison",
    "run_tiebreak_ablation",
    "run_window_ablation",
    "EventBus",
    "Middleware",
    "SimulationClock",
    "Situation",
    "SituationEngine",
]
