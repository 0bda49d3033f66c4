"""The Figure 1-5 scenario walkthroughs.

The paper's Section 2/3 illustrates the strategies on two concrete
five-location scenarios:

* **Scenario A** -- d3 deviates seriously from the path: both adjacent
  pairs (d2, d3) and (d3, d4) violate the velocity constraint.
* **Scenario B** -- d3 deviates mildly toward d2: (d2, d3) is fine,
  only (d3, d4) violates, which fools drop-latest into blaming d4.

With the *refined* constraint (velocity also bounded over pairs
separated by one intermediate location, Section 3.1) scenario A gains
inconsistencies (d1, d3) and (d3, d5) and scenario B gains (d3, d5),
yielding the count values of Figures 4 and 5.

This module reconstructs both scenarios geometrically, reproduces the
count values, and replays every strategy on them; tests and the
scenario benchmark assert the paper's narrative outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from ..constraints.ast import Constraint
from ..constraints.checker import ConstraintChecker
from ..constraints.parser import parse_constraint
from ..core.context import Context, ContextFactory
from ..core.strategy import make_strategy
from ..middleware.manager import Middleware

__all__ = [
    "ScenarioOutcome",
    "scenario_contexts",
    "velocity_constraints",
    "tracked_inconsistencies",
    "count_values",
    "replay_strategy",
    "SCENARIOS",
]

#: Sampling period and velocity bound of the walkthroughs.  With the
#: paper's "average velocity v" scaled to 1 m/s and a 1 s period, the
#: 150% tolerance makes any step longer than 1.5 m a violation.
PERIOD = 1.0
BOUND = 1.5


def scenario_contexts(scenario: str, corrupted_truth: bool = True) -> List[Context]:
    """The five tracked locations d1..d5 of scenario ``"A"`` or ``"B"``.

    d3 carries the ground-truth ``corrupted`` flag (it is the context
    the tracking application got wrong in both scenarios); set
    ``corrupted_truth=False`` for pure geometry without ground truth.
    """
    if scenario == "A":
        # d3 far off the path: every pair with d3 is too fast.
        positions = [(0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (3.0, 0.0), (4.0, 0.0)]
    elif scenario == "B":
        # d3 pulled back toward d2: (d2, d3) and (d1, d3) look fine,
        # but (d3, d4) and (d3, d5) are too fast.
        positions = [(0.0, 0.0), (1.0, 0.0), (1.1, 0.9), (3.0, 0.0), (4.0, 0.0)]
    else:
        raise ValueError(f"unknown scenario {scenario!r}; use 'A' or 'B'")
    factory = ContextFactory(prefix=f"d{scenario}")
    return [
        factory.make(
            "location",
            "peter",
            position,
            timestamp=index * PERIOD,
            source="walkthrough",
            corrupted=corrupted_truth and index == 2,
            ctx_id=f"d{index + 1}",
        )
        for index, position in enumerate(positions)
    ]


def velocity_constraints(refined: bool) -> List[Constraint]:
    """The walkthrough constraint set.

    ``refined=False`` gives only the adjacent-pair velocity constraint
    (Figures 1-4); ``refined=True`` adds the one-separated-pair check
    (Figure 5 / Section 3.1).
    """
    adjacent = parse_constraint(
        "velocity-adjacent",
        f"forall l1 in location, forall l2 in location : "
        f"(same_subject(l1, l2) and before(l1, l2) "
        f"and within_time(l1, l2, {PERIOD * 1.5})) "
        f"implies velocity_le(l1, l2, {BOUND})",
    )
    if not refined:
        return [adjacent]
    separated = parse_constraint(
        "velocity-separated",
        f"forall l1 in location, forall l2 in location : "
        f"(same_subject(l1, l2) and before(l1, l2) "
        f"and within_time(l1, l2, {PERIOD * 2.5}) "
        f"and not within_time(l1, l2, {PERIOD * 1.5})) "
        f"implies velocity_le(l1, l2, {BOUND})",
    )
    return [adjacent, separated]


def tracked_inconsistencies(
    scenario: str, refined: bool
) -> Set[FrozenSet[str]]:
    """Δ for a scenario as sets of context ids (no resolution applied)."""
    contexts = scenario_contexts(scenario)
    checker = ConstraintChecker(velocity_constraints(refined))
    inconsistencies = checker.check_all(contexts, now=contexts[-1].timestamp)
    return {
        frozenset(c.ctx_id for c in inc.contexts) for inc in inconsistencies
    }


def count_values(scenario: str, refined: bool) -> Dict[str, int]:
    """The Figure 4/5 count values: context id -> count."""
    counts: Dict[str, int] = {f"d{i}": 0 for i in range(1, 6)}
    for inconsistency in tracked_inconsistencies(scenario, refined):
        for ctx_id in inconsistency:
            counts[ctx_id] += 1
    return counts


@dataclass(frozen=True)
class ScenarioOutcome:
    """What a strategy did to a walkthrough scenario."""

    strategy: str
    scenario: str
    refined: bool
    discarded: Tuple[str, ...]
    delivered: Tuple[str, ...]

    @property
    def correct(self) -> bool:
        """The paper's success criterion: exactly d3 is discarded."""
        return set(self.discarded) == {"d3"}


def replay_strategy(
    strategy_name: str, scenario: str, *, refined: bool = True
) -> ScenarioOutcome:
    """Play a scenario's stream through a strategy via the middleware.

    The use window is large enough (5) that drop-bad sees the whole
    scenario before any context is used, matching the walkthrough.
    """
    contexts = scenario_contexts(scenario)
    strategy = make_strategy(strategy_name)
    middleware = Middleware(
        ConstraintChecker(velocity_constraints(refined)),
        strategy,
        use_window=len(contexts),
    )
    middleware.receive_all(contexts)
    log = middleware.resolution.log
    return ScenarioOutcome(
        strategy=strategy_name,
        scenario=scenario,
        refined=refined,
        discarded=tuple(sorted(c.ctx_id for c in log.discarded)),
        delivered=tuple(sorted(c.ctx_id for c in log.delivered)),
    )


#: Both scenarios, for iteration in tests/benchmarks/examples.
SCENARIOS: Tuple[str, ...] = ("A", "B")
