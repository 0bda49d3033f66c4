"""Context-awareness metrics (paper Section 4).

Two primary metrics quantify how much a resolution strategy affects an
application's context-awareness:

* **number of used contexts** -- contexts actually delivered to
  applications after resolution, and
* **number of activated situations** -- situations that fired.

Both are normalized against the OPT-R oracle to give the paper's
*context use rate* (ctxUseRate) and *situation activation rate*
(sitActRate).  The module also computes the Section 5.2 case-study
metrics (survival rate, removal precision) and some extended
diagnostics (spurious deliveries/activations caused by corrupted
contexts that slipped through).

Beyond the paper's two rates, the module implements the
database-repair *inconsistency measures* of Livshits et al.
(PAPERS.md) as first-class per-run metrics:

* **I_d (drastic)** -- 1 iff any constraint is violated at all;
* **I_MI** -- the number of distinct minimal inconsistent subsets
  (here: deduplicated violating bindings, one per
  ``(constraint, context set)`` pair);
* **I_P (problematic)** -- the number of contexts involved in at
  least one violation;
* **I_R (repair)** -- the minimum number of contexts that must be
  deleted to restore consistency (a minimum hitting set over the
  violation sets; exact for small instances, a greedy upper bound
  past :data:`EXACT_REPAIR_LIMIT` distinct sets).

Applied to the *delivered* stream they quantify the residual
inconsistency a strategy let through to applications -- a principled
ranking signal that complements discard precision/recall.  The
scenario-pack runner (:mod:`repro.scenarios.runner`) emits them per
run through the telemetry registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Mapping, Sequence

__all__ = [
    "GroupMetrics",
    "normalized_rate",
    "SeriesPoint",
    "average_metrics",
    "sample_stdev",
    "InconsistencyMeasures",
    "measure_inconsistencies",
    "measure_stream",
    "minimum_repair_size",
    "EXACT_REPAIR_LIMIT",
]


def sample_stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (0.0 for fewer than two samples)."""
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    return (sum((v - mean) ** 2 for v in values) / (n - 1)) ** 0.5


@dataclass(frozen=True)
class GroupMetrics:
    """Raw counters from one experiment group (one stream, one strategy)."""

    strategy: str
    err_rate: float
    seed: int
    contexts_total: int
    contexts_corrupted: int
    contexts_used: int
    contexts_used_corrupted: int
    situations_activated: int
    situations_spurious: int

    @property
    def contexts_used_expected(self) -> int:
        """Used contexts that were correct -- what actually helps the
        application.  OPT-R is the upper bound of this count by
        construction, so the normalized ctxUseRate stays <= 100%."""
        return self.contexts_used - self.contexts_used_corrupted

    @property
    def situations_activated_correct(self) -> int:
        """Activations not triggered by a corrupted context."""
        return self.situations_activated - self.situations_spurious
    inconsistencies_detected: int
    contexts_discarded: int
    discarded_corrupted: int
    discarded_expected: int

    @property
    def survival_rate(self) -> float:
        """Fraction of expected contexts not discarded (Section 5.2)."""
        expected = self.contexts_total - self.contexts_corrupted
        if expected == 0:
            return 1.0
        return 1.0 - self.discarded_expected / expected

    @property
    def removal_precision(self) -> float:
        """Fraction of discarded contexts that were corrupted (5.2)."""
        if self.contexts_discarded == 0:
            return 1.0
        return self.discarded_corrupted / self.contexts_discarded

    @property
    def removal_recall(self) -> float:
        """Fraction of corrupted contexts that were discarded."""
        if self.contexts_corrupted == 0:
            return 1.0
        return self.discarded_corrupted / self.contexts_corrupted


def average_metrics(groups: Sequence[GroupMetrics]) -> Dict[str, float]:
    """Mean raw counters over a set of groups (one plot point)."""
    if not groups:
        raise ValueError("cannot average zero groups")
    n = len(groups)
    return {
        "contexts_used": sum(g.contexts_used for g in groups) / n,
        "contexts_used_expected": sum(
            g.contexts_used_expected for g in groups
        )
        / n,
        "situations_activated": sum(g.situations_activated for g in groups) / n,
        "situations_activated_correct": sum(
            g.situations_activated_correct for g in groups
        )
        / n,
        "survival_rate": sum(g.survival_rate for g in groups) / n,
        "removal_precision": sum(g.removal_precision for g in groups) / n,
        "removal_recall": sum(g.removal_recall for g in groups) / n,
        "inconsistencies_detected": sum(
            g.inconsistencies_detected for g in groups
        )
        / n,
        "contexts_discarded": sum(g.contexts_discarded for g in groups) / n,
        "situations_spurious": sum(g.situations_spurious for g in groups) / n,
        "contexts_used_corrupted": sum(
            g.contexts_used_corrupted for g in groups
        )
        / n,
    }


def normalized_rate(value: float, baseline: float) -> float:
    """``value`` as a percentage of the OPT-R ``baseline``.

    Returns 100.0 when the baseline is zero and the value is too (both
    silent), and infinity-free 0.0 when only the baseline is zero-ish.
    """
    if baseline <= 0:
        return 100.0 if value <= 0 else 0.0
    return 100.0 * value / baseline


#: Above this many distinct violation sets the exact branch-and-bound
#: minimum-hitting-set search yields to the greedy upper bound.
EXACT_REPAIR_LIMIT = 24


def _exact_hitting_set(sets: List[FrozenSet[str]], limit: int) -> int:
    """Smallest hitting set size if it is ``<= limit``, else ``limit + 1``.

    Branch and bound on the smallest unhit set: every hitting set must
    contain one of its elements.
    """
    if not sets:
        return 0
    if limit <= 0:
        return limit + 1
    pivot = min(sets, key=len)
    best = limit + 1
    for element in sorted(pivot):
        remaining = [s for s in sets if element not in s]
        candidate = 1 + _exact_hitting_set(remaining, best - 2)
        if candidate < best:
            best = candidate
    return best


def _greedy_hitting_set(sets: List[FrozenSet[str]]) -> int:
    """Greedy max-degree upper bound on the minimum hitting set size."""
    remaining = list(sets)
    size = 0
    while remaining:
        degree: Dict[str, int] = {}
        for s in remaining:
            for element in s:
                degree[element] = degree.get(element, 0) + 1
        # Deterministic tie-break: highest degree, then lexicographic.
        chosen = min(degree, key=lambda e: (-degree[e], e))
        remaining = [s for s in remaining if chosen not in s]
        size += 1
    return size


def minimum_repair_size(
    violation_sets: Iterable[AbstractSet[str]],
    *,
    exact_limit: int = EXACT_REPAIR_LIMIT,
) -> int:
    """Livshits et al.'s I_R: fewest deletions restoring consistency.

    Each violation set is the set of context ids involved in one
    violating binding; a repair must delete at least one member of
    every set (a hitting set).  Exact (branch and bound) while the
    number of distinct sets stays at or below ``exact_limit``, else the
    deterministic greedy upper bound.
    """
    distinct = sorted(
        {frozenset(s) for s in violation_sets if s}, key=sorted
    )
    if not distinct:
        return 0
    greedy = _greedy_hitting_set(distinct)
    if len(distinct) > exact_limit:
        return greedy
    return _exact_hitting_set(distinct, greedy)


@dataclass(frozen=True)
class InconsistencyMeasures:
    """Livshits-style inconsistency measures of one context set.

    ``universe`` is the number of contexts the violations were checked
    over, giving the ``*_ratio`` normalizations; a universe of zero
    yields all-zero measures.
    """

    universe: int
    drastic: int
    mi_count: int
    problematic: int
    repair: int
    per_constraint: Mapping[str, int] = field(default_factory=dict)

    @property
    def problematic_ratio(self) -> float:
        """I_P normalized by the universe size."""
        return self.problematic / self.universe if self.universe else 0.0

    @property
    def repair_ratio(self) -> float:
        """I_R normalized by the universe size."""
        return self.repair / self.universe if self.universe else 0.0

    def as_record(self) -> Dict[str, object]:
        """Plain-JSON row for reports, benchmarks and the ledger."""
        return {
            "universe": self.universe,
            "drastic": self.drastic,
            "mi_count": self.mi_count,
            "problematic": self.problematic,
            "repair": self.repair,
            "problematic_ratio": self.problematic_ratio,
            "repair_ratio": self.repair_ratio,
            "per_constraint": dict(self.per_constraint),
        }


def measure_inconsistencies(
    inconsistencies: Sequence[object], universe: int
) -> InconsistencyMeasures:
    """Compute the measures from detected inconsistency objects.

    ``inconsistencies`` are
    :class:`~repro.core.inconsistency.Inconsistency`-shaped objects
    (``.contexts`` frozenset, ``.constraint`` name).  Identical
    bindings reported more than once collapse into one minimal
    inconsistent subset.
    """
    seen = set()
    sets: List[FrozenSet[str]] = []
    per_constraint: Dict[str, int] = {}
    involved: set = set()
    for inconsistency in inconsistencies:
        ids = frozenset(c.ctx_id for c in inconsistency.contexts)
        key = (inconsistency.constraint, ids)
        if key in seen:
            continue
        seen.add(key)
        sets.append(ids)
        involved.update(ids)
        per_constraint[inconsistency.constraint] = (
            per_constraint.get(inconsistency.constraint, 0) + 1
        )
    return InconsistencyMeasures(
        universe=universe,
        drastic=1 if sets else 0,
        mi_count=len(sets),
        problematic=len(involved),
        repair=minimum_repair_size(sets),
        per_constraint=per_constraint,
    )


def measure_stream(checker, contexts: Sequence[object]) -> InconsistencyMeasures:
    """Measure a context set as a static database (Livshits et al.).

    ``checker`` is a :class:`~repro.constraints.checker.ConstraintChecker`
    (or anything with ``check_all``); the set is checked at the stream's
    last timestamp, the instant the run ended.
    """
    now = max((c.timestamp for c in contexts), default=0.0)
    violations = checker.check_all(list(contexts), now=now)
    return measure_inconsistencies(violations, universe=len(contexts))


@dataclass(frozen=True)
class SeriesPoint:
    """One point of a Figure 9/10 series: a strategy at an error rate.

    ``*_std`` carry the across-group sample standard deviation of the
    normalized rates (0.0 for a single group), so reports can show the
    spread behind each averaged point.
    """

    strategy: str
    err_rate: float
    ctx_use_rate: float
    sit_act_rate: float
    ctx_use_rate_std: float = 0.0
    sit_act_rate_std: float = 0.0
    raw: Mapping[str, float] = field(default_factory=dict)
