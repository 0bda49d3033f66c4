"""The Landmarc case study (paper Section 5.2).

The paper reports a real-life study feeding Landmarc [12] location
estimates through the resolution strategies, with drop-bad achieving a
96.5% location context *survival rate* (correct contexts kept) and an
84.7% *removal precision* (discarded contexts indeed incorrect), Rule
1 always holding and Rule 2' holding in 91.7% of cases.

We regenerate the study on the simulated Landmarc estimator: a walker
crosses an arena instrumented with corner readers and a reference-tag
grid.  Ordinary measurements carry mild RSSI shadowing; occasionally a
measurement suffers *complete multipath confusion* -- the RSSI vector
becomes uninformative and the estimate lands essentially anywhere in
the arena, the classic indoor-RF failure mode.  A context is
*corrupted* (ground truth) when its localization error exceeds
``corruption_threshold``; the bimodal error profile (small shadowing
errors vs large multipath errors) mirrors the deployments the paper's
RFID references [8][14] describe.

The constraint set is constructed so that Rule 1 holds structurally:
two expected contexts (error <= threshold each) can never violate the
velocity bound, and the feasibility box is expanded by the threshold,
so every detected inconsistency involves a corrupted context -- the
same property the paper observed empirically ("Rule 1 always held").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.rules import InstrumentedDropBad
from ..constraints.checker import ConstraintChecker
from ..constraints.parser import parse_constraint
from ..core.context import Context, ContextFactory
from ..middleware.manager import Middleware
from ..sensing.environment import office_floor
from ..sensing.landmarc import LandmarcEstimator, corner_readers, grid_reference_tags
from ..sensing.mobility import RandomWaypointWalker
from ..sensing.rf import PathLossModel, rssi_vector

__all__ = ["CaseStudyConfig", "CaseStudyResult", "run_case_study"]


@dataclass(frozen=True)
class CaseStudyConfig:
    """Tunables of the Landmarc case-study simulation."""

    duration: float = 400.0
    period: float = 2.0
    walk_speed: float = 1.2
    #: Ground truth: a context is corrupted when its error exceeds this.
    corruption_threshold: float = 3.0
    #: Ordinary RSSI shadowing (dB) and the multipath-confusion rate.
    shadow_sigma: float = 0.8
    burst_probability: float = 0.15
    reference_spacing: float = 4.0
    k: int = 4
    use_window: int = 6

    @property
    def velocity_bound(self) -> float:
        """Smallest bound under which two expected contexts cannot
        violate the adjacent-velocity constraint:

            v * dt + 2 * threshold <= bound * dt
        """
        return self.walk_speed + 2.0 * self.corruption_threshold / self.period

    @property
    def velocity_bound_separated(self) -> float:
        """The same safety bound over one-separated pairs (dt = 2
        periods), plus a small margin: the endpoint errors are the
        same but amortized over twice the time."""
        return self.walk_speed + self.corruption_threshold / self.period + 0.05


@dataclass(frozen=True)
class CaseStudyResult:
    """The Section 5.2 headline numbers for one simulated study."""

    contexts_total: int
    contexts_corrupted: int
    survival_rate: float
    removal_precision: float
    removal_recall: float
    rule1_rate: float
    rule2_rate: float
    rule2_relaxed_rate: float
    observations: int
    mean_error_raw: float
    mean_error_delivered: float

    @property
    def accuracy_improvement(self) -> float:
        """Relative reduction of mean localization error after cleaning."""
        if self.mean_error_raw <= 0:
            return 0.0
        return 1.0 - self.mean_error_delivered / self.mean_error_raw


def _landmarc_contexts(
    config: CaseStudyConfig, seed: int
) -> Tuple[List[Context], List[float]]:
    """Generate Landmarc-estimated location contexts plus their errors."""
    rng = random.Random(seed)
    floor = office_floor()
    x0, y0, x1, y1 = floor.bounds()
    estimator = LandmarcEstimator(
        corner_readers(x0, y0, x1, y1),
        grid_reference_tags(x0, y0, x1, y1, config.reference_spacing),
        PathLossModel(shadow_sigma=1.0),  # sigma passed per-measurement below
        k=config.k,
    )
    walker = RandomWaypointWalker(
        "peter",
        floor,
        random.Random(rng.randrange(2**31)),
        speed=config.walk_speed,
        period=config.period,
    )
    truth = walker.walk(config.duration)
    factory = ContextFactory(prefix=f"lm{seed}")
    measurement_rng = random.Random(rng.randrange(2**31))
    burst_rng = random.Random(rng.randrange(2**31))

    contexts: List[Context] = []
    errors: List[float] = []
    model = PathLossModel(shadow_sigma=config.shadow_sigma)
    for sample in truth:
        if burst_rng.random() < config.burst_probability:
            # Complete multipath confusion: the RSSI vector carries no
            # information about the tag, so the estimate is effectively
            # an arbitrary arena position.
            estimate = (
                measurement_rng.uniform(x0, x1),
                measurement_rng.uniform(y0, y1),
            )
        else:
            theta = rssi_vector(
                sample.position, estimator.readers, model, measurement_rng
            )
            estimate = estimator.estimate_from_rssi(theta)
        error = math.hypot(
            estimate[0] - sample.position[0], estimate[1] - sample.position[1]
        )
        errors.append(error)
        contexts.append(
            factory.make(
                "location",
                sample.subject,
                estimate,
                sample.timestamp,
                source="landmarc",
                corrupted=error > config.corruption_threshold,
                attributes={"error": error},
            )
        )
    return contexts, errors


def _case_study_checker(config: CaseStudyConfig) -> ConstraintChecker:
    bound = config.velocity_bound
    adjacent_gap = config.period * 1.5
    separated_gap = config.period * 2.5
    checker = ConstraintChecker(
        [
            parse_constraint(
                "lm-velocity-adjacent",
                f"forall l1 in location, forall l2 in location : "
                f"(same_subject(l1, l2) and before(l1, l2) "
                f"and within_time(l1, l2, {adjacent_gap})) "
                f"implies velocity_le(l1, l2, {bound})",
            ),
            parse_constraint(
                "lm-velocity-separated",
                f"forall l1 in location, forall l2 in location : "
                f"(same_subject(l1, l2) and before(l1, l2) "
                f"and within_time(l1, l2, {separated_gap}) "
                f"and not within_time(l1, l2, {adjacent_gap})) "
                f"implies velocity_le(l1, l2, {config.velocity_bound_separated})",
            ),
            parse_constraint(
                "lm-feasible-area",
                "forall l in location : in_arena(l)",
            ),
        ]
    )
    floor = office_floor()
    x0, y0, x1, y1 = floor.bounds()
    margin = config.corruption_threshold

    @checker.registry.register("in_arena")
    def in_arena(ctx: Context) -> bool:
        try:
            x, y = ctx.position
        except TypeError:
            return False
        return (x0 - margin) <= x <= (x1 + margin) and (
            y0 - margin
        ) <= y <= (y1 + margin)

    return checker


def run_case_study(
    seed: int = 7, config: Optional[CaseStudyConfig] = None
) -> CaseStudyResult:
    """Run one simulated Landmarc study under drop-bad."""
    config = config or CaseStudyConfig()
    contexts, errors = _landmarc_contexts(config, seed)
    strategy = InstrumentedDropBad()
    middleware = Middleware(
        _case_study_checker(config), strategy, use_window=config.use_window
    )
    middleware.receive_all(contexts)

    log = middleware.resolution.log
    delivered_errors = [c.attr("error", 0.0) for c in log.delivered]
    return CaseStudyResult(
        contexts_total=len(contexts),
        contexts_corrupted=sum(1 for c in contexts if c.corrupted),
        survival_rate=log.survival_rate(),
        removal_precision=log.removal_precision(),
        removal_recall=(
            log.discarded_corrupted()
            / max(1, sum(1 for c in contexts if c.corrupted))
        ),
        rule1_rate=strategy.report.rule1_rate,
        rule2_rate=strategy.report.rule2_rate,
        rule2_relaxed_rate=strategy.report.rule2_relaxed_rate,
        observations=len(strategy.report),
        mean_error_raw=sum(errors) / max(1, len(errors)),
        mean_error_delivered=(
            sum(delivered_errors) / max(1, len(delivered_errors))
        ),
    )
