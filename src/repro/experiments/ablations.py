"""Ablation experiments for the drop-bad design choices.

* **Time window** (paper Section 5.3): how does the period between a
  context's arrival and its use affect drop-bad?  The paper argues
  that with a zero window drop-bad "would behave just as the
  drop-latest strategy", so its effectiveness is never worse than the
  existing strategies'; a larger window gathers more count evidence.

* **Tie-breaking** (paper Section 5.1, future work): when several
  contexts tie at the maximal count value, which one should be blamed?
  We compare the pluggable policies of :mod:`repro.core.tiebreak`
  plus the conservative no-discard-on-tie variant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..core.drop_bad import DropBadStrategy
from ..core.tiebreak import make_tiebreak
from .harness import pack_runner
from .metrics import GroupMetrics, average_metrics, normalized_rate

if TYPE_CHECKING:  # pragma: no cover
    from ..scenarios.spec import ScenarioPack

__all__ = [
    "WindowPoint",
    "run_window_ablation",
    "TieBreakPoint",
    "run_tiebreak_ablation",
]


@dataclass(frozen=True)
class WindowPoint:
    """Drop-bad vs drop-latest at one use-window size."""

    window: int
    drop_bad_use_rate: float
    drop_latest_use_rate: float
    drop_bad_precision: float
    drop_latest_precision: float

    @property
    def advantage(self) -> float:
        """Drop-bad's context-use-rate margin over drop-latest."""
        return self.drop_bad_use_rate - self.drop_latest_use_rate


def run_window_ablation(
    pack: Union[ScenarioPack, str],
    *,
    windows: Sequence[int] = (0, 1, 2, 4, 8, 16),
    err_rate: float = 0.3,
    groups: int = 6,
    base_seed: int = 51,
    workload_kwargs: Optional[Dict[str, object]] = None,
) -> List[WindowPoint]:
    """Sweep the use window; returns one point per window size.

    All strategies (including the OPT-R normalization baseline) replay
    identical streams at every window size.
    """
    runner = pack_runner(pack, workload_kwargs=workload_kwargs)
    streams = [
        runner.pack.generate_workload(err_rate, base_seed + g)
        for g in range(groups)
    ]
    points: List[WindowPoint] = []
    for window in windows:
        per_strategy: Dict[str, List[GroupMetrics]] = {}
        for name in ("opt-r", "drop-bad", "drop-latest"):
            per_strategy[name] = [
                runner.run(
                    name,
                    err_rate=err_rate,
                    seed=base_seed + g,
                    use_window=window,
                    stream=stream,
                    measures=False,
                ).metrics
                for g, stream in enumerate(streams)
            ]
        base = average_metrics(per_strategy["opt-r"])
        bad = average_metrics(per_strategy["drop-bad"])
        latest = average_metrics(per_strategy["drop-latest"])
        points.append(
            WindowPoint(
                window=window,
                drop_bad_use_rate=normalized_rate(
                    bad["contexts_used_expected"], base["contexts_used_expected"]
                ),
                drop_latest_use_rate=normalized_rate(
                    latest["contexts_used_expected"], base["contexts_used_expected"]
                ),
                drop_bad_precision=bad["removal_precision"],
                drop_latest_precision=latest["removal_precision"],
            )
        )
    return points


@dataclass(frozen=True)
class TieBreakPoint:
    """Drop-bad under one tie-break policy."""

    policy: str
    discard_on_tie: bool
    ctx_use_rate: float
    sit_act_rate: float
    removal_precision: float
    survival_rate: float


def run_tiebreak_ablation(
    pack: Union[ScenarioPack, str],
    *,
    policies: Sequence[str] = (
        "oldest",
        "newest",
        "random",
        "least-global",
        "most-global",
    ),
    err_rate: float = 0.3,
    groups: int = 6,
    use_window: int = 4,
    base_seed: int = 97,
    include_no_tie_discard: bool = True,
    workload_kwargs: Optional[Dict[str, object]] = None,
) -> List[TieBreakPoint]:
    """Compare tie-break policies (and the conservative tie variant)."""
    runner = pack_runner(pack, workload_kwargs=workload_kwargs)
    streams = [
        runner.pack.generate_workload(err_rate, base_seed + g)
        for g in range(groups)
    ]

    def run_variant(strategy_for_group) -> List[GroupMetrics]:
        return [
            runner.run(
                strategy_for_group(g),
                err_rate=err_rate,
                seed=base_seed + g,
                use_window=use_window,
                stream=stream,
                measures=False,
            ).metrics
            for g, stream in enumerate(streams)
        ]

    baseline = average_metrics(run_variant(lambda g: "opt-r"))

    variants: List[Tuple[str, bool]] = [(p, True) for p in policies]
    if include_no_tie_discard:
        variants.append(("oldest", False))

    points: List[TieBreakPoint] = []
    for policy, discard_on_tie in variants:
        metrics = average_metrics(
            run_variant(
                lambda g, _p=policy, _d=discard_on_tie: DropBadStrategy(
                    tiebreak=make_tiebreak(_p, random.Random(base_seed + g)),
                    discard_on_tie=_d,
                )
            )
        )
        points.append(
            TieBreakPoint(
                policy=policy,
                discard_on_tie=discard_on_tie,
                ctx_use_rate=normalized_rate(
                    metrics["contexts_used_expected"], baseline["contexts_used_expected"]
                ),
                sit_act_rate=normalized_rate(
                    metrics["situations_activated_correct"],
                    baseline["situations_activated_correct"],
                ),
                removal_precision=metrics["removal_precision"],
                survival_rate=metrics["survival_rate"],
            )
        )
    return points
