"""Asynchrony degradation experiment: drop-bad vs OPT-R off the happy path.

The paper's evaluation (Section 4) plays *synchronized* streams:
arrival order equals timestamp order and every context arrives exactly
once.  Drop-bad's reliability argument (Rules 1/2/2') quietly leans on
that -- the heuristics reason about which of two *currently pool-held*
contexts is fresher, and a late or duplicated arrival skews both the
pipeline clock and the pool's contents.

This experiment measures the lean.  It perturbs the generated streams
with the :mod:`repro.sensing.perturb` adapters (delay / reorder /
duplicate / per-source clock skew, each at several intensities), plays
drop-bad and OPT-R over
the *same* perturbed stream, and reports drop-bad's Figure 9/10
metrics normalized against OPT-R -- once with the runtime as-is
(``async_check=False`` rows) and once behind the snapshot-window
ingress (``async_check=True`` rows).  The gap between the paired rows
is what the asynchronous checking mode buys back.

Results land as a table (CLI ``repro asynchrony``) and as the
``async_degradation`` record of ``BENCH_engine.json``
(``benchmarks/test_bench_async.py``).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..core.context import Context
from ..runtime.snapshot import AsyncCheckConfig
from ..sensing.perturb import (
    delay_stream,
    duplicate_stream,
    reorder_stream,
    skew_stream,
)
from .harness import pack_runner
from .metrics import average_metrics, normalized_rate

if TYPE_CHECKING:  # pragma: no cover
    from ..scenarios.spec import ScenarioPack

__all__ = [
    "AsynchronyPoint",
    "DEFAULT_PERTURBATIONS",
    "run_asynchrony",
    "format_asynchrony_table",
]

#: The sweep grid: perturbation kind -> intensities, least to most
#: hostile.  Units differ per kind: ``delay`` is the max transport
#: delay in simulation seconds, ``reorder`` the shuffle window in
#: stream positions, ``duplicate`` the per-context re-delivery
#: probability, ``skew`` the max per-source clock offset in simulation
#: seconds (a skewed clock is consistently wrong, not noisy, so it
#: stresses the freshness heuristics differently from ``delay``).
DEFAULT_PERTURBATIONS: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    ("delay", (1.0, 3.0, 6.0)),
    ("reorder", (2.0, 6.0, 12.0)),
    ("duplicate", (0.05, 0.15, 0.30)),
    ("skew", (1.0, 3.0, 6.0)),
)


@dataclass(frozen=True)
class AsynchronyPoint:
    """Drop-bad's OPT-R-normalized quality at one grid cell."""

    perturbation: str
    intensity: float
    async_check: bool
    #: Expected-context use rate, normalized against OPT-R on the same
    #: perturbed streams under the same checking mode (Figure 9 axis).
    ctx_use_rate: float
    #: Correct situation-activation rate, normalized likewise
    #: (Figure 10 axis).
    sit_act_rate: float
    #: Unnormalized drop-bad aggregates, for absolute reading.
    survival_rate: float
    removal_precision: float
    groups: int


def _perturb(
    kind: str, contexts: Sequence[Context], rng: random.Random, intensity: float
) -> List[Context]:
    if kind == "delay":
        return delay_stream(contexts, rng, max_delay=intensity)
    if kind == "reorder":
        return reorder_stream(contexts, rng, window=int(intensity))
    if kind == "duplicate":
        return duplicate_stream(contexts, rng, p=intensity)
    if kind == "skew":
        return skew_stream(contexts, rng, max_skew=intensity)
    raise ValueError(f"unknown perturbation kind {kind!r}")


def run_asynchrony(
    pack: Union[ScenarioPack, str],
    *,
    perturbations: Sequence[Tuple[str, Sequence[float]]] = DEFAULT_PERTURBATIONS,
    err_rate: float = 0.2,
    groups: int = 5,
    use_window: int = 10,
    base_seed: int = 808,
    max_lag: float = 6.0,
    workload_kwargs: Optional[Dict[str, object]] = None,
) -> List[AsynchronyPoint]:
    """Sweep perturbation x intensity x {sync, async-check}.

    Every grid cell replays the same ``groups`` perturbed streams
    under drop-bad and under OPT-R, in both checking modes; the
    normalization baseline is always OPT-R *in the same cell*, so each
    point isolates the strategy's degradation from the workload's.
    ``max_lag`` sizes the snapshot window for the async rows (cover
    the largest delay intensity; see
    :func:`repro.constraints.horizon.temporal_horizon`).
    """
    runner = pack_runner(pack, workload_kwargs=workload_kwargs)
    async_config = AsyncCheckConfig(max_lag=max_lag)
    points: List[AsynchronyPoint] = []
    for kind_index, (kind, intensities) in enumerate(perturbations):
        for level_index, intensity in enumerate(intensities):
            for async_on in (False, True):
                per_strategy: Dict[str, List] = {"drop-bad": [], "opt-r": []}
                for group in range(groups):
                    seed = (
                        base_seed
                        + kind_index * 10_000
                        + level_index * 100
                        + group
                    )
                    clean = runner.pack.generate_workload(err_rate, seed)
                    perturbed = _perturb(
                        kind, clean, random.Random(seed ^ 0xA57), intensity
                    )
                    for name in per_strategy:
                        per_strategy[name].append(
                            runner.run(
                                name,
                                err_rate=err_rate,
                                seed=seed,
                                use_window=use_window,
                                stream=perturbed,
                                async_check=(
                                    async_config if async_on else None
                                ),
                                measures=False,
                            ).metrics
                        )
                mine = average_metrics(per_strategy["drop-bad"])
                base = average_metrics(per_strategy["opt-r"])
                n = len(per_strategy["drop-bad"])
                points.append(
                    AsynchronyPoint(
                        perturbation=kind,
                        intensity=intensity,
                        async_check=async_on,
                        ctx_use_rate=normalized_rate(
                            mine["contexts_used_expected"],
                            base["contexts_used_expected"],
                        ),
                        sit_act_rate=normalized_rate(
                            mine["situations_activated_correct"],
                            base["situations_activated_correct"],
                        ),
                        survival_rate=sum(
                            g.survival_rate for g in per_strategy["drop-bad"]
                        )
                        / n,
                        removal_precision=sum(
                            g.removal_precision
                            for g in per_strategy["drop-bad"]
                        )
                        / n,
                        groups=n,
                    )
                )
    return points


def format_asynchrony_table(points: Sequence[AsynchronyPoint]) -> str:
    """Render the sweep as the experiment's report table."""
    lines = [
        "drop-bad vs OPT-R under stream asynchrony "
        "(100.0 = matches the optimal strategy)",
        f"{'perturbation':<14}{'intensity':>10}{'async':>7}"
        f"{'ctxUse%':>9}{'sitAct%':>9}{'survival':>10}{'precision':>11}",
    ]
    for point in points:
        lines.append(
            f"{point.perturbation:<14}{point.intensity:>10g}"
            f"{'on' if point.async_check else 'off':>7}"
            f"{point.ctx_use_rate:>9.1f}{point.sit_act_rate:>9.1f}"
            f"{point.survival_rate:>10.3f}{point.removal_precision:>11.3f}"
        )
    return "\n".join(lines)


def points_as_records(points: Sequence[AsynchronyPoint]) -> List[dict]:
    """JSON-ready rows (the BENCH_engine.json payload)."""
    return [asdict(point) for point in points]
