"""Exact statistics for the benchmark: percentiles from raw samples.

Two kinds of summary are used and kept apart on purpose:

* **Latency percentiles** are computed by nearest rank over the raw
  per-context samples pooled across repeats, so every reported value is
  one of the measured samples -- never a histogram bucket edge -- and
  the sample count travels with it.  A percentile with fewer than
  :data:`MIN_BEYOND` samples beyond it is refused: the tail it would
  describe is not in the data.
* **Repeat summaries** (median and quartiles of one value per repeat)
  use :func:`statistics.quantiles` with its default method, the same
  way run-to-run spreads are judged from outside.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

__all__ = [
    "MIN_BEYOND",
    "InsufficientSamples",
    "percentile",
    "repeat_summary",
    "relative_iqr",
]

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was requested that the sample cannot support."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``) of ``samples``.

    The rank is ``ceil(q/100 * n)``; the value at that rank (1-based,
    ascending) is returned.  Raises :class:`InsufficientSamples` when
    fewer than :data:`MIN_BEYOND` samples lie beyond that rank.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q * n / 100.0))
    if n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def repeat_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of one value per repeat.

    A single repeat has no spread: its quartiles equal the value.
    """
    if not values:
        raise ValueError("no repeats to summarize")
    if len(values) == 1:
        only = float(values[0])
        return {"median": only, "q1": only, "q3": only, "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def relative_iqr(summary: Dict[str, float]) -> float:
    """Quartile distance as a share of the median (0 when the median is)."""
    median = summary["median"]
    if median == 0:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(median)
