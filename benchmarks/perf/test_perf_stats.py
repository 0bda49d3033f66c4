"""Unit tests for the benchmark's exact statistics (``stats.py``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import random
import statistics

import pytest

from stats import (
    MIN_BEYOND,
    InsufficientSamples,
    percentile,
    relative_iqr,
    repeat_summary,
)


def test_nearest_rank_on_a_known_sample():
    samples = list(range(1, 201))  # 1..200
    assert percentile(samples, 50) == 100
    assert percentile(samples, 90) == 180
    assert percentile(samples, 95) == 190
    # rank ceil(0.99 * 200) = 198 leaves exactly 2 beyond it: refused.
    with pytest.raises(InsufficientSamples):
        percentile(samples, 99)


def test_every_percentile_is_one_of_the_samples():
    rng = random.Random(7)
    # Latencies on a continuum: a bucketed estimate would land on a
    # bucket edge that is, with probability 1, none of these values.
    samples = [rng.lognormvariate(0.0, 1.5) for _ in range(5000)]
    members = set(samples)
    for q in (1, 10, 25, 50, 75, 90, 95, 99, 99.5, 99.8):
        assert percentile(samples, q) in members


def test_percentile_does_not_depend_on_order():
    rng = random.Random(3)
    samples = [rng.random() for _ in range(1000)]
    shuffled = samples[:]
    rng.shuffle(shuffled)
    assert percentile(samples, 99) == percentile(shuffled, 99)


def test_refuses_a_tail_with_too_few_samples_beyond():
    # p99 of n samples has n - ceil(0.99 n) samples beyond it.
    assert percentile(list(range(1100)), 99) == 1088
    with pytest.raises(InsufficientSamples):
        percentile(list(range(999)), 99)
    with pytest.raises(InsufficientSamples):
        percentile([1.0] * (MIN_BEYOND - 1), 1)


def test_rejects_percentiles_outside_the_open_interval():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 0)
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 100)


def test_repeat_summary_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    q1, median, q3 = statistics.quantiles(values, n=4)
    summary = repeat_summary(values)
    assert (summary["q1"], summary["median"], summary["q3"]) == (q1, median, q3)
    assert summary["n"] == 6
    assert relative_iqr(summary) == pytest.approx((q3 - q1) / median)


def test_repeat_summary_of_one_repeat_has_no_spread():
    assert repeat_summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    with pytest.raises(ValueError):
        repeat_summary([])
