"""Asynchrony degradation benchmark: drop-bad vs OPT-R off the happy path.

The paper's reliability story for drop-bad is measured on synchronized
streams.  This benchmark perturbs the smart-phone workload with the
:mod:`repro.sensing.perturb` adapters (delay / reorder / duplicate /
per-source clock skew at three intensities each) and records
drop-bad's OPT-R-normalized
quality with the runtime as-is versus behind the snapshot-window
async-check ingress.  The grid lands machine-readably as the
``async_degradation`` record of ``benchmarks/out/BENCH_engine.json``
(alongside the scalability records) and as a regenerated table.

Acceptance here is sanity, not a quality bar -- the experiment is the
measurement: every cell must complete (the duplicate rows used to
crash the pool before the duplicate-refusal fix), rates must be
finite, and the async rows must exist for every sync row.
"""

import pathlib

from conftest import write_report

from repro.engine import write_bench_json
from repro.experiments.asynchrony import (
    DEFAULT_PERTURBATIONS,
    format_asynchrony_table,
    points_as_records,
    run_asynchrony,
)

OUT_JSON = pathlib.Path(__file__).parent / "out" / "BENCH_engine.json"
GROUPS = 3


def test_async_degradation(benchmark):
    def run():
        return run_asynchrony(
            "smart-phone",
            groups=GROUPS,
            use_window=10,
            max_lag=6.0,
        )

    points = benchmark.pedantic(run, rounds=1, iterations=1)

    expected_cells = 2 * sum(
        len(levels) for _, levels in DEFAULT_PERTURBATIONS
    )
    assert len(points) == expected_cells
    for point in points:
        assert point.groups == GROUPS
        assert 0.0 <= point.ctx_use_rate < 1000.0
        assert 0.0 <= point.sit_act_rate < 1000.0
        assert 0.0 <= point.survival_rate <= 1.0
    # Every (perturbation, intensity) cell has a paired async-on row.
    sync_cells = {
        (p.perturbation, p.intensity) for p in points if not p.async_check
    }
    async_cells = {
        (p.perturbation, p.intensity) for p in points if p.async_check
    }
    assert sync_cells == async_cells

    table = format_asynchrony_table(points)
    write_report("async_degradation", table)
    write_bench_json(
        OUT_JSON,
        "async_degradation",
        {
            "app": "smart-phone",
            "groups": GROUPS,
            "max_lag": 6.0,
            "points": points_as_records(points),
        },
    )
