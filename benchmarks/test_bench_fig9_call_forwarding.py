"""Figure 9: resolution comparison for the Call Forwarding application.

Regenerates both panels (context use rate, situation activation rate)
for OPT-R / D-BAD / D-LAT / D-ALL at error rates 10-40%, normalized
against OPT-R -- the paper's headline experiment.

Expected shape (Section 4.2): OPT-R = 100%; D-BAD clearly best among
practical strategies; D-LAT and D-ALL reduced by roughly 20-40%;
D-ALL worst.

The whole grid runs under one telemetry bundle; the sidecar
(``benchmarks/out/TELEMETRY_fig9_call_forwarding.json``) aggregates
per-stage latency histograms over every group, and its deliver/discard
span counts are asserted to equal the groups' delivered/discarded
context totals.
"""

import pathlib

from conftest import write_report

from repro.experiments.harness import ComparisonConfig, run_comparison
from repro.experiments.report import format_comparison
from repro.obs import Telemetry, read_sidecar, stage_histogram_nonempty, write_sidecar

OUT_TELEMETRY = (
    pathlib.Path(__file__).parent / "out" / "TELEMETRY_fig9_call_forwarding.json"
)


def _run(groups: int, telemetry: Telemetry):
    config = ComparisonConfig(
        groups_per_point=groups,
        use_window=10,
        workload_kwargs=(("duration", 300.0),),
    )
    return run_comparison("call-forwarding", config, telemetry=telemetry)


def test_fig9_call_forwarding(benchmark, bench_groups):
    telemetry = Telemetry(enabled=True)
    result = benchmark.pedantic(
        _run, args=(bench_groups, telemetry), rounds=1, iterations=1
    )
    write_report(
        "fig9_call_forwarding",
        format_comparison(
            result,
            f"Figure 9 -- Call Forwarding ({bench_groups} groups/point, "
            f"paper: 20)",
        ),
    )
    write_sidecar(
        OUT_TELEMETRY,
        telemetry,
        meta={
            "benchmark": "fig9_call_forwarding",
            "groups_per_point": bench_groups,
            "total_groups": result.config.total_groups,
        },
    )
    sidecar = read_sidecar(OUT_TELEMETRY)
    for stage in ("receive", "check", "resolve", "use", "deliver"):
        assert stage_histogram_nonempty(sidecar, stage), (
            f"stage {stage!r} histogram empty in {OUT_TELEMETRY}"
        )
    span_counts = sidecar["span_counts"]
    delivered_total = sum(g.contexts_used for g in result.groups)
    discarded_total = sum(g.contexts_discarded for g in result.groups)
    assert span_counts.get("stage.deliver", 0) == delivered_total
    assert span_counts.get("stage.discard", 0) == discarded_total

    # The paper's ordering must hold at every error rate for ctxUseRate.
    for err_rate in result.config.err_rates:
        bad = result.point("drop-bad", err_rate)
        latest = result.point("drop-latest", err_rate)
        all_ = result.point("drop-all", err_rate)
        assert bad.ctx_use_rate > all_.ctx_use_rate
        assert latest.ctx_use_rate > all_.ctx_use_rate
        assert bad.ctx_use_rate <= 100.0 + 1e-9
