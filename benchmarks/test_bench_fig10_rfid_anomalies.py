"""Figure 10: resolution comparison for the RFID data anomalies
application -- the second of the paper's two headline experiments.

Same panels and strategies as Figure 9, on the RFID zone-read
workload.  Together with Figure 9 this is the paper's 320-group grid
per application at paper scale (REPRO_BENCH_GROUPS=20).
"""

from conftest import write_report

from repro.experiments.harness import ComparisonConfig, run_comparison
from repro.experiments.report import format_comparison


def _run(groups: int):
    config = ComparisonConfig(
        groups_per_point=groups,
        use_window=20,
        workload_kwargs=(("items", 10),),
    )
    return run_comparison("rfid", config)


def test_fig10_rfid_anomalies(benchmark, bench_groups):
    result = benchmark.pedantic(
        _run, args=(bench_groups,), rounds=1, iterations=1
    )
    write_report(
        "fig10_rfid_anomalies",
        format_comparison(
            result,
            f"Figure 10 -- RFID data anomalies ({bench_groups} "
            f"groups/point, paper: 20)",
        ),
    )
    for err_rate in result.config.err_rates:
        bad = result.point("drop-bad", err_rate)
        all_ = result.point("drop-all", err_rate)
        assert bad.ctx_use_rate > all_.ctx_use_rate
        assert bad.ctx_use_rate <= 100.0 + 1e-9
