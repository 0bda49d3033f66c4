"""The complete strategy survey (paper Section 2).

Figures 9/10 plot four strategies; Section 2.3 additionally discusses
drop-random and user-specified policies, noting their results are
"unreliable (depending on random choices and user policies)".  This
benchmark runs all six on the Call Forwarding workload so the whole
survey is on one table, including the discard confusion scores.
"""

from conftest import write_report

from repro.experiments.harness import ComparisonConfig, run_comparison
from repro.experiments.report import STRATEGY_LABELS, format_table

STRATEGIES = (
    "opt-r",
    "drop-bad",
    "drop-latest",
    "drop-all",
    "drop-random",
    "user-specified",
)
ERR_RATE = 0.3


def _run(groups: int):
    config = ComparisonConfig(
        strategies=STRATEGIES,
        err_rates=(ERR_RATE,),
        groups_per_point=groups,
        use_window=10,
        workload_kwargs=(("duration", 300.0),),
    )
    return run_comparison("call-forwarding", config)


def test_all_strategies_survey(benchmark, bench_groups):
    result = benchmark.pedantic(
        _run, args=(bench_groups,), rounds=1, iterations=1
    )
    rows = []
    for name in STRATEGIES:
        point = result.point(name, ERR_RATE)
        rows.append(
            [
                STRATEGY_LABELS.get(name, name),
                f"{point.ctx_use_rate:6.1f} ±{point.ctx_use_rate_std:4.1f}",
                f"{point.sit_act_rate:6.1f}",
                f"{point.raw['removal_precision']:.3f}",
                f"{point.raw['survival_rate']:.3f}",
            ]
        )
    write_report(
        "survey_all_strategies",
        f"Section 2 survey -- all six strategies "
        f"(Call Forwarding, err {ERR_RATE:.0%}, {bench_groups} groups)\n"
        + format_table(
            ["strategy", "ctxUse%", "sitAct%", "precision", "survival"],
            rows,
        ),
    )

    bad = result.point("drop-bad", ERR_RATE)
    for name in ("drop-latest", "drop-all", "drop-random", "user-specified"):
        other = result.point(name, ERR_RATE)
        assert bad.ctx_use_rate > other.ctx_use_rate, name
    assert result.point("opt-r", ERR_RATE).ctx_use_rate == 100.0
