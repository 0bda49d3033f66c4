"""Extension benchmark: the smart-phone motivating example at scale.

The paper's Section 1 motivates context-awareness with the adaptive
smart phone; this benchmark runs the same Figure 9/10-style comparison
on that application (three heterogeneous context types: venue, noise,
calendar), with paired significance tests confirming the orderings.

The workload deliberately contains corruptions that only a *single*
constraint can expose (a mildly wrong microphone level violates just
the noise/venue agreement), which produces 1-vs-1 count ties --
drop-bad's known weak spot (Section 5.1).  The comparison therefore
also includes the conservative no-tie-discard drop-bad variant, which
recovers the lost ground.
"""

from dataclasses import replace

from conftest import write_report

from repro.core.drop_bad import DropBadStrategy
from repro.experiments.harness import (
    ComparisonConfig,
    ComparisonResult,
    pack_runner,
    run_comparison,
)
from repro.experiments.report import format_comparison
from repro.experiments.stats import compare_strategies

#: Drop-bad that refuses to discard on a count tie.
CONSERVATIVE = "drop-bad-conservative"


def _conservative() -> DropBadStrategy:
    strategy = DropBadStrategy(discard_on_tie=False)
    strategy.name = CONSERVATIVE  # distinct metrics key
    return strategy


def _run(groups: int):
    config = ComparisonConfig(
        strategies=(
            "opt-r",
            "drop-bad",
            CONSERVATIVE,
            "drop-latest",
            "drop-all",
        ),
        groups_per_point=groups,
        use_window=8,
        workload_kwargs=(("days", 2),),
    )
    named = tuple(s for s in config.strategies if s != CONSERVATIVE)
    metrics = run_comparison("smart-phone", replace(config, strategies=named)).groups
    # The conservative variant is an instance, not a registered name:
    # run it over the same (rate, group) streams as the sweep.
    runner = pack_runner(
        "smart-phone",
        workload_kwargs=config.workload_kwargs,
        use_window=config.use_window,
    )
    for rate_index, err_rate in enumerate(config.err_rates):
        for group in range(groups):
            seed = config.base_seed + rate_index * 1000 + group
            metrics.append(
                runner.run(
                    _conservative(), err_rate=err_rate, seed=seed, measures=False
                ).metrics
            )
    return ComparisonResult(config=config, groups=metrics)


def test_smart_phone_comparison(benchmark, bench_groups):
    result = benchmark.pedantic(
        _run, args=(bench_groups,), rounds=1, iterations=1
    )
    significance_lines = []
    for err_rate in result.config.err_rates:
        comparison = compare_strategies(
            result, "drop-bad", "drop-all", err_rate
        )
        significance_lines.append(
            f"  err {err_rate:.0%}: drop-bad - drop-all = "
            f"{comparison.mean_difference:+.1f} expected contexts/run "
            f"(paired t p={comparison.t_pvalue:.4f}, "
            f"sign p={comparison.sign_pvalue:.4f})"
        )
    write_report(
        "extension_smart_phone",
        format_comparison(
            result,
            f"Extension -- smart phone motivating example "
            f"({bench_groups} groups/point)",
            show_std=True,
        )
        + "\n\nPaired significance (drop-bad vs drop-all):\n"
        + "\n".join(significance_lines),
    )

    for err_rate in result.config.err_rates:
        bad = result.point("drop-bad", err_rate)
        conservative = result.point("drop-bad-conservative", err_rate)
        all_ = result.point("drop-all", err_rate)
        assert bad.ctx_use_rate > all_.ctx_use_rate
        assert bad.ctx_use_rate <= 100.0 + 1e-9
        # The workload's single-constraint-detectable corruptions make
        # tie discards costly; refusing them must recover context use.
        assert conservative.ctx_use_rate >= bad.ctx_use_rate
    # At 30/40% error the drop-bad advantage must be significant.
    final = compare_strategies(result, "drop-bad", "drop-all", 0.4)
    assert final.a_beats_b
    if bench_groups >= 5:
        assert final.t_pvalue < 0.05
