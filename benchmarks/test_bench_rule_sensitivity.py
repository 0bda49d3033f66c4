"""Section 5.2's open question: how much Rule 2' is enough?

The paper ends its case study investigating "what percentage value
[of Rule 2' satisfaction] is sufficient for guaranteeing satisfactory
results from the drop-bad resolution strategy".  This benchmark sweeps
the error rate on the Call Forwarding workload, measuring per-run
Rule 1 / Rule 2' satisfaction (with the instrumented strategy) next to
the run's removal precision and survival rate, exposing the
rule-satisfaction -> resolution-quality relationship.
"""

from conftest import write_report

from repro.experiments.report import format_rule_sensitivity
from repro.experiments.rules_sweep import run_rule_sensitivity


def _run(groups: int):
    return run_rule_sensitivity(
        "call-forwarding",
        groups=groups,
        use_window=10,
        workload_kwargs={"duration": 300.0},
    )


def test_rule_sensitivity(benchmark, bench_groups):
    points = benchmark.pedantic(
        _run, args=(bench_groups,), rounds=1, iterations=1
    )
    write_report(
        "sec5_2_rule_sensitivity",
        "Section 5.2 open question -- rule satisfaction vs drop-bad "
        "quality (Call Forwarding)\n" + format_rule_sensitivity(points),
    )

    for point in points:
        # Rule 1 must hold essentially always: our constraints are
        # correct, so only corrupted contexts trigger them.  (A tiny
        # slack absorbs corrupted-vs-threshold borderline artefacts.)
        assert point.rule1_rate > 0.9
        assert 0.0 <= point.rule2_relaxed_rate <= 1.0
        assert point.observations > 0

    # Across the sweep, better rule-2' satisfaction must accompany
    # better removal precision (Spearman-style: the orderings agree on
    # the extremes).
    ordered = sorted(points, key=lambda p: p.rule2_relaxed_rate)
    assert (
        ordered[-1].removal_precision >= ordered[0].removal_precision - 0.05
    )
