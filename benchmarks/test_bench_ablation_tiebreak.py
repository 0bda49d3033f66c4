"""Section 5.1 ablation: the tie case.

The paper identifies ties at the maximal count value as drop-bad's
main weakness and proposes studying which tied context to discard as
future work.  This benchmark compares the tie-break policies of
``repro.core.tiebreak`` plus the conservative variant that refuses to
discard on a pure tie.
"""

from conftest import write_report

from repro.experiments.ablations import run_tiebreak_ablation
from repro.experiments.report import format_tiebreak_ablation


def _run(groups: int):
    return run_tiebreak_ablation(
        "call-forwarding",
        err_rate=0.3,
        groups=groups,
        use_window=10,
        workload_kwargs={"duration": 300.0},
    )


def test_tiebreak_ablation(benchmark, bench_groups):
    points = benchmark.pedantic(
        _run, args=(bench_groups,), rounds=1, iterations=1
    )
    write_report(
        "sec5_1_tiebreak_ablation",
        "Section 5.1 -- tie-break ablation (Call Forwarding, err 30%)\n"
        + format_tiebreak_ablation(points),
    )

    assert len(points) == 6  # five policies + conservative variant
    for point in points:
        assert 0.0 <= point.ctx_use_rate <= 100.0 + 1e-9
        assert 0.0 <= point.removal_precision <= 1.0
    # The conservative variant trades recall for survival: it must not
    # lose MORE expected contexts than the tie-discarding default.
    default = next(
        p for p in points if p.policy == "oldest" and p.discard_on_tie
    )
    conservative = next(p for p in points if not p.discard_on_tie)
    assert conservative.survival_rate >= default.survival_rate - 0.02
