"""Section 5.2: the Landmarc case study.

Regenerates the paper's reported numbers -- location context survival
rate (96.5%), removal precision (84.7%), Rule 1 satisfaction (always)
and Rule 2' satisfaction (91.7%) -- on the simulated Landmarc
deployment, averaged over several seeds.
"""

from conftest import write_report

from repro.experiments.case_study import run_case_study
from repro.experiments.report import format_case_study, format_table

SEEDS = (3, 7, 11, 19, 23)


def _run():
    return [run_case_study(seed=s) for s in SEEDS]


def test_landmarc_case_study(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    def mean(attr):
        return sum(getattr(r, attr) for r in results) / len(results)

    rows = [
        ["survival rate", f"{mean('survival_rate'):.1%}", "96.5%"],
        ["removal precision", f"{mean('removal_precision'):.1%}", "84.7%"],
        ["Rule 1 held", f"{mean('rule1_rate'):.1%}", "100%"],
        ["Rule 2' held", f"{mean('rule2_relaxed_rate'):.1%}", "91.7%"],
        [
            "mean error raw -> delivered",
            f"{mean('mean_error_raw'):.2f}m -> "
            f"{mean('mean_error_delivered'):.2f}m",
            "(improves)",
        ],
    ]
    report = (
        f"Section 5.2 -- Landmarc case study (mean over {len(SEEDS)} seeds)\n"
        + format_table(["metric", "measured", "paper"], rows)
        + "\n\nPer-seed detail:\n"
        + format_case_study(results[0])
    )
    write_report("sec5_2_landmarc_case_study", report)

    # Shape assertions mirroring the paper's claims.
    assert mean("survival_rate") > 0.9
    assert mean("removal_precision") > 0.7
    assert mean("rule1_rate") == 1.0
    assert 0.7 < mean("rule2_relaxed_rate") <= 1.0
    assert mean("mean_error_delivered") < mean("mean_error_raw")
