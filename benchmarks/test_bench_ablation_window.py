"""Section 5.3 ablation: impact of the time window on drop-bad.

The paper argues that with a zero window drop-bad degenerates to
drop-latest-like behaviour and that the window is what buys count
evidence; it leaves the quantitative study as future work.  This
benchmark performs it: drop-bad vs drop-latest context-use rates as
the use window grows.
"""

from conftest import write_report

from repro.experiments.ablations import run_window_ablation
from repro.experiments.report import format_window_ablation

WINDOWS = (0, 2, 5, 10, 20, 40)


def _run(groups: int):
    return run_window_ablation(
        "rfid",
        windows=WINDOWS,
        err_rate=0.3,
        groups=groups,
        workload_kwargs={"items": 10},
    )


def test_window_ablation(benchmark, bench_groups):
    points = benchmark.pedantic(
        _run, args=(bench_groups,), rounds=1, iterations=1
    )
    write_report(
        "sec5_3_window_ablation",
        "Section 5.3 -- use-window ablation (RFID, err_rate 30%)\n"
        + format_window_ablation(points),
    )

    by_window = {p.window: p for p in points}
    # Drop-latest is window-invariant (decides at detection).
    latest_rates = [p.drop_latest_use_rate for p in points]
    assert max(latest_rates) - min(latest_rates) < 3.0
    # A grown window must help drop-bad substantially vs window 0.
    assert (
        by_window[WINDOWS[-1]].drop_bad_use_rate
        > by_window[0].drop_bad_use_rate
    )
    # The degeneration claim, read quantitatively: at zero window
    # drop-bad has collected no count evidence, so its edge over
    # drop-latest must be far below the full-window edge (it need not
    # be exactly zero -- used contexts leaving the checking scope
    # already differentiates the two implementations slightly).
    assert (
        by_window[0].advantage
        < 0.6 * by_window[WINDOWS[-1]].advantage + 1.0
    )
    assert by_window[WINDOWS[-1]].advantage > 0.0
    # The count evidence is what the window buys: removal precision
    # must grow substantially from window 0 to the full window.
    assert (
        by_window[WINDOWS[-1]].drop_bad_precision
        > by_window[0].drop_bad_precision + 0.2
    )
