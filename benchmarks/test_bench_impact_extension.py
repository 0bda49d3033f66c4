"""Extension benchmark: impact-oriented drop-bad (paper future work).

The paper's conclusion proposes adjusting resolution actions by their
estimated impact on applications; `repro.core.impact_aware` implements
it.  This benchmark compares plain drop-bad against the impact-aware
variant whose model protects situation-relevant badge contexts, on the
Call Forwarding workload.
"""

from conftest import write_report

from repro.core.impact_aware import ImpactAwareDropBad, situation_relevance_model
from repro.experiments.harness import pack_runner
from repro.experiments.metrics import average_metrics, normalized_rate
from repro.experiments.report import format_table

ERR_RATE = 0.3

#: Badge values the Call Forwarding situations care about.
_RELEVANT_ROOMS = {"office-2", "meeting"}


def _impact_strategy():
    return ImpactAwareDropBad(
        impact=situation_relevance_model(
            lambda ctx: ctx.ctx_type == "badge"
            and ctx.value in _RELEVANT_ROOMS
        )
    )


def _run(groups: int):
    runner = pack_runner("call-forwarding", workload_kwargs={"duration": 300.0})
    streams = [
        runner.pack.generate_workload(ERR_RATE, 600 + g) for g in range(groups)
    ]
    variants = {
        "opt-r": lambda: "opt-r",
        "drop-bad": lambda: "drop-bad",
        "drop-bad-impact": _impact_strategy,
    }
    averaged = {}
    for name, factory in variants.items():
        averaged[name] = average_metrics(
            [
                runner.run(
                    factory(),
                    err_rate=ERR_RATE,
                    seed=600 + g,
                    use_window=10,
                    stream=stream,
                    measures=False,
                ).metrics
                for g, stream in enumerate(streams)
            ]
        )
    return averaged


def test_impact_extension(benchmark, bench_groups):
    averaged = benchmark.pedantic(
        _run, args=(bench_groups,), rounds=1, iterations=1
    )
    base = averaged["opt-r"]
    rows = []
    for name in ("drop-bad", "drop-bad-impact"):
        metrics = averaged[name]
        rows.append(
            [
                name,
                f"{normalized_rate(metrics['contexts_used_expected'], base['contexts_used_expected']):6.1f}",
                f"{normalized_rate(metrics['situations_activated_correct'], base['situations_activated_correct']):6.1f}",
                f"{metrics['removal_precision']:.3f}",
                f"{metrics['survival_rate']:.3f}",
            ]
        )
    write_report(
        "extension_impact_aware",
        "Extension -- impact-oriented drop-bad (CF, err 30%)\n"
        + format_table(
            ["strategy", "ctxUse%", "sitAct%", "precision", "survival"],
            rows,
        ),
    )

    impact = averaged["drop-bad-impact"]
    plain = averaged["drop-bad"]
    # Protecting situation-relevant contexts must not lose expected
    # contexts overall...
    assert (
        impact["contexts_used_expected"]
        >= plain["contexts_used_expected"] - 1.0
    )
    # ...and must preserve at least as many correct activations.
    assert (
        impact["situations_activated_correct"]
        >= plain["situations_activated_correct"] - 1.0
    )
