"""Substrate benchmark: middleware scalability with workload size.

The paper ran on a single P4 machine and argued resolution is cheap
enough to live in the middleware; this benchmark quantifies how the
full pipeline (incremental detection + drop-bad resolution + situation
evaluation) scales as the number of concurrently tracked items grows,
on the RFID workload.
"""

import pytest

from conftest import write_report

from repro.experiments.harness import pack_runner
from repro.experiments.report import format_table

RUNNER = pack_runner("rfid")
SIZES = (5, 10, 20, 40)
_STREAMS = {
    size: RUNNER.pack.generate_workload(0.3, 900 + size, items=size)
    for size in SIZES
}


@pytest.mark.parametrize("items", SIZES)
def test_pipeline_scalability(benchmark, items):
    contexts = _STREAMS[items]

    def run():
        return RUNNER.run(
            "drop-bad",
            err_rate=0.3,
            seed=900 + items,
            use_window=20,
            stream=contexts,
            measures=False,
        ).metrics

    metrics = benchmark.pedantic(run, rounds=2, iterations=1)
    assert metrics.contexts_total == len(contexts)
    # Quality must not degrade with scale: precision stays meaningful.
    assert metrics.removal_precision > 0.5


def test_scalability_summary(benchmark):
    """One pass over all sizes, reporting contexts/second."""
    import time

    def run():
        rows = []
        for items in SIZES:
            contexts = _STREAMS[items]
            start = time.perf_counter()
            RUNNER.run(
                "drop-bad",
                err_rate=0.3,
                seed=900 + items,
                use_window=20,
                stream=contexts,
                measures=False,
            )
            elapsed = time.perf_counter() - start
            rows.append(
                [
                    items,
                    len(contexts),
                    f"{elapsed * 1000:7.1f}",
                    f"{len(contexts) / elapsed:8.0f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report(
        "substrate_scalability",
        "Substrate -- pipeline scalability (RFID, drop-bad, err 30%)\n"
        + format_table(
            ["items", "contexts", "ms/run", "ctx/sec"], rows
        ),
    )
    # Throughput should not collapse by more than ~8x from the
    # smallest to the largest workload (detection is incremental, but
    # the live pool grows with concurrent items).
    smallest = float(rows[0][3])
    largest = float(rows[-1][3])
    assert largest > smallest / 8.0
