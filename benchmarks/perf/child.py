"""One repeat of one workload, in a fresh process.

Run by ``run.py`` as ``python child.py '<json spec>'``; prints JSON lines
on stdout and nothing else.  The spec carries the workload, seed,
scale, whether to trace, and ``launch`` -- the parent's
``time.monotonic()`` just before it started this process (Linux's
monotonic clock is shared by all processes, so ``ready - launch`` is
this process's set-up time).

* offline: build the engine and open its stream (the system is then
  ready), generate the input, and time ``submit`` in fixed chunks
  through ``close()``.
* serve: build engine + ``IngestService`` + ``IngestServer``, bind an
  ephemeral port, print ``{"ready": ..., "port": ...}``, and serve until
  SIGTERM; then drain and report.

The last line is the result: decision digest, counts, timings, peak
RSS, full-collection pauses, and -- when traced -- the layer table.
"""

from __future__ import annotations

import gc
import json
import pathlib
import resource
import sys
import time

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
sys.path.insert(0, str(SRC))

import trace as layer_trace  # noqa: E402  (benchmarks/perf/trace.py)
import workloads  # noqa: E402


class GcPauses:
    """Full (generation 2) collections and their pause time."""

    def __init__(self) -> None:
        self.count = 0
        self.pause_s = 0.0
        self._started = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.count += 1
            self.pause_s += time.perf_counter() - self._started

    def reset(self) -> None:
        self.count = 0
        self.pause_s = 0.0

    def close(self) -> None:
        gc.callbacks.remove(self._callback)


class RawSamples:
    """Stands in for a latency histogram and keeps every observation."""

    def __init__(self) -> None:
        self.values: list = []
        self.observe = self.values.append


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tracer(spec: dict):
    if not spec["traced"]:
        return None
    tracer = layer_trace.Tracer()
    strategy = workloads.WORKLOADS[spec["workload"]].strategy
    tracer.install(
        list(layer_trace.LAYER_TARGETS) + layer_trace.strategy_targets(strategy)
    )
    return tracer


def _decisions(stream, n: int) -> dict:
    delivered, discarded = workloads.stream_decisions(stream)
    return {
        "digest": workloads.decision_digest(delivered, discarded),
        "delivered": len(delivered),
        "discarded": len(discarded),
        "undecided": n - len(set(delivered) | set(discarded)),
    }


def _layer_extras(tracer, stream, n: int) -> dict:
    """Layer ratios read off the tracer's unit counters and the logs."""
    rows = tracer.units("constraints.detect_batch")
    logs = [pipeline.resolution.log for pipeline in stream.pipelines]
    return {
        "core.discards_per_ctx": sum(len(log.discarded) for log in logs) / n,
        "constraints.detect_batch.rows_per_ctx": rows / n,
        "runtime.batch_verdict_yield": (
            tracer.units("runtime.add") / rows if rows else 0.0
        ),
        "constraints.inconsistencies_per_ctx": (
            sum(len(log.detected) for log in logs) / n
        ),
        "runtime.expired_per_ctx": stream.expired / n,
    }


def run_offline(spec: dict) -> dict:
    tracer = _tracer(spec)
    pauses = GcPauses()
    engine = workloads.build_engine(spec["workload"])
    stream = engine.open_stream()
    ready = time.monotonic()
    contexts = workloads.generate(spec["workload"], spec["seed"], spec["scale"])
    n = len(contexts)
    chunks = [
        contexts[i : i + workloads.CHUNK]
        for i in range(0, n, workloads.CHUNK)
    ]
    pool_sizes = []
    latencies = []
    gc.collect()
    pauses.reset()
    clock = time.perf_counter
    try:
        started = clock()
        for chunk in chunks:
            before = clock()
            stream.submit(chunk)
            latencies.append(clock() - before)
            if tracer is not None:
                pool_sizes.append(stream.pool_size())
        stream.close()
        elapsed = clock() - started
    finally:
        pauses.close()
        if tracer is not None:
            tracer.remove()
    result = {
        "n": n,
        "setup_s": ready - spec["launch"],
        "elapsed_s": elapsed,
        "chunk_latency_s": latencies,
        "chunk_sizes": [len(chunk) for chunk in chunks],
        "peak_rss_mb": _peak_rss_mb(),
        "gc_gen2_count": pauses.count,
        "gc_gen2_pause_ms": pauses.pause_s * 1e3,
        "decisions": _decisions(stream, n),
    }
    if tracer is not None:
        layers = tracer.layer_metrics(n)
        layers.update(_layer_extras(tracer, stream, n))
        layers["runtime.pool_size.mean"] = sum(pool_sizes) / len(pool_sizes)
        layers["runtime.pool_size.max"] = float(max(pool_sizes))
        result["trace"] = {
            "layers": layers,
            "self_s": tracer.self_seconds(),
            "denominator_s": elapsed,
        }
    return result


def run_serve(spec: dict) -> dict:
    import asyncio

    from repro.obs.telemetry import Telemetry
    from repro.serve import IngestServer, IngestService, ServeConfig

    tracer = _tracer(spec)
    pauses = GcPauses()
    telemetry = Telemetry(enabled=True)
    engine = workloads.build_engine(
        spec["workload"], telemetry=telemetry, ledger_path=spec["ledger"]
    )
    service = IngestService(
        engine, config=ServeConfig(port=0), telemetry=telemetry
    )
    server = IngestServer(service)
    stream = service.stream
    decision_samples = None
    queue_wait = []
    pool_sizes = []
    if tracer is None:
        # The service's own admission -> decision measurement, kept raw
        # instead of bucketed.
        decision_samples = RawSamples()
        service._decision_hist = decision_samples
    else:
        submit = stream.submit
        pending = service._pending

        def probed_submit(contexts):
            entered = time.perf_counter()
            for ctx in contexts:
                queue_wait.append(entered - pending[ctx.ctx_id])
            processed = submit(contexts)
            pool_sizes.append(stream.pool_size())
            return processed

        stream.submit = probed_submit

    async def main():
        host, port = await server.start()
        cpu_ready = time.process_time()
        print(
            json.dumps({"ready": time.monotonic(), "port": port}), flush=True
        )
        gc.collect()
        pauses.reset()
        report = await server.run()
        return report, time.process_time() - cpu_ready

    report, cpu_s = asyncio.run(main())
    n = report["admitted"]
    writer = stream.ledger_writer
    result = {
        "n": n,
        "drain": report,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "gc_gen2_count": pauses.count,
        "gc_gen2_pause_ms": pauses.pause_s * 1e3,
        "decisions": _decisions(stream, n),
        "decision_s": decision_samples.values if decision_samples else [],
    }
    pauses.close()
    if tracer is not None:
        tracer.remove()
        layers = tracer.layer_metrics(n)
        layers.update(_layer_extras(tracer, stream, n))
        layers["runtime.pool_size.mean"] = sum(pool_sizes) / len(pool_sizes)
        layers["runtime.pool_size.max"] = float(max(pool_sizes))
        layers["ledger.entries_per_ctx"] = writer.seq / n
        layers["ledger.bytes_per_ctx"] = writer.bytes_written / n
        result["queue_wait_s"] = queue_wait
        result["trace"] = {
            "layers": layers,
            "self_s": tracer.self_seconds(),
            "denominator_s": cpu_s,
        }
    return result


def main() -> None:
    spec = json.loads(sys.argv[1])
    kind = workloads.WORKLOADS[spec["workload"]].kind
    result = run_offline(spec) if kind == "offline" else run_serve(spec)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
