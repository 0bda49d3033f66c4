"""The repository benchmark: four workloads, timed from outside.

Run from the repository root::

    python benchmarks/perf/run.py [--seed 11] [--repeats 5] [--workload W ...]
                                  [--scale 1.0] [--out PATH]
    python benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
                                  [--scale X]
    python benchmarks/perf/run.py compare A.json B.json

Without ``--seconds`` every selected workload runs ``--repeats`` timed
repeats plus one traced repeat, each in a fresh child process, and a
compact summary (medians, quartiles, layer metrics, provenance) is
written to ``--out``.  With ``--seconds`` one workload repeats for about
that long -- untimed repeats only with ``--trace 0``, untimed and traced
alternately with ``--trace 1`` -- and the last line printed is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.

Every input is generated from ``--seed`` before any timed region, and
every run's decisions are checked against a reference host; a mismatch
makes the command exit non-zero.  See README.md for the workloads, the
metrics and how to compare two commits.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# Siblings in this directory; none imports the program at import time.
import trace as layer_trace
import workloads
from loadgen import encode_frame, run_phase
from stats import InsufficientSamples, percentile, relative_iqr, repeat_summary

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = HERE / ".work"
DEFAULT_OUT = HERE / "out" / "latest.json"
VERSION = 1

#: Seconds any one child may take before it is killed.
CHILD_TIMEOUT = 170.0
#: A nominal phase whose sends ran later than this at p99 is invalid.
MAX_LATENESS_P99_S = 0.005

#: Every end-to-end metric of a summary: name -> (unit, better).
#: ``BENCHMARK.json`` gates those whose run-to-run spread it can bound.
E2E: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ctx_per_s": ("ctx/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_ratio": ("fraction", "lower"),
    "ack_p50_ms": ("ms", "lower"),
    "ack_p99_ms": ("ms", "lower"),
    "decision_p50_ms": ("ms", "lower"),
}


class BenchmarkError(RuntimeError):
    """A run could not be measured (not a wrong decision)."""


# -- provenance -----------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    # A checkout that is not a repository has no commit to report; git
    # must not find one in a directory above it.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args) -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    load = os.getloadavg()
    nproc = os.cpu_count() or 1
    if load[0] > nproc:
        print(
            f"warning: 1-minute load {load[0]:.2f} exceeds nproc {nproc}; "
            "timings will be noisy",
            file=sys.stderr,
        )
    return {
        "benchmark_version": VERSION,
        "commit": commit or "unknown",
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg_start": load,
        "seed": args.seed,
        "scale": args.scale,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# -- children -------------------------------------------------------------------


def _spec(workload: str, seed: int, scale: float, traced: bool, **extra) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        **extra,
    }


def _last_json_line(out: str, what: str) -> dict:
    lines = out.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{what} printed no result")
    return json.loads(lines[-1])


def run_offline_repeat(workload: str, seed: int, scale: float, traced: bool) -> dict:
    spec = _spec(workload, seed, scale, traced, launch=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} child exited with {proc.returncode}")
    return _last_json_line(out, f"{workload} child")


async def _serve_phase(
    workload: str,
    seed: int,
    scale: float,
    traced: bool,
    frames: Sequence[bytes],
    ctx_ids: Sequence[str],
    rate: Optional[float],
) -> dict:
    WORK.mkdir(exist_ok=True)
    ledger = WORK / f"ledger-{os.getpid()}.jsonl"
    spec = _spec(
        workload, seed, scale, traced, ledger=str(ledger), launch=time.monotonic()
    )
    proc = await asyncio.create_subprocess_exec(
        sys.executable, str(CHILD), json.dumps(spec), stdout=subprocess.PIPE
    )
    try:
        line = await asyncio.wait_for(proc.stdout.readline(), CHILD_TIMEOUT)
        if not line:
            raise BenchmarkError(f"{workload} server never became ready")
        ready = json.loads(line)
        load = await run_phase(
            "127.0.0.1",
            ready["port"],
            frames,
            ctx_ids,
            rate=rate,
            timeout=CHILD_TIMEOUT,
        )
        proc.send_signal(signal.SIGTERM)
        out = await asyncio.wait_for(proc.stdout.read(), CHILD_TIMEOUT)
        await asyncio.wait_for(proc.wait(), CHILD_TIMEOUT)
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
        ledger.unlink(missing_ok=True)
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} server exited with {proc.returncode}")
    result = _last_json_line(out.decode("utf-8"), f"{workload} server")
    result["setup_s"] = ready["ready"] - spec["launch"]
    result["sent"] = len(frames)
    result["load"] = load
    return result


def run_serve_phase(workload, seed, scale, traced, frames, ctx_ids, rate) -> dict:
    # The generator's own collector would show up as send lateness.
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(
            _serve_phase(workload, seed, scale, traced, frames, ctx_ids, rate)
        )
    finally:
        gc.enable()


# -- one workload -----------------------------------------------------------------


class Inputs:
    """What the parent prepares once per workload, outside timed regions:
    reference decisions, and for serve-home the encoded frames."""

    def __init__(self, workload: str, seed: int, scale: float) -> None:
        self.kind = workloads.WORKLOADS[workload].kind
        contexts = workloads.generate(workload, seed, scale)
        self.phases: Dict[str, dict] = {}
        if self.kind == "offline":
            self.n = len(contexts)
            self.expected = {"repeat": workloads.expected_decisions(workload, contexts)}
            self.phases["repeat"] = {"contexts": self.n, "chunk": workloads.CHUNK}
            return
        from repro.serve.protocol import record_from_context

        self.n = workloads.nominal_records(scale)
        self.expected = {}
        self.frames: Dict[str, List[bytes]] = {}
        self.ctx_ids: Dict[str, List[str]] = {}
        for phase, count, rate in (
            ("nominal", workloads.nominal_records(scale), workloads.NOMINAL_RATE),
            ("saturate", workloads.saturate_records(scale), None),
        ):
            prefix = contexts[:count]
            self.expected[phase] = workloads.expected_decisions(workload, prefix)
            self.frames[phase] = [
                encode_frame(json.dumps(record_from_context(c)).encode("utf-8"))
                for c in prefix
            ]
            self.ctx_ids[phase] = [c.ctx_id for c in prefix]
            self.phases[phase] = {"records": count, "rate": rate}


def _jobs(
    kind: str, *, repeats: Optional[int], trace: bool
) -> Iterator[Tuple[str, bool]]:
    """``(phase, traced)`` jobs in run order; endless when ``repeats`` is None.

    A repeat is one offline run, or for serve-home a ``nominal`` phase
    (latency) and a ``saturate`` phase (throughput).  A fixed run is
    ``repeats`` repeats and then one traced job; a time-boxed run cycles
    repeats, each followed by a traced job when ``trace`` is set.
    """
    if kind == "offline":
        repeat, traced = [("repeat", False)], ("repeat", True)
    else:
        repeat, traced = [("nominal", False), ("saturate", False)], ("saturate", True)
    if repeats is not None:
        for _ in range(repeats):
            yield from repeat
        yield traced
        return
    while True:
        yield from repeat
        if trace:
            yield traced


def _minimum_jobs(kind: str, trace: bool) -> int:
    """Jobs a time-boxed run always completes: a traced job and its
    untraced twin, or enough untraced repeats for a median."""
    if trace:
        return 2 if kind == "offline" else 3
    return 3 if kind == "offline" else 4


def measure(
    workload: str,
    seed: int,
    scale: float,
    *,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
    trace: bool = False,
) -> dict:
    """Run one workload's jobs and check every one's decisions."""
    inputs = Inputs(workload, seed, scale)
    gc.collect()
    loadavg_before = os.getloadavg()
    jobs: List[dict] = []
    last_duration: Dict[Tuple[str, bool], float] = {}
    started = time.monotonic()
    minimum = _minimum_jobs(inputs.kind, trace)
    for phase, traced in _jobs(inputs.kind, repeats=repeats, trace=trace):
        if seconds is not None and len(jobs) >= minimum:
            predicted = last_duration.get((phase, traced), 0.0)
            if time.monotonic() - started + predicted > seconds:
                break
        job_started = time.monotonic()
        if inputs.kind == "offline":
            result = run_offline_repeat(workload, seed, scale, traced)
        else:
            result = run_serve_phase(
                workload,
                seed,
                scale,
                traced,
                inputs.frames[phase],
                inputs.ctx_ids[phase],
                inputs.phases[phase]["rate"],
            )
        last_duration[(phase, traced)] = time.monotonic() - job_started
        result["phase"] = phase
        result["traced"] = traced
        result["expected"] = inputs.expected[phase]
        jobs.append(result)
    return {
        "kind": inputs.kind,
        "n": inputs.n,
        "phases": inputs.phases,
        "jobs": jobs,
        "loadavg": {"before": loadavg_before, "after": os.getloadavg()},
        "measured_s": time.monotonic() - started,
    }


# -- metrics ----------------------------------------------------------------------


def check(measurement: dict) -> dict:
    """Failures against attempts, and whether every decision matched.

    A context fails when it never reached a terminal decision, was shed,
    drew an error verdict, or was lost in the drain.  A decision digest
    that differs from the reference fails the whole workload.
    """
    attempted = failed = 0
    problems: List[str] = []
    for index, job in enumerate(measurement["jobs"]):
        decisions = job["decisions"]
        if measurement["kind"] == "offline":
            attempted += job["n"]
            failed += decisions["undecided"]
        else:
            load, drain = job["load"], job["drain"]
            attempted += job["sent"]
            failed += (
                load["shed"]
                + load["errors"]
                + drain["lost"]
                + drain["pump_errors"]
                + decisions["undecided"]
            )
            if drain["lost"]:
                problems.append(f"job {index}: drain lost {drain['lost']}")
        if decisions["digest"] != job["expected"]:
            problems.append(
                f"job {index} ({job['phase']}): decision digest "
                f"{decisions['digest'][:12]} != reference {job['expected'][:12]}"
            )
    if problems:
        failed = attempted
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def _ms(values: Sequence[float]) -> List[float]:
    return [v * 1e3 for v in values]


def _repeat_metric(values: Sequence[float]) -> dict:
    summary = repeat_summary(values)
    return {"value": summary["median"], "values": list(values), **summary}


def _latency_metric(runs: Sequence[Sequence[float]], q: float) -> dict:
    """Pooled nearest-rank percentile, plus the per-run percentiles' spread."""
    pooled = [v for run in runs for v in run]
    entry: dict = {"samples": len(pooled)}
    try:
        entry["value"] = percentile(pooled, q)
    except InsufficientSamples as error:
        entry["value"] = None
        entry["refused"] = str(error)
        return entry
    per_run = []
    for run in runs:
        try:
            per_run.append(percentile(run, q))
        except InsufficientSamples:
            pass
    entry["values"] = per_run or [entry["value"]]
    entry.update(repeat_summary(entry["values"]))
    return entry


def _expand_chunks(job: dict) -> List[float]:
    """One sample per context: the latency of the submit that carried it."""
    samples: List[float] = []
    for latency, size in zip(job["chunk_latency_s"], job["chunk_sizes"]):
        samples.extend([latency * 1e3] * size)
    return samples


def _late_p99_s(job: dict) -> Optional[float]:
    try:
        return percentile(job["load"]["late_s"], 99)
    except InsufficientSamples:
        return None


def valid_nominal(jobs: Sequence[dict]) -> List[dict]:
    """Untraced nominal phases whose generator kept to its schedule.

    A phase whose sends ran more than :data:`MAX_LATENESS_P99_S` late at
    p99 measured the generator, not the server; its latencies are left
    out (and counted in the summary).
    """
    valid = []
    for job in jobs:
        if job["traced"] or job["phase"] != "nominal":
            continue
        late = _late_p99_s(job)
        if late is None or late <= MAX_LATENESS_P99_S:
            valid.append(job)
    return valid


def end_to_end(measurement: dict, verdict: dict) -> Dict[str, dict]:
    """The seven end-to-end metrics over the untraced jobs.

    Offline, a context's verdict returns to its caller when the
    ``submit`` that carried it returns, and it was handed to the engine
    when that call started: ack and decision latency coincide.
    serve-home takes throughput, memory and set-up from its saturate
    phases and latency from its valid nominal phases.
    """
    timed = [job for job in measurement["jobs"] if not job["traced"]]
    if measurement["kind"] == "offline":
        throughput_jobs = timed
        rates = [job["n"] / job["elapsed_s"] for job in timed]
        ack_runs = decision_runs = [_expand_chunks(job) for job in timed]
    else:
        throughput_jobs = [job for job in timed if job["phase"] == "saturate"]
        nominal = valid_nominal(timed)
        rates = [
            job["sent"] / (job["load"]["last_ack"] - job["load"]["t0"])
            for job in throughput_jobs
        ]
        ack_runs = [_ms(job["load"]["ack_s"]) for job in nominal]
        decision_runs = [_ms(job["decision_s"]) for job in nominal]
    values = {
        "setup_s": _repeat_metric([job["setup_s"] for job in timed]),
        "ctx_per_s": _repeat_metric(rates),
        "peak_rss_mb": _repeat_metric([job["peak_rss_mb"] for job in throughput_jobs]),
        "failed_ratio": {"value": verdict["failed"] / verdict["attempted"]},
        "ack_p50_ms": _latency_metric(ack_runs, 50),
        "ack_p99_ms": _latency_metric(ack_runs, 99),
        "decision_p50_ms": _latency_metric(decision_runs, 50),
    }
    return {name: {"unit": E2E[name][0], **entry} for name, entry in values.items()}


#: Layer metrics beyond ``<layer>.calls_per_ctx`` / ``.self_us_per_ctx``:
#: name -> (unit, better).
LAYER_EXTRAS: Dict[str, Tuple[str, str]] = {
    "core.discards_per_ctx": ("discards/ctx", "lower"),
    "constraints.detect_batch.rows_per_ctx": ("rows/ctx", "lower"),
    "runtime.batch_verdict_yield": ("fraction", "higher"),
    "constraints.inconsistencies_per_ctx": ("incons/ctx", "lower"),
    "runtime.expired_per_ctx": ("expired/ctx", "lower"),
    "runtime.pool_size.mean": ("ctx", "lower"),
    "runtime.pool_size.max": ("ctx", "lower"),
    "serve.batch_size.mean": ("ctx", "higher"),
    "serve.queue_wait.p50_ms": ("ms", "lower"),
    "serve.queue_wait.p99_ms": ("ms", "lower"),
    "serve.decision.p99_ms": ("ms", "lower"),
    "serve.gen_late_p99_ms": ("ms", "lower"),
    # ack_p99_ms is set by a few stalls per run, too few to bound the
    # run-to-run spread of a 25-second run; it is reported, not gated.
    "tail.ack_p99_ms": ("ms", "lower"),
    "ledger.entries_per_ctx": ("entries/ctx", "lower"),
    "ledger.bytes_per_ctx": ("B/ctx", "lower"),
    "process.gc_gen2_count": ("count", "lower"),
    "process.gc_gen2_pause_ms": ("ms", "lower"),
    "trace.coverage": ("fraction", "higher"),
    "trace.unattributed_us_per_ctx": ("us/ctx", "lower"),
    "trace.overhead": ("fraction", "lower"),
}


def layer_table() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    table: Dict[str, Tuple[str, str]] = {}
    for layer in layer_trace.LAYERS:
        table[f"{layer}.calls_per_ctx"] = ("calls/ctx", "lower")
        table[f"{layer}.self_us_per_ctx"] = ("us/ctx", "lower")
    table.update(LAYER_EXTRAS)
    return table


def _median(values: Sequence[float]) -> float:
    return repeat_summary(values)["median"] if values else 0.0


def _pooled(runs: Sequence[Sequence[float]], q: float) -> Optional[float]:
    try:
        return percentile([v for run in runs for v in run], q)
    except InsufficientSamples:
        return None


def layers(measurement: dict) -> Dict[str, Optional[float]]:
    """Per-layer metrics from the traced jobs (0 for layers not crossed)."""
    jobs = measurement["jobs"]
    traced = [job for job in jobs if job["traced"]]
    timed = [job for job in jobs if not job["traced"]]
    metrics: Dict[str, Optional[float]] = {name: 0.0 for name in layer_table()}
    if traced:
        for name in traced[0]["trace"]["layers"]:
            metrics[name] = _median([job["trace"]["layers"][name] for job in traced])
        spans = [job["trace"] for job in traced]
        metrics["trace.coverage"] = _median(
            [span["self_s"] / span["denominator_s"] for span in spans]
        )
        metrics["trace.unattributed_us_per_ctx"] = _median(
            [
                (span["denominator_s"] - span["self_s"]) / job["n"] * 1e6
                for span, job in zip(spans, traced)
            ]
        )
        # Offline the traced cost is wall time; on serve, server CPU.
        cost = "elapsed_s" if measurement["kind"] == "offline" else "cpu_s"
        twins = [job[cost] for job in timed if job["phase"] == traced[0]["phase"]]
        if twins:
            traced_cost = _median([job[cost] for job in traced])
            metrics["trace.overhead"] = traced_cost / _median(twins) - 1.0
    if measurement["kind"] == "offline":
        gc_jobs = timed
    else:
        gc_jobs = [job for job in timed if job["phase"] == "nominal"]
        if traced:
            submits = metrics["engine.submit.calls_per_ctx"]
            metrics["serve.batch_size.mean"] = 1.0 / submits
            waits = [_ms(job["queue_wait_s"]) for job in traced]
            metrics["serve.queue_wait.p50_ms"] = _pooled(waits, 50)
            metrics["serve.queue_wait.p99_ms"] = _pooled(waits, 99)
        decisions = [_ms(job["decision_s"]) for job in valid_nominal(timed)]
        metrics["serve.decision.p99_ms"] = _pooled(decisions, 99)
        late = [_ms(job["load"]["late_s"]) for job in gc_jobs]
        metrics["serve.gen_late_p99_ms"] = _pooled(late, 99)
    counts = [job["gc_gen2_count"] for job in gc_jobs]
    pauses = [job["gc_gen2_pause_ms"] for job in gc_jobs]
    metrics["process.gc_gen2_count"] = _median(counts)
    metrics["process.gc_gen2_pause_ms"] = _median(pauses)
    return metrics


def ranking(
    metrics: Dict[str, Optional[float]], top: int = 5
) -> List[Tuple[str, float]]:
    """The ``top`` layers by self time, with their share of all self time."""
    suffix = ".self_us_per_ctx"
    selfs = {
        name[: -len(suffix)]: value
        for name, value in metrics.items()
        if name.endswith(suffix) and value
    }
    total = sum(selfs.values()) or 1.0
    ordered = sorted(selfs.items(), key=lambda item: item[1], reverse=True)
    return [(name, value / total) for name, value in ordered[:top]]


def summarize(measurement: dict) -> dict:
    verdict = check(measurement)
    e2e = end_to_end(measurement, verdict)
    layer_metrics = layers(measurement)
    layer_metrics["tail.ack_p99_ms"] = e2e["ack_p99_ms"]["value"]
    summary = {
        "n": measurement["n"],
        "phases": measurement["phases"],
        "loadavg": measurement["loadavg"],
        "measured_s": measurement["measured_s"],
        "jobs": len(measurement["jobs"]),
        **verdict,
        "e2e": e2e,
        "layers": layer_metrics,
        "ranking": ranking(layer_metrics),
    }
    if measurement["kind"] == "serve":
        nominal = [
            job for job in measurement["jobs"]
            if job["phase"] == "nominal" and not job["traced"]
        ]
        summary["invalid_nominal"] = len(nominal) - len(valid_nominal(nominal))
    return summary


# -- output -------------------------------------------------------------------------


def _fmt(value: Optional[float]) -> str:
    return "refused" if value is None else f"{value:.4g}"


def report(name: str, summary: dict, out=sys.stdout) -> None:
    print(
        f"{name}: n={summary['n']} jobs={summary['jobs']} "
        f"failed={summary['failed']}/{summary['attempted']} "
        f"correct={summary['correct']}",
        file=out,
    )
    for problem in summary["problems"]:
        print(f"  MISMATCH {problem}", file=out)
    for metric, entry in summary["e2e"].items():
        line = f"  {metric:<16} {_fmt(entry['value']):>12} {entry['unit']:<8}"
        if "q1" in entry:
            q1, q3 = _fmt(entry["q1"]), _fmt(entry["q3"])
            line += f"  [q1 {q1} .. q3 {q3}, n={entry['n']}]"
        if "samples" in entry:
            line += f"  samples={entry['samples']}"
        print(line, file=out)
    top = ", ".join(f"{layer} {share:.0%}" for layer, share in summary["ranking"])
    lm = summary["layers"]
    print(
        f"  self time: {top}; coverage {_fmt(lm['trace.coverage'])}, "
        f"overhead {_fmt(lm['trace.overhead'])}",
        file=out,
    )


def declared() -> dict:
    """``BENCHMARK.json``: the declared workloads, metrics and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(summary: dict, trace: bool) -> dict:
    """The one-line result: the declared end-to-end metrics, or with
    ``trace`` the declared per-layer metrics.  Failures travel in
    ``attempted`` / ``failed`` rather than as a metric that is 0."""
    if trace:
        table = layer_table()
        names = [m["name"] for m in declared()["per_layer"]]
        values = {name: (summary["layers"][name], table[name][0]) for name in names}
    else:
        names = [m["name"] for m in declared()["end_to_end"]]
        values = {
            name: (summary["e2e"][name]["value"], summary["e2e"][name]["unit"])
            for name in names
        }
    refused = sorted(name for name, (value, _) in values.items() if value is None)
    if refused:
        raise BenchmarkError(f"too few samples for {', '.join(refused)}")
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
    }


# -- compare ----------------------------------------------------------------------


def _verdict(
    a: dict, b: dict, bound: Optional[float], better: str
) -> Tuple[str, Optional[float]]:
    """improved / unchanged / regressed / unresolved for B against A.

    B improved or regressed when its median is better or worse than A's
    by more than the bound, and is unchanged within it.  Where either
    side's spread is wider than the bound, or the metric has no bound,
    only a B whose every repeat beats (or loses to) every repeat of A
    gets a verdict other than unresolved.
    """
    va, vb = a.get("value"), b.get("value")
    if va is None or vb is None:
        return "unresolved", None
    sign = 1.0 if better == "higher" else -1.0
    if va == 0:
        gain = 0.0 if vb == 0 else sign * float("inf") * (1 if vb > va else -1)
    else:
        gain = sign * (vb - va) / abs(va)
    spread = max(relative_iqr(e) if "q1" in e else 0.0 for e in (a, b))
    if bound is None or spread > bound:
        a_runs, b_runs = a.get("values", [va]), b.get("values", [vb])
        if all(sign * (y - x) > 0 for x in a_runs for y in b_runs):
            return "improved", gain
        if all(sign * (y - x) < 0 for x in a_runs for y in b_runs):
            return "regressed", gain
        return "unresolved", gain
    if gain < -bound:
        return "regressed", gain
    if gain > bound:
        return "improved", gain
    return "unchanged", gain


def compare(a_path: str, b_path: str) -> int:
    """Print per-workload, per-metric medians, IQRs and verdicts of B
    against A; exit 1 when any metric regressed."""
    a_doc = json.loads(pathlib.Path(a_path).read_text())
    b_doc = json.loads(pathlib.Path(b_path).read_text())
    bounds = {m["name"]: m["bound"] for m in declared()["end_to_end"]}
    # Any increase in failures is a regression.
    bounds["failed_ratio"] = 0.0
    regressed = False

    def iqr(entry: dict) -> str:
        if "q1" not in entry:
            return ""
        return f" [{_fmt(entry['q1'])}..{_fmt(entry['q3'])}]"

    for workload in a_doc["workloads"]:
        if workload not in b_doc["workloads"]:
            continue
        print(workload)
        a_e2e = a_doc["workloads"][workload]["e2e"]
        b_e2e = b_doc["workloads"][workload]["e2e"]
        for metric, (unit, better) in E2E.items():
            a, b = a_e2e[metric], b_e2e[metric]
            bound = bounds.get(metric)
            verdict, gain = _verdict(a, b, bound, better)
            regressed |= verdict == "regressed"
            change = "" if gain is None else f" {gain:+.1%}"
            gate = "ungated" if bound is None else f"bound {bound:.0%}"
            print(
                f"  {metric:<16} A {_fmt(a.get('value'))}{iqr(a)}"
                f"  B {_fmt(b.get('value'))}{iqr(b)}  {unit}"
                f"  {gate}{change}  {verdict}"
            )
    return 1 if regressed else 0


# -- main -------------------------------------------------------------------------


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--workload", nargs="+", choices=sorted(workloads.WORKLOADS),
        default=list(workloads.WORKLOADS),
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="workload size multiplier (default 1.0; with --seconds, the "
        "workload's own time-boxed scale)",
    )
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)
    if args.seconds is not None:
        if len(args.workload) != 1:
            parser.error("--seconds measures exactly one --workload")
        if args.trace is None:
            args.trace = 0
    elif args.trace is not None:
        parser.error("--trace selects the printed metrics of a --seconds run")
    if (args.scale is not None and args.scale <= 0) or args.repeats < 1:
        parser.error("--scale must be > 0 and --repeats >= 1")
    if args.seconds is None and args.scale is None:
        args.scale = 1.0
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = parse_args(argv)
    prov = provenance(args)
    try:
        if args.seconds is not None:
            name = args.workload[0]
            scale = args.scale or workloads.WORKLOADS[name].timed_scale
            summary = summarize(
                measure(
                    name, args.seed, scale,
                    seconds=args.seconds, trace=bool(args.trace),
                )
            )
            report(name, summary)
            print(json.dumps(result_line(summary, bool(args.trace))))
            return 0 if summary["correct"] else 1
        summaries = {}
        for name in args.workload:
            summaries[name] = summarize(
                measure(name, args.seed, args.scale, repeats=args.repeats)
            )
            report(name, summaries[name])
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps({"provenance": prov, "workloads": summaries}, indent=1) + "\n"
    )
    print(f"summary written to {out}")
    return 0 if all(s["correct"] for s in summaries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
