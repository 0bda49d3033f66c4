"""Command-line interface: run the paper's experiments from a shell.

Usage (after ``pip install -e .``)::

    python -m repro scenarios
    python -m repro compare call-forwarding --groups 5
    python -m repro compare rfid --groups 5 --window 20
    python -m repro case-study --seed 7
    python -m repro ablation window
    python -m repro ablation tiebreak
    python -m repro trace record rfid --out stream.jsonl --err 0.3
    python -m repro trace replay stream.jsonl --strategy drop-bad
    python -m repro engine run rfid --shards 4 --strategy drop-bad
    python -m repro engine bench --shards 1 2 4 --contexts 2000
    python -m repro serve rfid --port 8600 --rate 500
    python -m repro loadgen rfid --rates 200 500 1000 --contexts 500
    python -m repro obs summary benchmarks/out/TELEMETRY_engine_bench.json
    python -m repro obs export benchmarks/out/TELEMETRY_engine_bench.json --format prom
    python -m repro obs spans benchmarks/out/TELEMETRY_engine_bench.json --top 5
    python -m repro engine run rfid --ledger run.ledger.jsonl
    python -m repro ledger verify run.ledger.jsonl
    python -m repro ledger explain run.ledger.jsonl rfid-42
    python -m repro ledger replay run.ledger.jsonl
    python -m repro ledger diff run_a.ledger.jsonl run_b.ledger.jsonl
    python -m repro packs list
    python -m repro packs validate
    python -m repro packs validate --file my_pack.toml
    python -m repro packs run smart-home --groups 2
    python -m repro packs run health-telemetry --strategy drop-bad --host inline

The engine runs every shard in-process behind one global use schedule,
so its decisions equal the middleware's; ``packs run --host`` picks
between the two (``middleware`` or ``inline``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core.strategy import make_strategy, strategy_names
from .experiments.ablations import run_tiebreak_ablation, run_window_ablation
from .experiments.case_study import run_case_study
from .experiments.harness import ComparisonConfig, pack_runner, run_comparison
from .experiments.report import (
    format_case_study,
    format_comparison,
    format_scenarios,
    format_tiebreak_ablation,
    format_window_ablation,
)
from .experiments.scenarios import SCENARIOS, replay_strategy
from .middleware.trace import read_trace, write_trace
from .scenarios.registry import get_pack

__all__ = ["main", "build_parser"]

#: The application packs the app-taking commands accept (their windows
#: and builders come from the pack registry).
_APP_PACKS = ("call-forwarding", "rfid", "smart-phone")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ICDCS 2008 context-inconsistency-resolution reproduction",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "scenarios", help="replay the Figure 1-5 walkthroughs"
    )

    compare = commands.add_parser(
        "compare", help="run a Figure 9/10 style strategy comparison"
    )
    compare.add_argument("app", choices=_APP_PACKS)
    compare.add_argument("--groups", type=int, default=5)
    compare.add_argument("--window", type=int, default=None)
    compare.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.1, 0.2, 0.3, 0.4],
    )

    case_study = commands.add_parser(
        "case-study", help="run the Section 5.2 Landmarc case study"
    )
    case_study.add_argument("--seed", type=int, default=7)

    ablation = commands.add_parser(
        "ablation", help="run a design-choice ablation"
    )
    ablation.add_argument("which", choices=["window", "tiebreak"])
    ablation.add_argument("--groups", type=int, default=4)

    reproduce = commands.add_parser(
        "reproduce", help="run the whole paper and write a report"
    )
    reproduce.add_argument("--groups", type=int, default=5)
    reproduce.add_argument("--out", default="REPRODUCTION_REPORT.md")

    trace = commands.add_parser("trace", help="record or replay a stream")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    record = trace_sub.add_parser("record", help="write a workload to JSONL")
    record.add_argument("app", choices=_APP_PACKS)
    record.add_argument("--out", required=True)
    record.add_argument("--err", type=float, default=0.3)
    record.add_argument("--seed", type=int, default=1)
    replay = trace_sub.add_parser("replay", help="replay a JSONL trace")
    replay.add_argument("path")
    replay.add_argument(
        "--strategy", default="drop-bad", choices=strategy_names()
    )
    replay.add_argument("--window", type=int, default=10)

    engine = commands.add_parser(
        "engine", help="run the sharded streaming resolution engine"
    )
    engine_sub = engine.add_subparsers(dest="engine_command", required=True)
    engine_run = engine_sub.add_parser(
        "run", help="resolve an application workload on the engine"
    )
    engine_run.add_argument("app", choices=_APP_PACKS)
    engine_run.add_argument("--shards", type=int, default=4)
    engine_run.add_argument(
        "--strategy", default="drop-bad", choices=strategy_names()
    )
    engine_run.add_argument("--err", type=float, default=0.3)
    engine_run.add_argument("--seed", type=int, default=1)
    engine_run.add_argument("--window", type=int, default=None)
    engine_run.add_argument("--delay", type=float, default=None)
    engine_run.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="also write a TELEMETRY_*.json sidecar for this run",
    )
    engine_run.add_argument(
        "--no-kernels",
        action="store_true",
        help="disable compiled constraint kernels and equality-join "
        "candidate indexes (interpreted reference path)",
    )
    engine_run.add_argument(
        "--no-batch-kernels",
        action="store_true",
        help="disable columnar batched detection (detect_batch verdict "
        "planning); decisions are identical either way",
    )
    engine_run.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="write the run's hash-chained decision ledger to this "
        "JSONL path (audit with `repro ledger ...`)",
    )
    engine_run.add_argument(
        "--ledger-fsync",
        action="store_true",
        help="fsync every ledger flush (durability over throughput)",
    )
    engine_run.add_argument(
        "--async-check",
        action="store_true",
        help="order arrivals through the snapshot-window ingress before "
        "checking (tolerates late/reordered/duplicated streams)",
    )
    engine_run.add_argument(
        "--async-lag",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="snapshot window width in simulation seconds "
        "(default: %(default)s; only with --async-check)",
    )
    engine_bench = engine_sub.add_parser(
        "bench", help="measure engine throughput per shard count"
    )
    engine_bench.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4]
    )
    engine_bench.add_argument("--contexts", type=int, default=2000)
    engine_bench.add_argument(
        "--strategy", default="drop-latest", choices=strategy_names()
    )
    engine_bench.add_argument("--window", type=int, default=20)
    engine_bench.add_argument("--repeats", type=int, default=2)
    engine_bench.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also merge the record into a BENCH_engine.json file",
    )
    engine_bench.add_argument(
        "--telemetry-out",
        default="benchmarks/out/TELEMETRY_engine_bench.json",
        metavar="PATH",
        help="write the bench run's telemetry sidecar here",
    )
    engine_bench.add_argument(
        "--no-telemetry",
        action="store_true",
        help="skip telemetry instrumentation and the sidecar",
    )

    serve = commands.add_parser(
        "serve", help="run the async ingestion front-door"
    )
    serve.add_argument("app", choices=_APP_PACKS)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8600)
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument(
        "--strategy", default="drop-bad", choices=strategy_names()
    )
    serve.add_argument("--window", type=int, default=None)
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="admission rate limit in contexts/second (default: none)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=None,
        help="token-bucket burst capacity (default: 1s of --rate)",
    )
    serve.add_argument("--max-queue-depth", type=int, default=4096)
    serve.add_argument("--batch-max-size", type=int, default=64)
    serve.add_argument("--batch-max-delay", type=float, default=0.005)
    serve.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="record the session's decision ledger live to this JSONL "
        "path (a crash leaves a verifiable prefix)",
    )
    serve.add_argument(
        "--async-check",
        action="store_true",
        help="order arrivals through the snapshot-window ingress before "
        "checking (tolerates late/reordered/duplicated streams)",
    )
    serve.add_argument(
        "--async-lag",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="snapshot window width in simulation seconds "
        "(default: %(default)s; only with --async-check)",
    )
    serve.add_argument(
        "--gap-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="skip a per-source sequence gap after starving this many "
        "wall seconds (default: hold until drain)",
    )

    asynchrony = commands.add_parser(
        "asynchrony",
        help="drop-bad vs OPT-R degradation under stream asynchrony",
    )
    asynchrony.add_argument("app", choices=_APP_PACKS)
    asynchrony.add_argument("--groups", type=int, default=5)
    asynchrony.add_argument("--err", type=float, default=0.2)
    asynchrony.add_argument(
        "--max-lag",
        type=float,
        default=6.0,
        metavar="SECONDS",
        help="snapshot window width for the async-check rows "
        "(default: %(default)s)",
    )

    loadgen = commands.add_parser(
        "loadgen", help="open-loop load sweep against the front-door"
    )
    loadgen.add_argument("app", choices=_APP_PACKS)
    loadgen.add_argument(
        "--rates", type=float, nargs="+", default=[200.0, 500.0, 1000.0]
    )
    loadgen.add_argument("--contexts", type=int, default=500)
    loadgen.add_argument("--err", type=float, default=0.3)
    loadgen.add_argument("--seed", type=int, default=1)
    loadgen.add_argument("--shards", type=int, default=2)
    loadgen.add_argument(
        "--strategy", default="drop-bad", choices=strategy_names()
    )
    loadgen.add_argument(
        "--admission-rate",
        type=float,
        default=None,
        help="server-side admission rate limit (default: none)",
    )
    loadgen.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also merge the sweep record into a BENCH_serve.json file",
    )

    ledger = commands.add_parser(
        "ledger", help="verify, explain, replay or diff a decision ledger"
    )
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)
    ledger_verify = ledger_sub.add_parser(
        "verify", help="check the hash chain and the header's ruleset hash"
    )
    ledger_verify.add_argument("path")
    ledger_explain = ledger_sub.add_parser(
        "explain", help="causal story of one context, from the ledger alone"
    )
    ledger_explain.add_argument("path")
    ledger_explain.add_argument("ctx_id")
    ledger_replay = ledger_sub.add_parser(
        "replay",
        help="re-execute the recorded run and compare decision signatures",
    )
    ledger_replay.add_argument("path")
    ledger_replay.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for the replay engine (default: the recorded "
        "meta.shards); decisions are shard-count invariant",
    )
    ledger_replay.add_argument(
        "--app",
        choices=_APP_PACKS,
        default=None,
        help="predicate-registry fallback when the ledger header has no "
        "resolvable registry spec",
    )
    ledger_diff = ledger_sub.add_parser(
        "diff", help="compare two runs' verdict streams"
    )
    ledger_diff.add_argument("path_a")
    ledger_diff.add_argument("path_b")

    packs = commands.add_parser(
        "packs", help="list, validate or run declarative scenario packs"
    )
    packs_sub = packs.add_subparsers(dest="packs_command", required=True)
    packs_sub.add_parser(
        "list", help="registered packs, their kind and roster"
    )
    packs_validate = packs_sub.add_parser(
        "validate",
        help="validate pack specs (nonzero exit on any error)",
    )
    packs_validate.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="pack names to validate (default: every registered pack)",
    )
    packs_validate.add_argument(
        "--file",
        action="append",
        default=[],
        metavar="PATH",
        help="also validate a TOML/JSON pack file (repeatable)",
    )
    packs_run = packs_sub.add_parser(
        "run",
        help="run one pack: a single strategy, or the full-roster sweep",
    )
    packs_run.add_argument("name", nargs="?", default=None)
    packs_run.add_argument(
        "--file",
        default=None,
        metavar="PATH",
        help="load the pack from a TOML/JSON file instead of the registry",
    )
    packs_run.add_argument(
        "--strategy",
        default=None,
        choices=strategy_names(),
        help="run just this strategy (default: sweep the pack's roster)",
    )
    packs_run.add_argument("--err", type=float, default=None)
    packs_run.add_argument("--seed", type=int, default=None)
    packs_run.add_argument(
        "--host",
        default="middleware",
        choices=["middleware", "inline"],
    )
    packs_run.add_argument("--shards", type=int, default=2)
    packs_run.add_argument(
        "--groups",
        type=int,
        default=2,
        help="streams per error rate in sweep mode (default: %(default)s)",
    )
    packs_run.add_argument(
        "--window",
        type=int,
        default=None,
        help="override the pack's use_window (single-strategy runs only)",
    )
    packs_run.add_argument(
        "--no-kernels",
        action="store_true",
        help="disable compiled constraint kernels",
    )
    packs_run.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="record the run's decision ledger to this JSONL path "
        "(single-strategy runs only)",
    )

    obs = commands.add_parser(
        "obs", help="inspect or export a telemetry sidecar"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_summary = obs_sub.add_parser(
        "summary", help="counters, stage latencies and span counts"
    )
    obs_summary.add_argument("path")
    obs_export = obs_sub.add_parser(
        "export", help="re-export the sidecar's metrics"
    )
    obs_export.add_argument("path")
    obs_export.add_argument(
        "--format", default="prom", choices=["prom", "json"]
    )
    obs_spans = obs_sub.add_parser("spans", help="slowest recorded spans")
    obs_spans.add_argument("path")
    obs_spans.add_argument("--top", type=int, default=10)

    return parser


def _cmd_scenarios(out) -> int:
    outcomes = [
        replay_strategy(strategy, scenario, refined=refined)
        for strategy in ("opt-r", "drop-bad", "drop-latest", "drop-all")
        for scenario in SCENARIOS
        for refined in (False, True)
    ]
    print(format_scenarios(outcomes), file=out)
    return 0


def _cmd_compare(args, out) -> int:
    pack = get_pack(args.app)
    config = ComparisonConfig(
        err_rates=tuple(args.rates),
        groups_per_point=args.groups,
        use_window=args.window
        if args.window is not None
        else pack.use_window,
    )
    result = run_comparison(pack, config)
    print(
        format_comparison(result, f"Strategy comparison -- {args.app}"),
        file=out,
    )
    return 0


def _cmd_asynchrony(args, out) -> int:
    from .experiments.asynchrony import format_asynchrony_table, run_asynchrony

    points = run_asynchrony(
        args.app,
        err_rate=args.err,
        groups=args.groups,
        use_window=get_pack(args.app).use_window,
        max_lag=args.max_lag,
    )
    print(format_asynchrony_table(points), file=out)
    return 0


def _cmd_case_study(args, out) -> int:
    result = run_case_study(seed=args.seed)
    print(format_case_study(result), file=out)
    return 0


def _cmd_ablation(args, out) -> int:
    if args.which == "window":
        points = run_window_ablation(
            "rfid", groups=args.groups, workload_kwargs={"items": 8}
        )
        print(format_window_ablation(points), file=out)
    else:
        points = run_tiebreak_ablation(
            "call-forwarding",
            groups=args.groups,
            workload_kwargs={"duration": 240.0},
        )
        print(format_tiebreak_ablation(points), file=out)
    return 0


def _cmd_trace(args, out) -> int:
    if args.trace_command == "record":
        pack = pack_runner(args.app).pack
        contexts = pack.generate_workload(args.err, args.seed)
        count = write_trace(contexts, args.out)
        print(f"wrote {count} contexts to {args.out}", file=out)
        return 0
    contexts = list(read_trace(args.path))
    types = {c.ctx_type for c in contexts}
    if "rfid_read" in types:
        app = "rfid"
    elif "venue" in types:
        app = "smart-phone"
    else:
        app = "call-forwarding"
    metrics = pack_runner(app).run(
        make_strategy(args.strategy),
        err_rate=0.0,
        seed=0,
        use_window=args.window,
        stream=contexts,
        measures=False,
    ).metrics
    print(
        f"replayed {metrics.contexts_total} contexts under "
        f"{args.strategy}:\n"
        f"  delivered {metrics.contexts_used} "
        f"({metrics.contexts_used_expected} expected), "
        f"discarded {metrics.contexts_discarded} "
        f"(precision {metrics.removal_precision:.1%}, "
        f"survival {metrics.survival_rate:.1%})",
        file=out,
    )
    return 0


def _cmd_engine(args, out) -> int:
    from .engine import EngineConfig, ShardedEngine, write_bench_json
    from .engine.workload import run_scalability_bench
    from .obs import Telemetry, write_sidecar
    from .runtime.snapshot import AsyncCheckConfig

    if args.engine_command == "bench":
        telemetry = None if args.no_telemetry else Telemetry(enabled=True)
        try:
            record = run_scalability_bench(
                tuple(args.shards),
                n_contexts=args.contexts,
                use_window=args.window,
                strategy=args.strategy,
                repeats=args.repeats,
                telemetry=telemetry,
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        by_shards = record["contexts_per_second_by_shards"]
        print("Engine scalability -- contexts/second by shard count", file=out)
        for shards in sorted(by_shards, key=int):
            row = by_shards[shards]
            print(
                f"  {shards:>2} shard(s): {row['contexts_per_second']:>9.1f} ctx/s"
                f"  ({row['elapsed_s']:.3f}s, "
                f"{row['delivered']} delivered / {row['discarded']} discarded)",
                file=out,
            )
        for label, ratio in record["speedup"].items():
            print(f"  speedup {label}: {ratio:.2f}x", file=out)
        if args.json:
            write_bench_json(args.json, "engine_scalability", record)
            print(f"record merged into {args.json}", file=out)
        if telemetry is not None and args.telemetry_out:
            write_sidecar(
                args.telemetry_out,
                telemetry,
                meta={
                    "command": "engine bench",
                    "shards": list(args.shards),
                    "contexts": args.contexts,
                    "strategy": args.strategy,
                },
            )
            print(f"telemetry sidecar written to {args.telemetry_out}", file=out)
        return 0

    pack = pack_runner(args.app).pack
    contexts = pack.generate_workload(args.err, args.seed)
    use_window = args.window if args.window is not None else pack.use_window
    try:
        config = EngineConfig(
            shards=args.shards,
            use_window=use_window,
            use_delay=args.delay,
            kernels=not args.no_kernels,
            batch_kernels=not args.no_batch_kernels,
            ledger_path=args.ledger,
            ledger_fsync=args.ledger_fsync,
            async_check=(
                AsyncCheckConfig(max_lag=args.async_lag)
                if args.async_check
                else None
            ),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    telemetry = Telemetry(enabled=True) if args.telemetry_out else None
    engine = ShardedEngine(
        pack.build_constraints(),
        strategy=args.strategy,
        # The application's own factory, so the ledger header names a
        # registry that ``ledger replay`` can re-resolve.
        registry_factory=pack.registry_factory,
        config=config,
        telemetry=telemetry,
    )
    result = engine.run(contexts)
    metrics = result.metrics
    print(
        f"engine resolved {metrics.contexts_total} contexts on "
        f"{metrics.shards} shard(s) in "
        f"{metrics.elapsed_s:.3f}s ({metrics.contexts_per_second:.0f} ctx/s):\n"
        f"  delivered {metrics.delivered_total}, "
        f"discarded {metrics.discarded_total}, "
        f"inconsistencies {metrics.inconsistencies_total}",
        file=out,
    )
    for stats in metrics.per_shard:
        print(
            f"  shard {stats.shard_id}: {stats.constraints} constraints, "
            f"{stats.contexts} contexts, {stats.delivered} delivered, "
            f"{stats.discarded} discarded",
            file=out,
        )
    if args.ledger:
        print(
            f"decision ledger written to {args.ledger} "
            f"(ruleset {engine.ruleset_hash[:12]}...)",
            file=out,
        )
    if telemetry is not None:
        write_sidecar(
            args.telemetry_out,
            telemetry,
            meta={
                "command": "engine run",
                "app": args.app,
                "strategy": args.strategy,
                "shards": args.shards,
                "ruleset_hash": engine.ruleset_hash,
            },
        )
        print(f"telemetry sidecar written to {args.telemetry_out}", file=out)
    return 0


def _cmd_serve(args, out) -> int:
    import asyncio

    from .obs import Telemetry
    from .runtime.snapshot import AsyncCheckConfig
    from .serve import IngestServer, IngestService, ServeConfig
    from .serve.loadgen import build_app_engine

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            rate=args.rate,
            burst=args.burst,
            max_queue_depth=args.max_queue_depth,
            batch_max_size=args.batch_max_size,
            batch_max_delay=args.batch_max_delay,
            gap_timeout=args.gap_timeout,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    telemetry = Telemetry(enabled=True)
    engine = build_app_engine(
        args.app,
        shards=args.shards,
        strategy=args.strategy,
        use_window=args.window,
        telemetry=telemetry,
        ledger_path=args.ledger,
        async_check=(
            AsyncCheckConfig(max_lag=args.async_lag)
            if args.async_check
            else None
        ),
    )
    service = IngestService(engine, config=config, telemetry=telemetry)
    server = IngestServer(service)
    print(
        f"serving {args.app} on http://{config.host}:{config.port} "
        f"({args.shards} shard(s), {args.strategy}); Ctrl-C drains",
        file=out,
    )
    report = asyncio.run(server.run())
    print(
        f"drained: {report['admitted']} admitted, "
        f"{report['delivered']} delivered, {report['discarded']} discarded, "
        f"{report['expired']} expired, {report['lost']} lost",
        file=out,
    )
    return 0 if report["lost"] == 0 else 1


def _cmd_loadgen(args, out) -> int:
    from .serve import ServeConfig
    from .serve.loadgen import format_sweep, run_sweep

    try:
        record = run_sweep(
            args.app,
            args.rates,
            n_contexts=args.contexts,
            err_rate=args.err,
            seed=args.seed,
            shards=args.shards,
            strategy=args.strategy,
            serve_config=ServeConfig(rate=args.admission_rate),
            json_path=args.json,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_sweep(record), file=out)
    if args.json:
        print(f"record merged into {args.json}", file=out)
    return 0


def _cmd_ledger(args, out) -> int:
    from .ledger import (
        diff_ledgers,
        explain_context,
        format_diff,
        read_ledger,
        replay_ledger,
        verify_ledger,
    )

    try:
        if args.ledger_command == "verify":
            result = verify_ledger(args.path)
            print(result.summary(), file=out)
            return 0 if result.ok else 1
        if args.ledger_command == "explain":
            print(explain_context(read_ledger(args.path), args.ctx_id), file=out)
            return 0
        if args.ledger_command == "replay":
            registry_factory = None
            if args.app is not None:
                registry_factory = get_pack(args.app).build_registry
            result = replay_ledger(
                args.path,
                shards=args.shards,
                registry_factory=registry_factory,
            )
            print(result.summary(), file=out)
            return 0 if result.ok else 1
        diff = diff_ledgers(
            read_ledger(args.path_a), read_ledger(args.path_b)
        )
        print(
            format_diff(diff, label_a=args.path_a, label_b=args.path_b),
            file=out,
        )
        return 0 if diff["identical"] else 1
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_packs(args, out) -> int:
    from .scenarios import (
        PackRunner,
        load_pack_file,
        pack_names,
        rank_strategies,
        validate_pack,
    )

    if args.packs_command == "list":
        print("Registered scenario packs:", file=out)
        for name in pack_names():
            pack = get_pack(name)
            kind = "declarative" if pack.portable else "app-backed"
            print(
                f"  {name:<18} {kind:<12} "
                f"{len(pack.strategies)} strategies  {pack.title}",
                file=out,
            )
        return 0

    if args.packs_command == "validate":
        targets = []
        for name in args.names or pack_names():
            try:
                targets.append(get_pack(name))
            except KeyError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        failures = 0
        for path in args.file:
            try:
                targets.append(load_pack_file(path))
            except (OSError, ValueError, KeyError) as error:
                print(f"FAIL {path}: {error}", file=out)
                failures += 1
        for pack in targets:
            errors = validate_pack(pack)
            if errors:
                failures += 1
                print(f"FAIL {pack.name}", file=out)
                for line in errors:
                    print(f"  - {line}", file=out)
            else:
                print(f"ok   {pack.name}", file=out)
        return 1 if failures else 0

    # packs run
    try:
        if args.file is not None:
            pack = load_pack_file(args.file)
        elif args.name is not None:
            pack = get_pack(args.name)
        else:
            print("error: give a pack name or --file PATH", file=sys.stderr)
            return 2
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    runner = PackRunner(pack, shards=args.shards)
    kernels = not args.no_kernels
    if args.strategy is not None:
        result = runner.run(
            args.strategy,
            err_rate=args.err,
            seed=args.seed,
            host=args.host,
            kernels=kernels,
            use_window=args.window,
            ledger_path=args.ledger,
        )
        metrics = result.metrics
        print(
            f"pack {result.pack} under {result.strategy} "
            f"[{result.host}] at err={result.err_rate:g} "
            f"seed={result.seed}:\n"
            f"  {metrics.contexts_total} contexts -> "
            f"{metrics.contexts_used} delivered, "
            f"{metrics.contexts_discarded} discarded "
            f"(survival {metrics.survival_rate:.1%}, "
            f"precision {metrics.removal_precision:.1%}), "
            f"{metrics.situations_activated} situation activation(s)",
            file=out,
        )
        for label, measures in (
            ("raw      ", result.measures_raw),
            ("delivered", result.measures_delivered),
        ):
            print(
                f"  measures[{label}]: universe={measures.universe} "
                f"drastic={measures.drastic} MI={measures.mi_count} "
                f"problematic={measures.problematic} "
                f"repair={measures.repair}",
                file=out,
            )
        print(f"  signature {result.signature()}", file=out)
        if args.ledger:
            print(f"  decision ledger written to {args.ledger}", file=out)
        return 0
    rates = (args.err,) if args.err is not None else None
    results = runner.sweep(
        err_rates=rates,
        groups=args.groups,
        host=args.host,
        kernels=kernels,
        base_seed=args.seed,
    )
    shown_rates = rates or pack.err_rates
    print(
        f"Full-roster sweep -- {pack.name} [{args.host}]: "
        f"{len(results)} runs ({args.groups} group(s) x rates "
        f"{'/'.join(f'{r:g}' for r in shown_rates)})",
        file=out,
    )
    print(
        f"  {'strategy':<16} {'runs':>4} {'resid.prob':>10} "
        f"{'resid.MI':>9} {'resid.repair':>12} {'survival':>9} "
        f"{'precision':>10}",
        file=out,
    )
    for row in rank_strategies(results):
        print(
            f"  {row['strategy']:<16} {row['runs']:>4} "
            f"{row['residual_problematic_ratio']:>10.4f} "
            f"{row['residual_mi']:>9.2f} "
            f"{row['residual_repair']:>12.2f} "
            f"{row['survival_rate']:>9.1%} "
            f"{row['removal_precision']:>10.1%}",
            file=out,
        )
    return 0


def _cmd_obs(args, out) -> int:
    from .obs import (
        json_text,
        prometheus_text,
        read_sidecar,
        sidecar_slowest_spans,
        sidecar_summary,
    )

    try:
        document = read_sidecar(args.path)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.obs_command == "summary":
        print(sidecar_summary(document), file=out)
    elif args.obs_command == "export":
        text = (
            prometheus_text(document["metrics"])
            if args.format == "prom"
            else json_text(document["metrics"])
        )
        print(text, file=out)
    else:
        print(sidecar_slowest_spans(document, top=args.top), file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "scenarios":
        return _cmd_scenarios(out)
    if args.command == "compare":
        return _cmd_compare(args, out)
    if args.command == "asynchrony":
        return _cmd_asynchrony(args, out)
    if args.command == "case-study":
        return _cmd_case_study(args, out)
    if args.command == "ablation":
        return _cmd_ablation(args, out)
    if args.command == "reproduce":
        from .experiments.reproduce import reproduce_paper

        reproduce_paper(
            groups=args.groups,
            out_path=args.out,
            progress=lambda message: print(message, file=out),
        )
        print(f"report written to {args.out}", file=out)
        return 0
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "engine":
        return _cmd_engine(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "loadgen":
        return _cmd_loadgen(args, out)
    if args.command == "ledger":
        return _cmd_ledger(args, out)
    if args.command == "packs":
        return _cmd_packs(args, out)
    if args.command == "obs":
        return _cmd_obs(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")
