"""Open-loop load generation against the ingestion front-door.

The generator is **open-loop**: send times are fixed by the offered
rate alone (``t_i = start + i/rate``), never by response times, so a
server that falls behind faces a growing backlog exactly as a real
sensor fleet would -- the coordinated-omission trap of closed-loop
"send, await, send" measurement is avoided by construction.  Requests
ride a grow-on-demand pool of keep-alive HTTP connections; a response
slower than the send interval simply occupies its connection while new
sends open or reuse others.

Two latency views are reported per rate point:

* **client ack** -- send to HTTP ack (202/429), measured here, exact
  percentiles over every request;
* **server ingest** -- admission to decision / to delivery, read from
  ``GET /stats`` (the service's fine-bucket histograms), free of
  client/server clock skew.

:func:`run_sweep` drives one self-contained server per rate point
(fresh engine, port 0) and merges the rows into ``BENCH_serve.json``
via the engine's fail-soft :func:`~repro.engine.metrics.write_bench_json`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Sequence

from ..obs.telemetry import Telemetry
from ..scenarios.registry import get_pack, pack_names
from ..scenarios.spec import ScenarioPack
from .config import ServeConfig
from .http import HttpClient, IngestServer
from .protocol import record_from_context
from .service import IngestService

__all__ = [
    "build_app_engine",
    "prepare_records",
    "run_open_loop",
    "run_sweep",
]


def _app_pack(app_name: str) -> ScenarioPack:
    """The application pack ``app_name`` (one with its own generator)."""
    apps = [
        name for name in pack_names() if get_pack(name).workload_factory
    ]
    if app_name not in apps:
        raise ValueError(f"unknown app {app_name!r}; expected one of {apps}")
    return get_pack(app_name)


def build_app_engine(
    app_name: str,
    *,
    shards: int = 2,
    strategy: str = "drop-bad",
    use_window: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    ledger_path: Optional[str] = None,
    ledger_fsync: bool = False,
    async_check=None,
):
    """A :class:`~repro.engine.facade.ShardedEngine` for one app.

    ``ledger_path`` records the session's decision ledger (live, via
    the open stream's recorder).  ``async_check`` (an
    :class:`~repro.runtime.snapshot.AsyncCheckConfig`) puts the
    stream's arrival path behind the snapshot-window ingress.
    """
    from ..engine import EngineConfig, ShardedEngine

    pack = _app_pack(app_name)
    config = EngineConfig(
        shards=shards,
        use_window=use_window if use_window is not None else pack.use_window,
        ledger_path=ledger_path,
        ledger_fsync=ledger_fsync,
        async_check=async_check,
    )
    return ShardedEngine(
        pack.build_constraints(),
        strategy=strategy,
        registry_factory=pack.registry_factory,
        config=config,
        telemetry=telemetry,
    )


def prepare_records(
    app_name: str,
    n_contexts: int,
    *,
    err_rate: float = 0.3,
    seed: int = 1,
) -> List[dict]:
    """``n_contexts`` wire records from an app's generated workload.

    Timestamps are stripped so the server assigns arrival offsets (live
    traffic is clocked by arrival, not by the generator's simulated
    day), and cycling beyond one workload's length re-suffixes
    ``ctx_id`` to keep every record unique.
    """
    # The app's own generator at its own defaults (not the pack's small
    # golden-suite ``workload_kwargs``).
    contexts = _app_pack(app_name).workload_factory(err_rate, seed)
    if not contexts:
        raise ValueError(f"app {app_name!r} generated an empty workload")
    records = []
    for i in range(n_contexts):
        ctx = contexts[i % len(contexts)]
        record = record_from_context(ctx)
        del record["timestamp"]
        if i >= len(contexts):
            record["ctx_id"] = f"{ctx.ctx_id}#cycle{i // len(contexts)}"
        records.append(record)
    return records


def _percentiles(samples: Sequence[float]) -> Dict[str, float]:
    if not samples:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    ordered = sorted(samples)
    last = len(ordered) - 1

    def at(q: float) -> float:
        return ordered[min(last, int(q * len(ordered)))]

    return {
        "count": len(ordered),
        "p50": at(0.50),
        "p95": at(0.95),
        "p99": at(0.99),
        "max": ordered[-1],
    }


class _ClientPool:
    """Grow-on-demand keep-alive connection pool (open-loop sends must
    never wait for a busy connection)."""

    def __init__(self, host: str, port: int, limit: int = 64) -> None:
        self.host = host
        self.port = port
        self.limit = limit
        self._free: List[HttpClient] = []
        self._all: List[HttpClient] = []
        self._waiters: "asyncio.Queue[HttpClient]" = asyncio.Queue()
        self._outstanding_waits = 0

    async def acquire(self) -> HttpClient:
        if self._free:
            return self._free.pop()
        if len(self._all) < self.limit:
            client = await HttpClient.connect(self.host, self.port)
            self._all.append(client)
            return client
        self._outstanding_waits += 1
        try:
            return await self._waiters.get()
        finally:
            self._outstanding_waits -= 1

    def release(self, client: HttpClient) -> None:
        if self._outstanding_waits:
            self._waiters.put_nowait(client)
        else:
            self._free.append(client)

    async def close(self) -> None:
        for client in self._all:
            await client.close()

    def __len__(self) -> int:
        return len(self._all)


async def run_open_loop(
    host: str,
    port: int,
    records: Sequence[dict],
    *,
    rate: float,
    max_connections: int = 64,
) -> Dict[str, Any]:
    """Offer ``records`` at ``rate``/s; returns the client-side row.

    The caller owns the server (and its drain); this only measures.
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    pool = _ClientPool(host, port, limit=max_connections)
    loop = asyncio.get_running_loop()
    latencies: List[float] = []
    outcomes = {"accepted": 0, "shed": 0, "error": 0}

    async def send_one(record: dict) -> None:
        sent = time.perf_counter()
        try:
            client = await pool.acquire()
            try:
                status, payload = await client.post("/contexts", record)
            finally:
                pool.release(client)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            outcomes["error"] += 1
            return
        latencies.append(time.perf_counter() - sent)
        if status == 202:
            outcomes["accepted"] += payload.get("accepted", 1)
            outcomes["shed"] += payload.get("shed", 0)
        elif status == 429:
            outcomes["shed"] += payload.get("shed", 1)
        else:
            outcomes["error"] += 1

    started = time.perf_counter()
    origin = loop.time()
    tasks = []
    for i, record in enumerate(records):
        delay = (origin + i / rate) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(send_one(record)))
    if tasks:
        await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - started
    await pool.close()
    return {
        "offered_rate": rate,
        "achieved_rate": (len(records) / elapsed) if elapsed > 0 else 0.0,
        "sent": len(records),
        "accepted": outcomes["accepted"],
        "shed": outcomes["shed"],
        "errors": outcomes["error"],
        "shed_rate": (
            outcomes["shed"] / (outcomes["accepted"] + outcomes["shed"])
            if (outcomes["accepted"] + outcomes["shed"])
            else 0.0
        ),
        "elapsed_s": elapsed,
        "connections": len(pool),
        "client_ack_latency_s": _percentiles(latencies),
    }


async def _run_point(
    app_name: str,
    records: Sequence[dict],
    rate: float,
    *,
    shards: int,
    strategy: str,
    serve_config: ServeConfig,
    max_connections: int,
) -> Dict[str, Any]:
    """One self-contained rate point: fresh engine + server on port 0."""
    telemetry = Telemetry(enabled=True)
    engine = build_app_engine(
        app_name, shards=shards, strategy=strategy, telemetry=telemetry
    )
    service = IngestService(
        engine, config=serve_config.with_port(0), telemetry=telemetry
    )
    server = IngestServer(service)
    host, port = await server.start()
    try:
        row = await run_open_loop(
            host, port, records, rate=rate, max_connections=max_connections
        )
        # Drain BEFORE reading stats, so the decision/delivery
        # histograms cover every admitted context (the last batch may
        # still be queued for the pump when the last ack returns).
        stats_client = await HttpClient.connect(host, port)
        try:
            _, report = await stats_client.post("/drain", {})
            _, stats = await stats_client.get("/stats")
        finally:
            await stats_client.close()
    finally:
        await server.shutdown()
    row["server"] = {
        "ingest_to_decision_s": stats["latency"]["ingest_to_decision"],
        "ingest_to_delivery_s": stats["latency"]["ingest_to_delivery"],
        "admission": stats["admission"],
        "batcher": stats["batcher"],
    }
    row["drain"] = report
    return row


def run_sweep(
    app_name: str,
    rates: Sequence[float],
    *,
    n_contexts: int = 500,
    err_rate: float = 0.3,
    seed: int = 1,
    shards: int = 2,
    strategy: str = "drop-bad",
    serve_config: Optional[ServeConfig] = None,
    max_connections: int = 64,
    json_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Offered-rate sweep; one fresh server per point.

    Returns (and optionally merges into ``json_path`` under workload
    key ``serve_open_loop``) a record with one row per offered rate.
    """
    records = prepare_records(
        app_name, n_contexts, err_rate=err_rate, seed=seed
    )
    serve_config = serve_config or ServeConfig()
    rows = []
    for rate in rates:
        rows.append(
            asyncio.run(
                _run_point(
                    app_name,
                    records,
                    float(rate),
                    shards=shards,
                    strategy=strategy,
                    serve_config=serve_config,
                    max_connections=max_connections,
                )
            )
        )
    record: Dict[str, Any] = {
        "app": app_name,
        "n_contexts": n_contexts,
        "err_rate": err_rate,
        "shards": shards,
        "strategy": strategy,
        "rates": [float(r) for r in rates],
        "rows": rows,
    }
    if json_path:
        from ..engine.metrics import write_bench_json

        write_bench_json(json_path, "serve_open_loop", record)
    return record


def format_sweep(record: Dict[str, Any]) -> str:
    """Human-readable sweep table (the CLI's output)."""

    def us(seconds: float) -> str:
        return f"{seconds * 1e6:8.0f}us"

    lines = [
        f"Open-loop ingest sweep -- {record['app']} "
        f"({record['n_contexts']} contexts/point, {record['shards']} shard(s), "
        f"{record['strategy']})",
        "  rate     ack p50/p95/p99          decision p50/p95/p99       "
        "delivery p95   shed%",
    ]
    for row in record["rows"]:
        ack = row["client_ack_latency_s"]
        decision = row["server"]["ingest_to_decision_s"]
        delivery = row["server"]["ingest_to_delivery_s"]
        lines.append(
            f"  {row['offered_rate']:6.0f}"
            f"  {us(ack['p50'])}/{us(ack['p95'])}/{us(ack['p99'])}"
            f"  {us(decision['p50'])}/{us(decision['p95'])}/{us(decision['p99'])}"
            f"  {us(delivery['p95'])}"
            f"  {row['shed_rate'] * 100:5.1f}"
        )
    return "\n".join(lines)
