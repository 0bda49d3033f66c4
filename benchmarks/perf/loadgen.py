"""Open-loop WebSocket load from one process, one thread, one connection.

Each record is one masked text frame, encoded before its phase starts.
Send times are fixed by the schedule alone -- ``t0 + i / rate``, or
``t0`` for every record when ``rate`` is ``None`` -- and never wait for
a reply, so a server that stalls faces the backlog a sensor fleet would
put on it.  Every reply is time-stamped on arrival; the server answers
the frames of one connection in order, so the k-th reply is the verdict
for the k-th record (its ``ctx_id`` is checked).
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import time
from typing import Dict, List, Optional, Sequence

__all__ = ["encode_frame", "run_phase"]

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_MASK = b"\x5a\xc3\x17\x8e"


def encode_frame(payload: bytes) -> bytes:
    """One masked text frame (RFC 6455 requires clients to mask)."""
    n = len(payload)
    head = bytearray([0x81])
    if n < 126:
        head.append(0x80 | n)
    elif n < 1 << 16:
        head.append(0x80 | 126)
        head += n.to_bytes(2, "big")
    else:
        head.append(0x80 | 127)
        head += n.to_bytes(8, "big")
    head += _MASK
    mask = (_MASK * (n // 4 + 1))[:n]
    masked = int.from_bytes(payload, "big") ^ int.from_bytes(mask, "big")
    return bytes(head) + masked.to_bytes(n, "big")


async def _handshake(host: str, port: int):
    reader, writer = await asyncio.open_connection(host, port)
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    writer.write(
        (
            f"GET /ws HTTP/1.1\r\nhost: {host}:{port}\r\n"
            "upgrade: websocket\r\nconnection: Upgrade\r\n"
            f"sec-websocket-key: {key}\r\nsec-websocket-version: 13\r\n\r\n"
        ).encode("latin-1")
    )
    status = await reader.readline()
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    accept = base64.b64encode(
        hashlib.sha1((key + _WS_GUID).encode("latin-1")).digest()
    ).decode("ascii")
    if b" 101 " not in status or headers.get("sec-websocket-accept") != accept:
        writer.close()
        raise ConnectionError(f"websocket upgrade refused: {status!r}")
    return reader, writer


async def _read_frame(reader: asyncio.StreamReader):
    head = await reader.readexactly(2)
    length = head[1] & 0x7F
    if length == 126:
        length = int.from_bytes(await reader.readexactly(2), "big")
    elif length == 127:
        length = int.from_bytes(await reader.readexactly(8), "big")
    return head[0] & 0x0F, await reader.readexactly(length)


async def run_phase(
    host: str,
    port: int,
    frames: Sequence[bytes],
    ctx_ids: Sequence[str],
    *,
    rate: Optional[float],
    timeout: float,
) -> dict:
    """Send ``frames`` on schedule; return per-record timings and verdicts.

    ``ack_s`` runs from each record's due time to its verdict frame,
    ``late_s`` from its due time to its actual send; ``t0`` and
    ``last_ack`` are ``time.perf_counter()`` stamps.  ``admitted`` /
    ``shed`` / ``errors`` count the verdict frames.
    """
    reader, writer = await _handshake(host, port)
    n = len(frames)
    sent: List[float] = [0.0] * n
    acked: List[float] = [0.0] * n
    verdicts = {"admitted": 0, "shed": 0, "errors": 0}
    clock = time.perf_counter

    async def read_verdicts() -> None:
        for k in range(n):
            opcode, payload = await _read_frame(reader)
            acked[k] = clock()
            if opcode != 0x1:
                raise ConnectionError(f"unexpected websocket opcode {opcode}")
            reply = json.loads(payload)
            if reply.get("ctx_id") != ctx_ids[k]:
                raise ConnectionError(
                    f"verdict {k} is for {reply.get('ctx_id')!r}, "
                    f"expected {ctx_ids[k]!r}"
                )
            status = reply.get("status")
            if status == "admitted":
                verdicts["admitted"] += 1
            elif status == "shed":
                verdicts["shed"] += 1
            else:
                verdicts["errors"] += 1

    replies = asyncio.get_running_loop().create_task(read_verdicts())
    t0 = clock()
    if rate is None:
        due = [t0] * n
        for frame in frames:
            writer.write(frame)
        sent = due
    else:
        due = [t0 + i / rate for i in range(n)]
        i = 0
        while i < n:
            now = clock()
            if due[i] > now:
                await asyncio.sleep(due[i] - now)
                continue
            while i < n and due[i] <= now:
                writer.write(frames[i])
                sent[i] = now
                i += 1
    try:
        await asyncio.wait_for(replies, timeout)
    finally:
        writer.write(b"\x88\x80" + _MASK)  # masked close frame, no body
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return {
        "t0": t0,
        "last_ack": acked[-1],
        "ack_s": [a - d for a, d in zip(acked, due)],
        "late_s": [s - d for s, d in zip(sent, due)],
        **verdicts,
    }
