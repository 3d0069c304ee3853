"""Standalone load-driver for the front-end serving benchmark.

Runs as a *separate process* so the measured server does not share a
GIL with its clients: 64 concurrent connections driven from one asyncio
loop (cheap — the client work is just socket IO), which keeps the
measurement identical for both connection regimes.

Usage: ``python _frontend_client.py SPEC_JSON PORT`` where SPEC_JSON
holds::

    {"pool": [raw_request, ..],          # pre-rendered HTTP requests
     "schedules": [[pool_index, ..], ..],  # one list per client
     "requests_per_connection": 0}       # 0 = keep-alive for the whole
                                         # schedule; k = reconnect every
                                         # k requests (connection churn)

Prints a JSON result (throughput + latency percentiles) to stdout.
Stdlib only; no repro imports.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time


async def _request(reader, writer, raw: bytes) -> tuple[int, bytes]:
    writer.write(raw)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b"\r\n", 1)[0].split()[1])
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    body = await reader.readexactly(length)
    return status, body


async def _drive(
    port: int,
    pool: list[bytes],
    schedules: list[list[int]],
    requests_per_connection: int,
) -> dict:
    latencies: list[float] = []
    # The last request on a short-lived connection carries
    # ``Connection: close`` (as real HTTP clients do), letting the
    # server tear the connection down without waiting out a client EOF.
    closing_pool = [
        raw.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n", 1) for raw in pool
    ]

    async def client(indices: list[int]) -> None:
        done = 0
        while done < len(indices):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            if requests_per_connection > 0:
                take = indices[done : done + requests_per_connection]
            else:
                take = indices[done:]
            try:
                for position, index in enumerate(take):
                    last = requests_per_connection > 0 and position == len(take) - 1
                    raw = (closing_pool if last else pool)[index]
                    t0 = time.perf_counter()
                    status, body = await _request(reader, writer, raw)
                    latencies.append(time.perf_counter() - t0)
                    assert status == 200, (status, body[:200])
                    done += 1
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

    # Warmup outside the timed window: every pool entry once, so the
    # timed run measures hot-cache traffic.
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for raw in pool:
            status, _ = await _request(reader, writer, raw)
            assert status == 200
    finally:
        writer.close()

    t0 = time.perf_counter()
    await asyncio.gather(*(client(indices) for indices in schedules))
    wall = time.perf_counter() - t0
    n = len(latencies)
    ordered = sorted(lat * 1e3 for lat in latencies)
    return {
        "requests": n,
        "wall_seconds": round(wall, 3),
        "throughput_rps": round(n / wall, 2),
        "latency_ms": {
            "p50": round(ordered[n // 2], 2),
            "p95": round(ordered[int(n * 0.95)], 2),
            "mean": round(sum(ordered) / n, 2),
        },
    }


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    port = int(sys.argv[2])
    pool = [raw.encode("latin-1") for raw in spec["pool"]]
    result = asyncio.run(
        _drive(
            port,
            pool,
            spec["schedules"],
            int(spec.get("requests_per_connection", 0)),
        )
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
