"""Load generator: keep-alive HTTP clients driven open- or closed-loop.

At most two worker threads, each owning one connection.  Request ``i``
of a phase always goes to worker ``i % workers``, so requests that must
stay in order (appends to one stream session) share one connection.

* :func:`open_loop` sends request ``i`` when it is due, at
  ``start + i / rate``, whether or not earlier requests came back.  Its
  latency runs from the due time, so a stall also counts against every
  request that fell due while it lasted; how late each request left is
  recorded separately.
* :func:`closed_loop` sends each worker's next request as soon as its
  previous answer arrives.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Any

#: Client-side limit on one request; a slower answer counts as failed.
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Op:
    """One request and what came back."""

    path: str
    body: bytes
    #: What the checker needs to know about the request (series index,
    #: session and offset, ...).
    key: Any = None
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    reply: Any = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None

    @property
    def latency(self) -> float:
        """Seconds from the due time (open loop) or send time to the answer."""
        return self.done - (self.due or self.sent)


class Client:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S
            )
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def post_json(self, path: str, payload: Any) -> tuple[int, Any]:
        status, raw = self.request("POST", path, json.dumps(payload).encode())
        return status, json.loads(raw) if raw else None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _send(client: Client, op: Op) -> None:
    op.sent = time.perf_counter()
    try:
        op.status, raw = client.request("POST", op.path, op.body)
        op.reply = json.loads(raw) if raw else None
    except (OSError, http.client.HTTPException, ValueError) as exc:
        op.error = f"{type(exc).__name__}: {exc}"
    op.done = time.perf_counter()


@dataclass
class Phase:
    """Timing of one phase: its ops plus wall and client CPU seconds."""

    ops: list[Op]
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def late_ms(self) -> list[float]:
        return [max(0.0, op.sent - op.due) * 1e3 for op in self.ops if op.due]


def _run_workers(clients: list[Client], ops: list[Op], paced: bool) -> Phase:
    workers = len(clients)
    cpu0 = time.process_time()
    start = time.perf_counter()
    errors: list[BaseException] = []

    def work(w: int) -> None:
        try:
            for op in ops[w::workers]:
                if paced:
                    delay = op.due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                _send(clients[w], op)
        except BaseException as exc:  # relayed after join
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return Phase(ops, time.perf_counter() - start, time.process_time() - cpu0)


def open_loop(clients: list[Client], ops: list[Op], rate: float, lead_s: float = 0.05) -> Phase:
    """Send ``ops`` at ``rate`` per second, each measured from its due time."""
    start = time.perf_counter() + lead_s
    for i, op in enumerate(ops):
        op.due = start + i / rate
    return _run_workers(clients, ops, paced=True)


def closed_loop(clients: list[Client], ops: list[Op]) -> Phase:
    """Send ``ops`` back to back on every connection."""
    return _run_workers(clients, ops, paced=False)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
