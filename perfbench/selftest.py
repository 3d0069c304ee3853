"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

1. **Load generator vs a stalling stub.**  A stub server answers at once
   except that one request holds every connection for ``STALL_S``.
   Requests that fell due during the stall must report a latency that
   includes the rest of the stall (timed from the due time, not from
   when they could finally be sent), and ``loadgen.late.ms.p95`` must
   show the lag.
2. **Trace coverage.**  A short traced run of every workload; each
   wrapped binding must record at least one span on the workloads
   :data:`tracing.COVERAGE` names, no child span may outlast its parent
   (so self times are never negative), the per-layer and end-to-end
   metric names must match ``BENCHMARK.json``, and the LRU hit ratio
   must read >= 0.99 on ``classify_hot`` and 0 on ``classify_cold``.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import loadgen  # noqa: E402
import tracing  # noqa: E402

STALL_AT = 40  # the request that stalls
STALL_S = 0.3
RATE = 100.0
REQUESTS = 120


def _fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_loadgen_stall() -> None:
    lock = threading.Lock()
    state = {"seen": 0, "stall": None}

    class Stub(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body leave in separate writes; without this each
        # answer waits out a delayed ACK and the stub itself lags.
        disable_nagle_algorithm = True

        def log_message(self, *args) -> None:
            pass

        def do_POST(self) -> None:  # noqa: N802
            self.rfile.read(int(self.headers["Content-Length"]))
            with lock:  # held through the stall: every connection waits
                state["seen"] += 1
                if state["seen"] == STALL_AT:
                    begin = time.perf_counter()
                    time.sleep(STALL_S)
                    state["stall"] = (begin, time.perf_counter())
            body = b'{"label": 0}'
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Stub)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        clients = [loadgen.Client("127.0.0.1", server.server_address[1]) for _ in range(2)]
        ops = [loadgen.Op("/", b"{}") for _ in range(REQUESTS)]
        phase = loadgen.open_loop(clients, ops, RATE)
        for client in clients:
            client.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    begin, end = state["stall"]
    stalled = [op for op in ops if begin < op.due < end - 0.01]
    if len(stalled) < 10:
        _fail(f"only {len(stalled)} requests fell due during the stall")
    for op in stalled:
        owed = end - op.due
        if op.latency < owed - 1e-3:
            _fail(f"latency {op.latency:.3f}s of a request due {owed:.3f}s before the stall ended")
    late_p95 = loadgen.percentile(phase.late_ms, 95)
    if late_p95 <= 0:
        _fail("loadgen.late.ms.p95 does not show the stall")
    from_send = max(op.done - op.sent for op in stalled[len(stalled) // 2 :])
    print(
        f"ok   loadgen: {len(stalled)} requests due in a {STALL_S * 1e3:.0f} ms stall, "
        f"min latency-from-due minus stall left {min(op.latency - (end - op.due) for op in stalled) * 1e3:.2f} ms, "
        f"late p95 {late_p95:.1f} ms (latency from send would read {from_send * 1e3:.1f} ms)"
    )


def check_trace_coverage() -> None:
    from workloads import END_TO_END, WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_layers = [m["name"] for m in bench["per_layer"]]
    if declared_layers != [name for name, _ in tracing.PER_LAYER]:
        _fail("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if [m["name"] for m in bench["end_to_end"]] != [name for name, _ in END_TO_END]:
        _fail("BENCHMARK.json end_to_end differs from workloads.END_TO_END")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        _fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    bindings = {name: [] for name, _, _ in tracing.TARGETS}
    for name, module, path in tracing.TARGETS:
        bindings[name].append(f"{module}:{path}")
    for workload, factory in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_run_") as scratch:
            outcome = factory(7, 2.0, True, Path(scratch)).run()
        if outcome.problems or outcome.failed:
            _fail(f"{workload}: {outcome.failed} failed, problems {outcome.problems}")
        dump = outcome.dump
        names = {row[0] for row in dump["spans"]}
        for name, workloads in tracing.COVERAGE.items():
            if workload not in workloads:
                continue
            if name not in names:
                _fail(f"{workload}: no {name} span")
            for binding in bindings[name]:
                if not dump["calls"].get(binding):
                    _fail(f"{workload}: binding {binding} recorded nothing")
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for row in spans:
            name, tag, tid, start, end, parent = row
            if parent < 0:
                continue
            p_start, p_end = spans[parent][3], spans[parent][4]
            if start < p_start or end > p_end or spans[parent][2] != tid:
                _fail(f"{workload}: {name} span lies outside its parent {spans[parent][0]}")
            child_time[parent] += end - start
        for row, children in zip(spans, child_time):
            if children > row[4] - row[3] + 1e-9:
                _fail(f"{workload}: children of a {row[0]} span outlast it")
        if set(outcome.per_layer) != set(declared_layers):
            _fail(f"{workload}: per-layer metrics differ from BENCHMARK.json")
        ratio = outcome.per_layer["serve.engine.lru_hit_ratio"]
        if workload == "classify_hot" and ratio < 0.99:
            _fail(f"classify_hot lru_hit_ratio {ratio}")
        if workload == "classify_cold" and ratio != 0:
            _fail(f"classify_cold lru_hit_ratio {ratio}")
        print(f"ok   trace coverage on {workload}: {len(spans)} spans, {len(names)} span names")


if __name__ == "__main__":
    check_loadgen_stall()
    check_trace_coverage()
    print("selftest passed")
