"""The four workloads: how each sets up, loads, checks and scores a run.

See ``perfbench/README.md`` for why each workload exists and what each
metric means.  Rates and operation counts are constants so that two
commits are driven identically: the open-loop rates are about 40% of what
the program sustained when the benchmark was written (two connections,
two CPUs), and the closed loops are sized to last about
``(1 - OPEN_SHARE) * --seconds`` in all at that capacity.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from loadgen import Client, Op, Phase, closed_loop, open_loop, percentile
from tracing import PER_LAYER, layer_metrics, merge_dumps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOST = "127.0.0.1"

#: Server (or sweep) processes per benchmark run; ``setup_s`` and
#: throughput are medians over them.
SETUP_REPEATS = 3
#: Share of ``--seconds`` spent in the open loop.
OPEN_SHARE = 0.5
#: Load-generator connections, one worker thread each.
CONNECTIONS = 2
#: Seconds of the launcher's ``SpeedMonitor`` spin that count as the
#: reference machine.  On a shared host the same code runs a third
#: slower from one second to the next and up to twice as slow for
#: minutes.  Every time the benchmark reports is therefore split into
#: the child's CPU time over the interval, rescaled by this value over
#: the child's mean spin in the same interval, plus the rest (waiting:
#: batching linger, the network, idle time), kept as measured.
SPIN_REFERENCE_S = 0.0015
#: Seconds a child may take to start, answer a command or exit.
CHILD_TIMEOUT_S = 120.0

#: End-to-end metrics and their units, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_per_s", "ops/s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
)


def at_reference(wall: float, cpu: float, slowdown: float) -> tuple[float, float]:
    """``(wall, wall as on the reference machine)``: the ``cpu`` seconds
    of it scale with the machine's ``slowdown``, the rest does not."""
    return wall, wall - cpu * (1.0 - 1.0 / slowdown)


def _spin_seconds(cpu: int) -> float:
    """Fastest of three short interpreter-bound spins on ``cpu``."""
    os.sched_setaffinity(0, {cpu})
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, time.perf_counter() - started)
    return best


def place_child() -> int | None:
    """Pick the CPU the next child runs on; pin this process elsewhere.

    On a shared host one virtual CPU can run a third slower than the
    other for minutes (a busy neighbour on its sibling thread), so a
    server landing on one or the other read as two different programs.
    The child gets whichever CPU spins fastest right now; the load
    generator, which needs little, takes the rest.  Returns ``None``
    (no pinning) on a single CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    try:
        chosen = min(cpus, key=_spin_seconds)
    finally:
        os.sched_setaffinity(0, set(cpus))
    os.sched_setaffinity(0, set(cpus) - {chosen})
    return chosen


class Child:
    """A ``launcher.py`` process driven by stdin lines, pinned to the
    CPU :func:`place_child` picks."""

    def __init__(self, args: list[str]):
        cpu = place_child()
        if cpu is not None:
            args = [*args, "--cpu", str(cpu)]
        #: Start of the child's life; its CPU time starts at zero.
        self.started = (time.perf_counter(), 0.0)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError(f"launcher exited with code {self.proc.returncode}")
        return line.strip()

    def command(self, text: str) -> str:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.read()

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference machine the child ran
        between two ``time.perf_counter`` readings."""
        word, seconds = self.command(f"speed {start!r} {end!r}").split()
        return float(seconds) / SPIN_REFERENCE_S

    def cpu_s(self) -> float:
        """CPU seconds the child has used so far, from /proc."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def mark(self) -> tuple[float, float]:
        """``(time.perf_counter(), child CPU seconds)`` now."""
        return time.perf_counter(), self.cpu_s()

    def seconds_since(self, mark: tuple[float, float]) -> tuple[float, float]:
        """``(measured, at reference speed)`` seconds since ``mark``."""
        start, cpu0 = mark
        end = time.perf_counter()
        return at_reference(end - start, self.cpu_s() - cpu0, self.slowdown(start, end))

    def peak_rss_mb(self) -> float:
        """High-water resident set of the child, read from /proc."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def stop(self) -> None:
        """Ask the child to quit and wait; raises if it failed."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
        if self.proc.returncode:
            raise RuntimeError(f"launcher exited with code {self.proc.returncode}")


class Outcome:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.end_to_end: dict[str, float] = {}
        self.per_layer: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: dict[str, float] = {}
        self.dump: dict | None = None

    def result(self, trace: bool) -> dict:
        """The benchmark's last output line."""
        metrics = self.per_layer if trace else self.end_to_end
        units = dict(PER_LAYER) if trace else dict(END_TO_END)
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]} for name in units
            },
        }

    def report(self) -> None:
        """Human-readable lines: every metric by name with its unit."""
        for title, metrics, units in (
            ("end to end", self.end_to_end, dict(END_TO_END)),
            ("per layer (traced run)", self.per_layer, dict(PER_LAYER)),
        ):
            if metrics:
                print(f"# {title}")
                for name, value in metrics.items():
                    print(f"{name:40s} {value:14.6g} {units[name]}")
        print("# run")
        for name, value in self.notes.items():
            print(f"{name:40s} {value:14.6g}")
        print(f"{'failed_frac':40s} {self.failed / max(self.attempted, 1):14.6g} ratio")
        for problem in self.problems:
            print(f"PROBLEM {problem}")


def _scrape(client: Client) -> list[tuple[str, dict[str, str], float]]:
    """``GET /metrics`` as ``(name, labels, value)`` samples."""
    status, raw = client.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    samples = []
    for line in raw.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        head, value = line.rsplit(" ", 1)
        name, _, rest = head.partition("{")
        labels = {}
        for pair in rest.rstrip("}").split(","):
            if "=" in pair:
                key, _, text = pair.partition("=")
                labels[key] = text.strip('"')
        samples.append((name, labels, float(value)))
    return samples


def _metric(samples, name: str, **labels: str) -> float:
    return sum(
        value for sample, sample_labels, value in samples
        if sample == name and all(sample_labels.get(k) == v for k, v in labels.items())
    )


class Server:
    """One server process of a run: its set-up time and what it served."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.warm_ops: list[Op] = []
        self.phases: dict[str, Phase] = {}
        self.before: list = []
        self.after: list = []
        self.peak_rss_mb = 0.0
        self.dump: dict | None = None
        self.setup_measured_s = 0.0
        #: Seconds to take off each open-loop latency: the server's CPU
        #: time per request, less the same at reference speed.
        self.open_shift_s = 0.0
        #: ``(measured, at reference)`` seconds of the closed loops.
        self.closed_s = (1.0, 1.0)
        self.base_s = (1.0, 1.0)

    def ops(self, *names: str) -> list[Op]:
        return [op for name in names if name in self.phases for op in self.phases[name].ops]


class Serving:
    """Shared flow of the three workloads that talk to the server.

    A run starts ``SETUP_REPEATS`` server processes one after the other.
    Each is set up (timed), then serves its share of the open loop and
    of the closed loop.  Throughput is the median over the processes,
    whose closed-loop rates differ more from each other than the parts
    of one process's loop do.
    """

    #: Stored model the workload addresses.
    model = ""
    #: Open-loop requests per second.
    open_rate = 1.0
    #: Closed-loop operations per second the program reached when the
    #: benchmark was written; sizes the closed loop.
    capacity = 1.0
    #: Operations (labels) carried by one closed-loop request.
    closed_units = 1
    route = ""

    def __init__(self, seed: int, seconds: float, trace: bool, scratch: Path):
        self.seed = seed
        self.trace = trace
        self.scratch = scratch
        share = seconds / SETUP_REPEATS
        self.n_open = max(1, round(self.open_rate * share * OPEN_SHARE))
        self.n_closed = max(
            CONNECTIONS,
            round(self.capacity * share * (1 - OPEN_SHARE) / self.closed_units),
        )

    # -- hooks -------------------------------------------------------------
    def warm(self, client: Client, server: int) -> list[Op]:
        """Set-up traffic for server process ``server``; returns its ops."""
        raise NotImplementedError

    def ops(self, count: int, units: int = 1) -> list[Op]:
        """The next ``count`` requests of ``units`` operations each
        (inputs never repeat across calls)."""
        raise NotImplementedError

    def expected(self, op: Op) -> int:
        """Operations a good answer to ``op`` carries."""
        return 1

    def units(self, op: Op) -> int:
        """Operations the answer to ``op`` carried."""
        return self.expected(op) if op.ok else 0

    def wrong(self, ops: list[Op]) -> set[int]:
        """``id`` of every answered op whose answer is wrong."""
        raise NotImplementedError

    def reconcile(self, samples, ops: list[Op]) -> list[str]:
        """Compare one server's counters with the client's counts."""
        raise NotImplementedError

    # -- the run -----------------------------------------------------------
    def _serve(self, index: int) -> Server:
        server = Server()
        spans = self.scratch / f"spans-{index}.json"
        child = Child([
            "serve", "--store", str(self.store), "--trace", str(int(self.trace)),
            "--trace-out", str(spans),
        ])
        clients: list[Client] = []
        try:
            word, port = child.read().split()
            if word != "ready":
                raise RuntimeError(f"launcher said {word!r}")
            clients = [Client(HOST, int(port)) for _ in range(CONNECTIONS)]
            server.warm_ops = self.warm(clients[0], index)
            server.setup_measured_s, server.setup_s = child.seconds_since(child.started)
            child.command("gc")
            phases = server.phases
            if self.trace:
                mark = child.mark()
                phases["base"] = closed_loop(clients, self.ops(self.n_closed, self.closed_units))
                server.base_s = child.seconds_since(mark)
            server.before = _scrape(clients[0])
            if self.trace:
                child.command("trace on")
            mark = child.mark()
            phases["open"] = open_loop(clients, self.ops(self.n_open), self.open_rate)
            measured, reference = child.seconds_since(mark)
            server.open_shift_s = (measured - reference) / self.n_open
            mark = child.mark()
            phases["closed"] = closed_loop(clients, self.ops(self.n_closed, self.closed_units))
            server.closed_s = child.seconds_since(mark)
            if self.trace:
                child.command("trace off")
            server.after = _scrape(clients[0])
            server.peak_rss_mb = child.peak_rss_mb()
        except BaseException:
            child.kill()
            raise
        finally:
            for client in clients:
                client.close()
        child.stop()
        if self.trace:
            with open(spans) as handle:
                server.dump = json.load(handle)
        return server

    def _rate(self, phase: Phase, seconds: float) -> float:
        return sum(self.units(op) for op in phase.ops) / seconds

    def run(self) -> Outcome:
        self.store = inputs.ensure_store()
        servers = [self._serve(i) for i in range(SETUP_REPEATS)]

        out = Outcome()
        all_ops = [op for s in servers for op in s.warm_ops + s.ops("base", "open", "closed")]
        wrong = self.wrong(all_ops)
        for s in servers:
            bad_warm = [op for op in s.warm_ops if not op.ok or id(op) in wrong]
            if bad_warm:
                out.problems.append(f"{len(bad_warm)} set-up requests failed or were wrong")
            out.problems += self.reconcile(s.after, s.warm_ops + s.ops("base", "open", "closed"))
            for op in s.ops("base", "open", "closed"):
                expected = self.expected(op)
                out.attempted += expected
                if not op.ok or id(op) in wrong:
                    out.failed += expected
                else:
                    out.failed += max(0, expected - self.units(op))

        latencies = [
            (op.latency - s.open_shift_s) * 1e3 for s in servers for op in s.ops("open")
        ]
        rate = statistics.median(self._rate(s.phases["closed"], s.closed_s[1]) for s in servers)
        out.end_to_end = {
            "setup_s": statistics.median(s.setup_s for s in servers),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p95_ms": percentile(latencies, 95),
            "throughput_per_s": rate,
            "sweep_s": len(servers) * self.n_closed * self.closed_units / rate,
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in servers),
        }
        out.notes = {
            "measured.setup_s": statistics.median(s.setup_measured_s for s in servers),
            "measured.latency_p50_ms": percentile(
                [op.latency * 1e3 for s in servers for op in s.ops("open")], 50
            ),
            "measured.throughput_per_s": statistics.median(
                self._rate(s.phases["closed"], s.closed_s[0]) for s in servers
            ),
            "latency_samples": len(latencies),
            "open_rate_per_s": self.open_rate,
            "closed_requests": sum(len(s.phases["closed"].ops) for s in servers),
        }
        if self.trace:
            self._layers(out, servers)
        return out

    def _layers(self, out: Outcome, servers: list[Server]) -> None:
        out.dump = merge_dumps([s.dump for s in servers])
        traced = [s.phases[name] for s in servers for name in ("open", "closed")]
        traced_ops = [op for phase in traced for op in phase.ops]
        base_rate = statistics.median(self._rate(s.phases["base"], s.base_s[1]) for s in servers)
        closed_rate = statistics.median(
            self._rate(s.phases["closed"], s.closed_s[1]) for s in servers
        )
        out.per_layer = layer_metrics(
            out.dump,
            sum(self.units(op) for op in traced_ops),
            {
                "server_latency_s": sum(op.done - op.sent for op in traced_ops),
                "http_errors": sum(not op.ok for op in traced_ops),
                "late_p95_ms": percentile(
                    [late for s in servers for late in s.phases["open"].late_ms], 95
                ),
                "cpu_frac": sum(p.cpu_s for p in traced) / sum(p.wall_s for p in traced),
                "overhead_frac": 1.0 - closed_rate / base_rate,
            },
        )
        counts = {}
        for name in ("hits", "misses"):
            metric = f"repro_serve_feature_cache_{name}_total"
            counts[name] = sum(_metric(s.after, metric) - _metric(s.before, metric) for s in servers)
        total = counts["hits"] + counts["misses"]
        ratio = counts["hits"] / total if total else 0.0
        if abs(ratio - out.per_layer["serve.engine.lru_hit_ratio"]) > 1e-9:
            out.problems.append(
                f"/metrics LRU hit ratio {ratio} over the traced phases != "
                f"traced serve.engine.lru_hit_ratio {out.per_layer['serve.engine.lru_hit_ratio']}"
            )

    def _count_check(self, samples, name: str, expected: float, **labels: str) -> list[str]:
        got = _metric(samples, name, **labels)
        if got != expected:
            shown = ",".join(f"{k}={v}" for k, v in labels.items())
            return [f"/metrics {name}{{{shown}}} = {got:g}, client expected {expected:g}"]
        return []


class Classify(Serving):
    """``POST /v1/classify`` of single length-128 series."""

    model = "classify"
    route = "/v1/classify"

    def __init__(self, seed, seconds, trace, scratch):
        super().__init__(seed, seconds, trace, scratch)
        self._next = 0

    def _op(self, index: int) -> Op:
        payload = {"model": self.model, "series": self.series[index].tolist()}
        return Op(self.route, json.dumps(payload).encode(), key=index)

    def _send_sequential(self, client: Client, indices) -> list[Op]:
        ops = [self._op(i) for i in indices]
        closed_loop([client], ops)
        return ops

    def wrong(self, ops: list[Op]) -> set[int]:
        keys = sorted({op.key for op in ops if op.ok})
        model = inputs.load_model(self.store, self.model)
        expected = dict(zip(keys, model.predict(self.series[keys]).tolist()))
        return {id(op) for op in ops if op.ok and op.reply.get("label") != expected[op.key]}

    def reconcile(self, samples, ops: list[Op]) -> list[str]:
        good = [op for op in ops if op.ok]
        distinct = len({op.key for op in good})
        return (
            self._count_check(
                samples, "repro_serve_requests_total", len(good),
                route=self.route, method="POST", status="200",
            )
            + self._count_check(samples, "repro_serve_feature_cache_misses_total", distinct)
            + self._count_check(
                samples, "repro_serve_feature_cache_hits_total", len(good) - distinct
            )
        )


class ClassifyCold(Classify):
    """Every request carries a series never sent before."""

    open_rate = 26.0
    capacity = 60.0
    WARM = 4

    def __init__(self, seed, seconds, trace, scratch):
        super().__init__(seed, seconds, trace, scratch)
        per_server = self.WARM + self.n_open + self.n_closed * (2 if trace else 1)
        total = SETUP_REPEATS * per_server
        self.series = inputs.classify_series(seed, 0, total)

    def warm(self, client: Client, server: int) -> list[Op]:
        start, self._next = self._next, self._next + self.WARM
        return self._send_sequential(client, range(start, self._next))

    def ops(self, count: int, units: int = 1) -> list[Op]:
        start, self._next = self._next, self._next + count
        return [self._op(i) for i in range(start, self._next)]


class ClassifyHot(Classify):
    """Requests draw from a pool of series classified during set-up."""

    open_rate = 100.0
    capacity = 240.0
    POOL = 32

    def __init__(self, seed, seconds, trace, scratch):
        super().__init__(seed, seconds, trace, scratch)
        self.series = inputs.classify_series(seed, 0, self.POOL)
        self._rng = np.random.default_rng([seed, 1])

    def warm(self, client: Client, server: int) -> list[Op]:
        return self._send_sequential(client, range(self.POOL))

    def ops(self, count: int, units: int = 1) -> list[Op]:
        return [self._op(int(i)) for i in self._rng.integers(self.POOL, size=count)]


class StreamMVG(Serving):
    """32 ``/v1/stream`` sessions at window 256: one point per append in
    the open loop, ``closed_units`` per append in the closed loop."""

    model = "stream"
    route = "/v1/stream"
    open_rate = 60.0
    capacity = 100.0
    #: Closed-loop appends carry several points: with one point each,
    #: the rate is set by how the server's event-loop thread and stream
    #: worker hand over the interpreter lock between two requests in
    #: flight, which differs from one server process to the next.
    closed_units = 8
    SESSIONS = 32
    #: Ticks each session runs during set-up beyond its first.  A young
    #: session builds one phase slot per scale and block alignment on
    #: its first ticks (up to 16 alignments at window 256), which costs
    #: several times a steady tick; the timed phases start past that.
    WARM_TICKS = 8
    #: Sampled ticks per session checked against offline extraction.
    CHECKS_PER_SESSION = 2

    def __init__(self, seed, seconds, trace, scratch):
        super().__init__(seed, seconds, trace, scratch)
        # Most points any one session receives: requests go round-robin
        # over the sessions, so each phase gives it at most its
        # rounded-up share.
        closed = -(-self.n_closed // self.SESSIONS) * self.closed_units
        self.per_session = (
            inputs.STREAM_WINDOW
            + self.WARM_TICKS
            + -(-self.n_open // self.SESSIONS)
            + closed * (2 if trace else 1)
        )
        #: Points of every session, by run-wide session number.
        self.points: dict[int, np.ndarray] = {}

    def warm(self, client: Client, server: int) -> list[Op]:
        self.first = server * self.SESSIONS
        self.sessions = []
        self.cursor = [0] * self.SESSIONS
        self._request = 0
        for s in range(self.first, self.first + self.SESSIONS):
            self.points[s] = inputs.stream_points(self.seed, s, self.per_session)
            status, reply = client.post_json(
                self.route,
                {"op": "create", "model": self.model, "window": inputs.STREAM_WINDOW},
            )
            if status != 200:
                raise RuntimeError(f"stream create answered {status}: {reply}")
            self.sessions.append(reply["session"])
        fill = [
            self._op(s, inputs.STREAM_WINDOW + self.WARM_TICKS) for s in range(self.SESSIONS)
        ]
        closed_loop([client], fill)
        return fill

    def _op(self, s: int, count: int) -> Op:
        start = self.cursor[s]
        self.cursor[s] += count
        number = self.first + s
        payload = {
            "op": "append",
            "session": self.sessions[s],
            "points": self.points[number][start : start + count].tolist(),
        }
        return Op(self.route, json.dumps(payload).encode(), key=(number, start, count))

    def ops(self, count: int, units: int = 1) -> list[Op]:
        # Request i goes to connection i % 2 and session i % 32, so each
        # session's appends stay in order on one connection.
        out = []
        for _ in range(count):
            out.append(self._op(self._request % self.SESSIONS, units))
            self._request += 1
        return out

    def expected(self, op: Op) -> int:
        return len(self._offsets(op))

    def units(self, op: Op) -> int:
        return len(op.reply["results"]) if op.ok else 0

    def _offsets(self, op: Op) -> list[int]:
        s, start, count = op.key
        return [o for o in range(start + 1, start + count + 1) if o >= inputs.STREAM_WINDOW]

    def wrong(self, ops: list[Op]) -> set[int]:
        bad = set()
        samples: list[tuple[Op, int, object]] = []
        rng = np.random.default_rng([self.seed, 2])
        by_session: dict[int, list[tuple[Op, dict]]] = {}
        for op in ops:
            if not op.ok:
                continue
            results = op.reply["results"]
            if [r["offset"] for r in results] != self._offsets(op):
                bad.add(id(op))
                continue
            for result in results:
                by_session.setdefault(op.key[0], []).append((op, result))
        for s, ticks in by_session.items():
            picks = rng.choice(len(ticks), size=min(self.CHECKS_PER_SESSION, len(ticks)), replace=False)
            for i in picks:
                op, result = ticks[int(i)]
                samples.append((op, result["offset"], result["label"]))
        if samples:
            model = inputs.load_model(self.store, self.model)
            windows = np.stack([
                self.points[op.key[0]][offset - inputs.STREAM_WINDOW : offset]
                for op, offset, _ in samples
            ])
            for (op, _, label), expected in zip(samples, model.predict(windows).tolist()):
                if label != expected:
                    bad.add(id(op))
        return bad

    def reconcile(self, samples, ops: list[Op]) -> list[str]:
        good = [op for op in ops if op.ok]
        labels = sum(self.units(op) for op in good)
        return (
            self._count_check(
                samples, "repro_serve_requests_total", len(good) + self.SESSIONS,
                route=self.route, method="POST", status="200",
            )
            + self._count_check(samples, "repro_serve_stream_ticks_total", labels)
            + self._count_check(samples, "repro_serve_feature_cache_misses_total", labels)
            + self._count_check(samples, "repro_serve_feature_cache_hits_total", 0)
        )


class Table2Sweep:
    """``evaluate_mvg`` over five archive datasets in a child process.

    The datasets are the archive's own (their errors are checked against
    ``results/table2.json``); the seed only orders them.
    """

    #: Sweep passes of an untraced run; its times are medians over them.
    PASSES = 3

    def __init__(self, seed: int, seconds: float, trace: bool, scratch: Path):
        self.trace = trace
        self.spans_path = scratch / "spans.json"
        order = np.random.default_rng(seed).permutation(len(inputs.SWEEP_DATASETS))
        self.datasets = [inputs.SWEEP_DATASETS[i] for i in order]

    def _start(self) -> Child:
        child = Child([
            "sweep", "--datasets", ",".join(self.datasets), "--trace", str(int(self.trace)),
            "--trace-out", str(self.spans_path),
        ])
        if child.read() != "ready":
            child.kill()
            raise RuntimeError("sweep child did not get ready")
        return child

    def _pass(self, child: Child) -> tuple[tuple[float, float], float, list[dict]]:
        """``((measured, at reference) s, client CPU s, rows)`` of one
        sweep pass; each row gains its evaluation time at reference speed."""
        cpu0 = time.process_time()
        mark = child.mark()
        line = child.command("run")
        seconds = child.seconds_since(mark)
        if not line.startswith("result "):
            raise RuntimeError(f"sweep child said {line!r}")
        rows = json.loads(line[len("result "):])
        for row in rows:
            slowdown = child.slowdown(row["started"], row["started"] + row["seconds"])
            row["reference"] = at_reference(row["seconds"], row["cpu"], slowdown)[1]
        return seconds, time.process_time() - cpu0, rows

    def run(self) -> Outcome:
        setup_times = []
        for attempt in range(SETUP_REPEATS):
            child = self._start()
            setup_times.append(child.seconds_since(child.started)[1])
            if attempt < SETUP_REPEATS - 1:
                child.stop()
        base = None
        try:
            if self.trace:
                base = self._pass(child)
                child.command("trace on")
                passes = [self._pass(child)]
                child.command("trace off")
            else:
                passes = [self._pass(child) for _ in range(self.PASSES)]
            peak_rss = child.peak_rss_mb()
        finally:
            child.stop()

        out = Outcome()
        with open(ROOT / "results" / "table2.json") as handle:
            table2 = json.load(handle)
        expected = dict(zip(table2["datasets"], table2["errors"]["G"]))
        for *_, rows in passes + ([base] if base else []):
            for row in rows:
                out.attempted += 1
                if row["error"] != expected.get(row["dataset"]):
                    out.failed += 1
                    out.problems.append(
                        f"{row['dataset']}: error {row['error']} != table2.json "
                        f"{expected.get(row['dataset'])}"
                    )
        wall = statistics.median(seconds[1] for seconds, _, _ in passes)
        measured = statistics.median(seconds[0] for seconds, _, _ in passes)
        rows = passes[-1][2]
        series = sum(row["series"] for row in rows)
        # Each dataset's evaluation is pure computation, so its time
        # scales with the machine like the sweep's.
        latencies = [
            statistics.median(p_rows[i]["reference"] for _, _, p_rows in passes) * 1e3
            for i in range(len(rows))
        ]
        out.end_to_end = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p95_ms": percentile(latencies, 95),
            "throughput_per_s": series / wall,
            "sweep_s": wall,
            "peak_rss_mb": peak_rss,
        }
        out.notes = {
            "measured.sweep_s": measured,
            "passes": len(passes),
            "datasets": len(rows),
            "series": series,
        }
        if self.trace:
            with open(self.spans_path) as handle:
                out.dump = json.load(handle)
            cpu = passes[0][1]
            out.per_layer = layer_metrics(
                out.dump,
                series,
                {
                    "server_latency_s": 0.0,
                    "http_errors": 0,
                    "late_p95_ms": 0.0,
                    "cpu_frac": cpu / measured,
                    "overhead_frac": 1.0 - base[0][1] / wall,
                },
            )
        return out


WORKLOADS = {
    "classify_cold": ClassifyCold,
    "classify_hot": ClassifyHot,
    "stream_mvg": StreamMVG,
    "table2_sweep": Table2Sweep,
}
