"""Child processes of the benchmark: the inference server and the sweep.

``serve`` starts the asyncio front end over a model store with the
default micro-batcher and ``n_jobs=1`` (extraction stays in this
process), prints ``ready <port>`` and then obeys one command per stdin
line.  ``sweep`` generates the Table-2 datasets, prints ``ready`` and
runs ``evaluate_mvg`` passes on command.  Commands:

* ``trace on`` / ``trace off`` — start or stop recording spans (answers ``ok``);
* ``speed <start> <end>`` — mean seconds of the :class:`SpeedMonitor`
  spin between two ``time.perf_counter`` readings (answers ``ok <seconds>``);
* ``gc`` — run a full garbage collection (answers ``ok``), so that where
  the next generation-2 collection falls depends on the timed traffic
  alone, not on how much garbage set-up left behind;
* ``run`` — sweep only: one pass over the datasets, answered by one
  ``result <json>`` line;
* ``quit`` or end of input — stop, write the spans to ``--trace-out``
  when tracing was installed, exit 0.

Run by ``perfbench/run.py``; ``python3 perfbench/launcher.py serve
--store DIR --trace 1 --trace-out spans.json`` works by hand too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


class SpeedMonitor:
    """Background thread timing a short fixed spin every ``PERIOD_S``.

    The spin is independent of the program, so a change under ``src/``
    cannot move it; only how fast the machine runs this process does.
    On a shared host that swings by a third from one second to the next
    and by more over minutes, so ``run.py`` divides the computing parts
    of its timings by the mean spin over the same interval.  Costs about
    2% of one CPU.
    """

    PERIOD_S = 0.05
    SPINS = 20_000

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        threading.Thread(target=self._run, name="perfbench-speed", daemon=True).start()

    def _run(self) -> None:
        while True:
            time.sleep(self.PERIOD_S)
            started = time.perf_counter()
            total = 0
            for i in range(self.SPINS):
                total += i * i % 7
            self.samples.append((started, time.perf_counter() - started))

    def mean(self, start: float, end: float) -> float:
        """Mean spin seconds of the samples taken in ``[start, end]``."""
        window = [spin for at, spin in list(self.samples) if start <= at <= end]
        if not window:
            window = [spin for _, spin in self.samples[-3:]]
        return sum(window) / len(window)


def _commands(tracer, monitor, on_run=None):
    """Serve stdin commands until ``quit`` or end of input."""
    for line in sys.stdin:
        command = line.strip()
        if command == "quit":
            return
        if command.startswith("speed "):
            start, end = (float(x) for x in command.split()[1:])
            print(f"ok {monitor.mean(start, end)!r}", flush=True)
        elif command in ("trace on", "trace off"):
            if tracer is not None:
                tracer.enabled = command == "trace on"
            print("ok", flush=True)
        elif command == "gc":
            gc.collect()
            print("ok", flush=True)
        elif command == "run" and on_run is not None:
            print("result " + json.dumps(on_run()), flush=True)
        else:
            print(f"error unknown command {command!r}", flush=True)


def serve(args, monitor: SpeedMonitor) -> None:
    from repro.serve.aio import create_async_server

    tracer = _tracer(args)
    server = create_async_server(args.store, host="127.0.0.1", port=0, jobs=1)
    _, port = server.start_background()
    print(f"ready {port}", flush=True)
    try:
        _commands(tracer, monitor)
    finally:
        server.close()
        if tracer is not None:
            tracer.dump(args.trace_out)


def sweep(args, monitor: SpeedMonitor) -> None:
    from repro.api.config import RunConfig
    from repro.core.config import HEURISTIC_COLUMNS
    from repro.data.archive import load_archive_dataset
    from repro.experiments import harness

    tracer = _tracer(args)
    splits = [(name, load_archive_dataset(name)) for name in args.datasets.split(",")]
    run_config = RunConfig()
    print("ready", flush=True)

    def one_pass() -> list[dict]:
        rows = []
        for name, split in splits:
            grid = harness.active_param_grid(split.train.n_classes, run_config)
            started = time.perf_counter()
            cpu0 = time.process_time()
            result = harness.evaluate_mvg(
                split,
                HEURISTIC_COLUMNS["G"],
                param_grid=grid,
                random_state=0,
                n_jobs=1,
                feature_cache=False,
            )
            rows.append(
                {
                    "dataset": name,
                    "started": started,
                    "seconds": time.perf_counter() - started,
                    "cpu": time.process_time() - cpu0,
                    "error": result.error,
                    "series": int(split.train.X.shape[0] + split.test.X.shape[0]),
                }
            )
        return rows

    try:
        _commands(tracer, monitor, one_pass)
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)


def _tracer(args):
    if not args.trace:
        return None
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("serve", "sweep"):
        p = sub.add_parser(mode)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--trace-out", default="spans.json")
        p.add_argument("--cpu", type=int, help="pin this process to one CPU")
    sub.choices["serve"].add_argument("--store", required=True)
    sub.choices["sweep"].add_argument("--datasets", required=True)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    (serve if args.mode == "serve" else sweep)(args, SpeedMonitor())


if __name__ == "__main__":
    main()
