"""Benchmark of the MVG classifier, end to end and layer by layer.

    python3 perfbench/run.py --workload classify_cold --seed 1 --seconds 16 --trace 0

Workloads (``perfbench/README.md`` says why each exists): ``classify_cold``,
``classify_hot``, ``stream_mvg`` and ``table2_sweep``.  Serving workloads
start the server from ``perfbench/launcher.py`` three times, one process
after the other; each is set up (timed), then loaded from this process
with its share of an open loop at a fixed rate (latency) and of a
closed loop of a fixed number of operations (throughput).  Every answer is checked against an offline
computation and ``GET /metrics`` is reconciled with the client's counts.

``--trace 1`` installs the span wrappers of ``perfbench/tracing.py`` in
the child, measures an untraced closed loop first (the base of the
tracing overhead), then traces the open and closed loops and reports
the per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="MVG classifier benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_run_") as scratch:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, trace, Path(scratch)).run()
    outcome.report()
    print(json.dumps(outcome.result(trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
