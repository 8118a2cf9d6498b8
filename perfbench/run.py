#!/usr/bin/env python3
"""Benchmark for the slu toolkit: train, noisy-eval and score workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {train,noisy-eval,score} --seed N \
        --seconds S --trace {0,1}

One process, one caller, a closed loop.  The workload's set-up (timed, and
checked to be byte-for-byte deterministic) alternates with its flow (one unit
of timed work) until set-up has run at least three times and the flows have
run at least three times and taken ``--seconds``.  Outputs are checked after
the timed section.

``--trace 0`` reports the end-to-end metrics at a fixed reference speed:
flows repeat identical work, split into segments, and each segment's time
is scaled by a reference probe timed just before it (see clock.py), then
taken as the median over the flows.  ``items_per_s`` is the items of one
flow over the sum of its segments' scaled times, ``op_ms_p50`` and
``op_ms_p95`` are percentiles over the flow's distinct ops of their scaled
times, ``setup_s`` is the median set-up time, scaled by probes taken just
before and after each set-up.  What an item and an op are depends on the
workload and is printed with the value; raw, unscaled timings are printed
too.  ``--trace 1`` first runs untraced flows for half the time, then
traced flows for the other half, and reports per-layer metrics per flow
plus the tracing overhead.  Human-readable lines come first; the last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pin BLAS to one thread before numpy loads: one caller, no added threads.
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "noisy-eval", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "slu" / "__init__.py").is_file():
        print(f"perfbench: no slu sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from harness import run  # noqa: E402  (needs the path set up above)

    return run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
