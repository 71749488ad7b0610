"""Benchmark launcher for the MBQC-QAOA stack.

    python3 perfbench/run.py --workload {sample,variational,serve} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from a span recorder
installed around the program's layer boundaries) with ``--trace 1``.
The line before it records the BLAS thread count and CPU count.

``setup_s`` is the median of ``SETUP_REPS`` set-ups, each a fresh import
of the program followed by a warm-up: instance generation, then one
compile, dispatch and small sample per distinct program.  Third-party
modules stay loaded between set-ups, so the median leaves out their
one-time import.  Bytecode is compiled before the clock starts, so a
first launch in a fresh checkout measures the same set-up as later ones.

The run exits non-zero, printing no result, when the program source is
missing or when a child process or non-daemon thread outlives it.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import multiprocessing
import os
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("sample", "variational", "serve")
SETUP_REPS = 3
#: One BLAS thread: the serve workload runs one worker thread per CPU,
#: so workers x BLAS threads stays within the CPU count.
BLAS_THREADS = 1
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def leftovers() -> List[str]:
    """Child processes and non-daemon threads still alive besides the
    main thread."""
    found = [f"child process {p.pid}" for p in multiprocessing.active_children()]
    found += [
        f"non-daemon thread {t.name!r}"
        for t in threading.enumerate()
        if t is not threading.main_thread() and not t.daemon and t.is_alive()
    ]
    return found


def fresh_import(name: str):
    """Import ``name`` after dropping every loaded module of the program
    and of this benchmark, so the import runs the program's module code
    again."""
    own = {"common", "tracing", *(f"wl_{w}" for w in WORKLOADS)}
    for mod in [m for m in sys.modules if m.split(".")[0] in ("repro", *own)]:
        del sys.modules[mod]
    return importlib.import_module(name)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller shot counts, for the benchmark's own tests; "
        "figures are not comparable with full runs",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    sys.path[:0] = [str(SRC), str(HERE)]

    rep_s = []
    workload = state = None
    try:
        for _ in range(SETUP_REPS):
            if state is not None:
                workload.close(state)
                state = None
            start = time.perf_counter()
            workload = fresh_import(f"wl_{args.workload}")
            state = workload.setup(args.seed, args.quick)
            rep_s.append(time.perf_counter() - start)
        setup_s = statistics.median(rep_s)
        import common
        import tracing

        common.OUT_DIR.mkdir(exist_ok=True)
        tally = common.Tally()
        if args.trace:
            recorder = tracing.Recorder()
            extra = workload.measure(
                state, args.seed, args.seconds, args.quick, tally, recorder
            )
            values = common.layer_metrics(recorder, extra)
            recorder.write(common.OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
            units = common.PER_LAYER
        else:
            values = workload.measure(state, args.seed, args.seconds, args.quick, tally)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = common.peak_rss_mb()
            units = common.END_TO_END
    finally:
        if state is not None:
            workload.close(state)

    left = leftovers()
    if left:
        print(f"error: still running at exit: {', '.join(left)}", file=sys.stderr)
        return 3
    print(f"set-ups: {', '.join(f'{t:.4f}' for t in rep_s)} s", file=sys.stderr)
    for note in tally.notes:
        print(f"failed: {note}", file=sys.stderr)
    print(
        f"# workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} "
        f"cpus={len(os.sched_getaffinity(0))}"
    )
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
