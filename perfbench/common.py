"""Shared pieces of the three workloads: metric names, summary statistics
and the per-layer table built from a :class:`tracing.Recorder`."""

from __future__ import annotations

import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Where runs leave span dumps and scratch job directories.
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench-out"

ENGINES = ("statevector", "stabilizer", "mps", "density")

#: Every untraced run reports each of these (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "shots_per_s": "1/s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

#: Every traced run reports each of these (name -> unit).  ``*.self_ms``
#: is the mean self time of one call: the span minus its child spans.
PER_LAYER = {
    "build.calls": "count",
    "build.self_ms": "ms",
    "compile.calls": "count",
    "compile.self_ms": "ms",
    "lower.self_ms": "ms",
    "dispatch.calls": "count",
    "dispatch.self_ms": "ms",
    **{
        f"engine.{e}.{m}": u
        for e in ENGINES
        for m, u in (
            ("calls", "count"),
            ("shots", "count"),
            ("self_ms", "ms"),
            ("shots_per_s", "1/s"),
        )
    },
    "digest.self_ms": "ms",
    "resample.self_ms": "ms",
    "optimizer.self_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.self_ms": "ms",
    "serve.submit.self_ms": "ms",
    "serve.first_block_p50_ms": "ms",
    "serve.exec.calls": "count",
    "serve.exec.self_ms": "ms",
    "serve.blocks_per_batch": "blocks/batch",
    "serve.worker_busy_share": "ratio",
    "loadgen.late_p90_ms": "ms",
    "trace.overhead_pct": "%",
}

#: A percentile is reported only when at least this many samples lie
#: beyond it; this sets the minimum operations per run.
TAIL_SAMPLES = 10
P90_MIN_SAMPLES = 10 * TAIL_SAMPLES  # 10% of them lie beyond the p90


@dataclass
class Tally:
    """Attempted and failed operations of one run."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    def guard(self, what: str, fn, *args, **kwargs):
        """Run one operation; an exception counts it as failed and
        returns ``None`` so the run carries on."""
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - one failed operation, not a crashed run
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{what}: raised")
            return None


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refusing one with fewer than
    ``TAIL_SAMPLES`` samples beyond it."""
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} needs {TAIL_SAMPLES} samples beyond it; "
            f"only {len(values)} samples"
        )
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


#: ``<metric>.self_ms`` -> the span it is read from.
SELF_MS_SPANS = {
    "build": "build",
    "compile": "compile",
    "lower": "lower",
    "dispatch": "dispatch",
    "digest": "digest",
    "resample": "resample",
    "optimizer": "solve",  # the solve span minus its evaluations
    "cache": "cache",
    "serve.submit": "serve.submit",
    "serve.exec": "serve.exec",
}


def layer_metrics(recorder, extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from the recorder's spans; layers the
    workload never entered read 0.  ``extra`` supplies the values spans
    cannot give (cache counters, event timings, overhead)."""
    layers = recorder.layers()
    empty = {"calls": 0, "self_s": 0.0, "n": 0}

    def self_ms(row) -> float:
        return 1e3 * row["self_s"] / row["calls"] if row["calls"] else 0.0

    out: Dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    for metric, span in SELF_MS_SPANS.items():
        out[f"{metric}.self_ms"] = self_ms(layers.get(span, empty))
    for name in ("build", "compile", "dispatch", "serve.exec"):
        out[f"{name}.calls"] = layers.get(name, empty)["calls"]
    for engine in ENGINES:
        row = layers.get(f"engine.{engine}", empty)
        prefix = f"engine.{engine}."
        out[prefix + "calls"] = row["calls"]
        out[prefix + "shots"] = row["n"]
        out[prefix + "self_ms"] = self_ms(row)
        out[prefix + "shots_per_s"] = row["n"] / row["self_s"] if row["self_s"] > 0 else 0.0
    batches = layers.get("serve.exec", empty)
    out["serve.blocks_per_batch"] = batches["n"] / batches["calls"] if batches["calls"] else 0.0
    unknown = set(extra or {}) - set(out)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    out.update(extra or {})
    return out
