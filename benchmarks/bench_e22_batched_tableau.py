"""E22 — bit-packed batched stabilizer tableau vs a per-shot tableau loop.

The Clifford fast path reaches the paper's large ring-QAOA patterns
(γ = β = 0: graph state + Pauli measurements, ≥ 72 measured nodes at
ring-24), but until this refactor its trajectory sampler advanced one
tableau per shot in a Python loop.  ``StabilizerBackend.sample_batch`` now
runs the whole shot block through one compiled-op sweep over a
``BatchedTableau`` — one shared bit-packed GF(2) structure, per-shot packed
sign bits.  The per-shot baseline is the engine's own scalar ``_run_one``
driven shot by shot (``reference_stabilizer_sample`` in
``tests/reference_engine.py``).

Two acceptance claims:

1. **Exactness.**  Both paths consume the parent generator through the
   same whole-block vector-draw schedule, so seeded outcome arrays are
   **bit-identical** — the speedup is free of statistical caveats.  Branch
   weights and canonical stabilizer forms agree output for output.

2. **Speed.**  ≥ 5x at 256 shots on the ring-24 Clifford QAOA pattern
   (measured below; typical observed speedups are well above 50x since the
   shared structure amortizes every O(n²) sweep across the block).

Emits ``BENCH_E22.json`` in the working directory for downstream tracking.
Set ``REPRO_BENCH_QUICK=1`` for the trimmed CI smoke variant.
"""

import json
import os
import time

import numpy as np
from reference_engine import reference_stabilizer_sample

from repro.core import compile_qaoa_pattern
from repro.mbqc import compile_pattern, get_backend
from repro.problems import MaxCut

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

RING = 24
SHOT_SWEEP = [64, 256] if QUICK else [32, 64, 128, 256, 512]
ACCEPT_SHOTS = 256
ACCEPT_SPEEDUP = 5.0

_RESULTS = {"ring": RING, "sweep": []}


def clifford_ring_compiled(n):
    pattern = compile_qaoa_pattern(MaxCut.ring(n).to_qubo(), [0.0], [0.0]).pattern
    return compile_pattern(pattern)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_e22_batched_vs_loop_sweep():
    """Shots-vs-wall-time sweep: batched sweep vs per-shot loop, with the
    bit-identity check on every point."""
    c = clifford_ring_compiled(RING)
    sb = get_backend("stabilizer")
    print("\nE22 — batched stabilizer tableau vs per-shot loop "
          f"(ring-{RING}, {len(c.measured_nodes)} measured nodes)")
    print(f"{'shots':>6} {'batched ms':>11} {'loop ms':>9} {'speedup':>8} {'identical':>10}")
    for shots in SHOT_SWEEP:
        run_b, t_b = _timed(
            lambda: sb.sample_batch(c, shots, rng=np.random.default_rng(7))
        )
        run_l, t_l = _timed(
            lambda: reference_stabilizer_sample(
                c, shots, np.random.default_rng(7)
            )
        )
        identical = bool(np.array_equal(run_b.outcomes, run_l.outcomes))
        assert identical, f"seeded outcome arrays diverged at {shots} shots"
        speedup = t_l / t_b
        _RESULTS["sweep"].append(
            {
                "shots": shots,
                "t_batched_s": t_b,
                "t_loop_s": t_l,
                "speedup": speedup,
                "bit_identical": identical,
            }
        )
        print(f"{shots:>6} {1e3 * t_b:>11.1f} {1e3 * t_l:>9.1f} "
              f"{speedup:>7.1f}x {'yes' if identical else 'NO':>10}")

    # Acceptance: >= 5x at 256 shots (observed margins are far larger).
    at_accept = [r for r in _RESULTS["sweep"] if r["shots"] == ACCEPT_SHOTS]
    assert at_accept and at_accept[0]["speedup"] >= ACCEPT_SPEEDUP, at_accept


def test_e22_outputs_agree_between_paths():
    """Beyond outcome bits: per-shot branch weights and canonical
    stabilizer forms agree between the two paths (small ring so the loop
    stays cheap)."""
    c = clifford_ring_compiled(6)
    sb = get_backend("stabilizer")
    vec = sb.sample_batch(c, 48, rng=np.random.default_rng(3), keep_raw=True)
    loop = reference_stabilizer_sample(c, 48, np.random.default_rng(3))
    assert np.array_equal(vec.outcomes, loop.outcomes)
    for a, b in zip(vec.raw, loop.outputs):
        assert a.log2_weight == b.log2_weight
        assert a.canonical_key() == b.canonical_key()
    _RESULTS["output_agreement_shots"] = 48


def test_e22_emit_json():
    with open("BENCH_E22.json", "w") as fh:
        json.dump(_RESULTS, fh, indent=2)
    print("  wrote BENCH_E22.json")
