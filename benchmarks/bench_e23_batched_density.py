"""E23 — batched density-matrix trajectory sampling vs a per-shot loop.

The density engine is the only backend that executes *non-Pauli* channels
(amplitude damping, dephasing mixtures) — exactly, per trajectory — but
until this refactor its sampler advanced one scalar density matrix per shot
in a Python loop, capping noisy-channel studies of the paper's MBQC-QAOA
patterns at toy shot counts.  ``DensityMatrixBackend.sample_batch`` now
advances one ``(B, 2, ..., 2, 2, ..., 2)`` batched density tensor through a
single compiled-op sweep, chunked against a byte budget
(``B · 4^max_live`` complex amplitudes resident).  The per-shot baseline
is the scalar reference interpreter on ``DensityMatrix`` states
(``reference_sample`` in ``tests/reference_engine.py``).

Two acceptance claims:

1. **Exactness.**  Both paths — and every chunking of the batched one —
   consume the parent generator through the same whole-block draw schedule,
   so seeded outcome records are **bit-identical**: the speedup carries no
   statistical caveats.

2. **Speed.**  ≥ 3x at 256 shots on a noisy ring-QAOA pattern under an
   amplitude-damping + dephasing + readout-flip channel model (the win is
   memory-bounded by design: each shot carries a whole density tensor, so
   the batch chunk — unlike the stabilizer engine's shared-structure
   block — cannot amortize O(n²) structure across shots).

Emits ``BENCH_E23.json`` in the working directory for downstream tracking.
Set ``REPRO_BENCH_QUICK=1`` for the trimmed CI smoke variant.
"""

import json
import os
import time

import numpy as np
from reference_engine import reference_sample

from repro.core import compile_qaoa_pattern
from repro.mbqc import compile_pattern, get_backend
from repro.mbqc.channels import Channel, ChannelNoiseModel
from repro.mbqc.compile import lower_noise
from repro.problems import MaxCut
from repro.sim.density import DensityMatrix

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

RING = 4
SHOT_SWEEP = [64, 256] if QUICK else [32, 64, 128, 256]
ACCEPT_SHOTS = 256
ACCEPT_SPEEDUP = 3.0

_RESULTS = {"ring": RING, "sweep": []}


def noisy_ring_program():
    pattern = compile_qaoa_pattern(
        MaxCut.ring(RING).to_qubo(), [0.4], [0.7]
    ).pattern
    model = ChannelNoiseModel(
        prep=Channel.amplitude_damping(0.05),
        ent=Channel.dephasing(0.02),
        meas_flip=0.02,
    )
    return lower_noise(compile_pattern(pattern), model)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_e23_batched_vs_loop_sweep():
    """Shots-vs-wall-time sweep: batched sweep vs per-shot reference, with
    the bit-identity check on every point."""
    program = noisy_ring_program()
    dm = get_backend("density")
    print("\nE23 — batched density trajectories vs per-shot loop "
          f"(ring-{RING}, {len(program.measured_nodes)} measured nodes, "
          f"max_live {program.max_live}, amplitude-damping noise)")
    print(f"{'shots':>6} {'batched ms':>11} {'loop ms':>9} {'speedup':>8} {'identical':>10}")
    for shots in SHOT_SWEEP:
        run_b, t_b = _timed(
            lambda: dm.sample_batch(program, shots, rng=np.random.default_rng(7))
        )
        run_l, t_l = _timed(
            lambda: reference_sample(
                program, shots, np.random.default_rng(7), state=DensityMatrix
            )
        )
        identical = bool(np.array_equal(run_b.outcomes, run_l.outcomes))
        assert identical, f"seeded outcome records diverged at {shots} shots"
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

    # Acceptance: >= 3x at 256 shots.
    at_accept = [r for r in _RESULTS["sweep"] if r["shots"] == ACCEPT_SHOTS]
    assert at_accept and at_accept[0]["speedup"] >= ACCEPT_SPEEDUP, at_accept


def test_e23_chunking_is_invisible_in_records():
    """The memory-budget fallback: forcing small shot chunks (down to one
    shot's tensor) must leave seeded records and per-shot output mixtures
    identical to the unchunked block."""
    program = noisy_ring_program()
    dm = get_backend("density")
    per_shot = 16 * 4 ** program.max_live
    ref = dm.sample_batch(
        program, 48, rng=np.random.default_rng(3), keep_raw=True
    )
    for chunk_shots in (1, 7):
        run = dm.sample_batch(
            program, 48, rng=np.random.default_rng(3), keep_raw=True,
            max_block_bytes=chunk_shots * per_shot,
        )
        assert np.array_equal(ref.outcomes, run.outcomes)
        for a, b in zip(ref.raw, run.raw):
            assert np.allclose(a.rho.to_matrix(), b.rho.to_matrix(), atol=1e-12)
    _RESULTS["chunking_shots"] = 48


def test_e23_emit_json():
    with open("BENCH_E23.json", "w") as fh:
        json.dump(_RESULTS, fh, indent=2)
    print("  wrote BENCH_E23.json")
