"""E21 — exact density-matrix noise integration vs trajectory sampling.

The channel-IR refactor's acceptance claims:

1. **Certification.**  On a bench-E15-class pattern (MBQC-QAOA, ring-3,
   p=1) under the E15 noise model, the batched Monte-Carlo fidelity
   estimator (``sample_batch`` with per-element Pauli faults) converges to
   the *exact* channel integral computed by the ``"density"`` engine: at
   1024 trajectories the two agree within 3 standard errors.

2. **Engine scaling.**  The depth-first reference integrator
   (``reference_integrate`` in ``tests/reference_engine.py``) explores the
   outcome-branch tree (``2^m`` leaves for ``m`` live-record
   measurements), so its wall time scales geometrically with the measured
   set — quantified on j-gadget chains — while a fixed trajectory budget
   scales only linearly.  (The engine's frontier integrator merges
   equivalent branches and escapes this wall entirely — that speedup is
   E24's claim; the reference here is the certification baseline.)

Emits ``BENCH_E21.json`` next to the working directory for downstream
tracking.  Set ``REPRO_BENCH_QUICK=1`` for the trimmed CI smoke variant.
"""

import json
import os
import time

import numpy as np
import pytest
from reference_engine import reference_integrate

from repro.core import compile_qaoa_pattern
from repro.mbqc import Pattern, compile_pattern, get_backend
from repro.mbqc.noise import NoiseModel, average_fidelity
from repro.mbqc.runner import run_pattern
from repro.problems import MaxCut

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

SHOT_LADDER = [64, 256, 1024]
CHAIN_SIZES = [3, 4, 5] if QUICK else [3, 4, 5, 6, 7, 8]
NOISE = NoiseModel(p_prep=0.01, p_ent=0.01)

_RESULTS = {}


def j_chain(alphas):
    p = Pattern(input_nodes=[0], output_nodes=[len(alphas)])
    for i, a in enumerate(alphas):
        p.n(i + 1).e(i, i + 1).m(i, "XY", -a)
        p.x(i + 1, {i})
    return p


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_e21_exact_vs_trajectory_convergence():
    """Acceptance: MC fidelity at 1024 shots within 3 standard errors of
    the exact density-matrix fidelity on the E15 ring-3 pattern."""
    compiled = compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.4], [0.7])
    program = compile_pattern(compiled.pattern)

    (exact, run_info), t_exact = _timed(
        lambda: (
            average_fidelity(compiled.pattern, NOISE, exact=True),
            get_backend("density").integrate(program, noise=NOISE),
        )
    )
    ideal = run_pattern(compiled.pattern, seed=0, compiled=program).state_array()
    ref = ideal / np.linalg.norm(ideal)

    rows = []
    engine = get_backend("statevector")
    for shots in SHOT_LADDER:
        run, t_traj = _timed(
            lambda: engine.sample_batch(program, shots, rng=7, noise=NOISE)
        )
        fids = np.abs(run.dense_states() @ ref.conj()) ** 2
        mean = float(fids.mean())
        sem = float(fids.std(ddof=1) / np.sqrt(fids.size))
        rows.append((shots, mean, sem, abs(mean - exact), t_traj))

    print("\nE21 — exact channel integral vs Monte-Carlo trajectories "
          f"(ring-3 p=1, {run_info.branches} branches, "
          f"exact in {1e3 * t_exact:.0f} ms)")
    print(f"  exact <F> = {exact:.6f}")
    print(f"  {'shots':>6} {'<F> MC':>9} {'sem':>8} {'|Δ|':>8} {'Δ/sem':>6} {'ms':>7}")
    for shots, mean, sem, delta, t in rows:
        print(f"  {shots:>6} {mean:>9.5f} {sem:>8.5f} {delta:>8.5f} "
              f"{delta / sem:>6.2f} {1e3 * t:>7.1f}")

    _RESULTS["convergence"] = {
        "pattern": "maxcut-ring-3 p=1",
        "noise": {"p_prep": NOISE.p_prep, "p_ent": NOISE.p_ent,
                  "p_meas": NOISE.p_meas},
        "exact_fidelity": exact,
        "exact_branches": run_info.branches,
        "exact_seconds": t_exact,
        "trajectories": [
            {"shots": s, "mean": m, "sem": e, "abs_err": d, "seconds": t}
            for s, m, e, d, t in rows
        ],
    }

    assert 0.0 < exact < 1.0
    shots, mean, sem, delta, _ = rows[-1]
    assert shots == 1024
    # Acceptance: 3 standard errors at the largest shot count.
    assert delta <= 3.0 * sem + 1e-12, (mean, exact, sem)


def test_e21_density_engine_scaling():
    """Depth-first exact-integration cost grows with the measured set
    (2^m leaves; the frontier path merges these — see E24); the
    trajectory estimator's cost stays flat per shot."""
    rng = np.random.default_rng(0)
    rows = []
    for m in CHAIN_SIZES:
        pattern = j_chain(list(rng.uniform(-np.pi, np.pi, size=m)))
        program = compile_pattern(pattern)
        run, t_exact = _timed(
            lambda: reference_integrate(program, noise=NOISE)
        )
        _, t_traj = _timed(
            lambda: get_backend("statevector").sample_batch(
                program, 256, rng=1, noise=NOISE
            )
        )
        rows.append((m, run.branches, t_exact, t_traj))

    print("\nE21 — density engine scaling (j-gadget chains, 256-shot MC "
          "column for contrast)")
    print(f"  {'m':>3} {'branches':>9} {'exact ms':>9} {'mc ms':>7}")
    for m, branches, t_e, t_t in rows:
        print(f"  {m:>3} {branches:>9} {1e3 * t_e:>9.1f} {1e3 * t_t:>7.1f}")

    _RESULTS["scaling"] = [
        {"measurements": m, "branches": b, "exact_seconds": t_e,
         "trajectory_256_seconds": t_t}
        for m, b, t_e, t_t in rows
    ]

    # Branch tree doubles per measurement with a live record.
    for (m0, b0, *_), (m1, b1, *_) in zip(rows, rows[1:]):
        assert b1 == b0 * (1 << (m1 - m0))

    with open("BENCH_E21.json", "w") as fh:
        json.dump(_RESULTS, fh, indent=2)
    print("  wrote BENCH_E21.json")
