"""E24 — frontier exact integration vs the depth-first branch recursion.

``DensityMatrixBackend.integrate`` enumerates every measurement-outcome
branch of a noisy pattern and sums the unnormalized post-measurement
density matrices — the exact reference the trajectory samplers (E21/E23)
certify against.  The depth-first recursion (``reference_integrate`` in
``tests/reference_engine.py``) pays one simulator descent per
*leaf*: ``2^m`` for ``m`` live measurements, ``4^m`` once readout flips
enter.  The frontier engine rebuilt here pays per *distinct future*
instead:

1. **Live-parity merging.**  Two branches whose recorded outcomes agree on
   every parity any *future* op can still read are indistinguishable from
   here on; their unnormalized tensors sum into one frontier element.  The
   peak frontier width is the merged bound reported by
   ``repro.analysis.estimate_compiled`` (``2^rank``, often ≪ ``2^m``), and
   flip children share their recorded bit, so flips no longer quadruple
   anything.
2. **Cross-branch batching.**  The whole frontier advances as one
   ``(B, 2, ..., 2)`` batched density tensor through each compiled op —
   the E23 kernels, pointed across branches instead of shots — chunked
   against the same byte budget.

Acceptance claims:

* **Exactness.**  The frontier output ρ matches the depth-first reference
  at every benchmarked point, and chunkings of the
  batched sweep are *bit-identical* to each other (pure reassociation-free
  slicing).
* **Merging pays.**  Peak merged width is strictly below the raw ``2^m``
  leaf count at every point.
* **Speed.**  ≥ 4x over the depth-first recursion on a noisy gadget-ring
  pattern with ≥ 16 measured nodes (full mode; the quick CI variant
  checks the same claims at smaller sizes).

Emits ``BENCH_E24.json`` in the working directory for downstream tracking.
Set ``REPRO_BENCH_QUICK=1`` for the trimmed CI smoke variant.
"""

import json
import os
import time

import numpy as np
from reference_engine import reference_integrate

from repro.core import compile_qaoa_pattern
from repro.mbqc import Pattern, compile_pattern, get_backend
from repro.mbqc.channels import Channel, ChannelNoiseModel
from repro.mbqc.compile import lower_noise
from repro.problems import MaxCut

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

GADGET_SIZES = [10, 12] if QUICK else [10, 12, 16]
ACCEPT_SIZE = GADGET_SIZES[-1]
ACCEPT_SPEEDUP = 4.0
ATOL = 1e-11

_RESULTS = {"gadget_sizes": GADGET_SIZES, "points": []}


def gadget_ring(m, seed=5):
    """A ring of ``m`` phase gadgets hanging off one bus qubit: every
    measurement's correction lands on a later node, so each parity dies as
    soon as it is consumed and the merged frontier stays narrow while the
    raw leaf count is the full ``2^m``."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-np.pi, np.pi, size=m)
    p = Pattern(input_nodes=[0], output_nodes=[m])
    p.n(1).e(0, 1)
    for i in range(1, m):
        p.n(i + 1).e(i, i + 1)
        p.m(i, "XY", -float(a[i])).x(i + 1, {i})
    p.e(0, m)
    p.m(0, "XY", -float(a[0])).x(m, {0})
    return p


NOISE = ChannelNoiseModel(
    prep=Channel.amplitude_damping(0.05), ent=Channel.dephasing(0.02)
)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _bench_point(label, program):
    dm = get_backend("density")
    m = len(program.measured_nodes)
    scalar, t_s = _timed(lambda: reference_integrate(program))
    frontier, t_f = _timed(lambda: dm.integrate(program))
    # merged-only ablation: single-element chunks keep the merge but strip
    # the cross-branch batching out of every kernel sweep
    merged_only, t_m = _timed(lambda: dm.integrate(program, max_block_bytes=1))

    diff = float(np.abs(frontier.rho._t - scalar.rho._t).max())
    assert diff < ATOL, (label, diff)
    assert np.array_equal(frontier.rho._t, merged_only.rho._t), label
    assert frontier.branches < 2 ** m, (label, frontier.branches, m)

    speedup = t_s / t_f
    _RESULTS["points"].append(
        {
            "label": label,
            "measured": m,
            "raw_leaves": scalar.branches,
            "merged_peak": frontier.branches,
            "t_scalar_s": t_s,
            "t_merged_only_s": t_m,
            "t_frontier_s": t_f,
            "speedup": speedup,
            "max_abs_diff": diff,
        }
    )
    print(
        f"{label:>12} {m:>4} {scalar.branches:>9} {frontier.branches:>7} "
        f"{1e3 * t_s:>10.1f} {1e3 * t_m:>12.1f} {1e3 * t_f:>11.1f} "
        f"{speedup:>7.1f}x {diff:>9.1e}"
    )
    return speedup


def test_e24_gadget_ring_sweep():
    """Depth-first recursion vs frontier across gadget-ring sizes, with the
    exactness and merged-width checks at every point."""
    print("\nE24 — frontier exact integration vs depth-first branch recursion "
          "(amplitude-damping + dephasing noise)")
    print(f"{'pattern':>12} {'m':>4} {'leaves':>9} {'merged':>7} "
          f"{'scalar ms':>10} {'merged-only':>12} {'frontier ms':>11} "
          f"{'speedup':>8} {'max diff':>9}")
    accept = None
    for m in GADGET_SIZES:
        program = lower_noise(compile_pattern(gadget_ring(m)), NOISE)
        speedup = _bench_point(f"gadget({m})", program)
        if m == ACCEPT_SIZE:
            accept = speedup
    assert accept is not None and accept >= ACCEPT_SPEEDUP, accept


def test_e24_qaoa_ring_point():
    """A wide-frontier shape: ring-QAOA's parities stay live much longer
    (merged peak 256 vs 4096 leaves), so the win here comes mostly from
    cross-branch batching rather than merging."""
    program = lower_noise(
        compile_qaoa_pattern(MaxCut.ring(4).to_qubo(), [0.4], [0.7])
        .executable(),
        NOISE,
    )
    _bench_point("qaoa-ring(4)", program)


def test_e24_emit_json():
    with open("BENCH_E24.json", "w") as fh:
        json.dump(_RESULTS, fh, indent=2)
    print("  wrote BENCH_E24.json")
