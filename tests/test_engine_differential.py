"""One differential harness: every engine against the scalar reference.

Random Clifford state-preparation patterns and random ``J(α)`` chains,
under random Pauli noise (depolarizing prep/entangle channels plus
readout flips), run on every applicable engine at one seed and are
compared with ``tests/reference_engine.py``:

- statevector, MPS and density ``sample_batch`` records are bit-identical
  to the op-major scalar interpreter on the matching state type (and so to
  each other), with matching per-shot outputs;
- stabilizer ``sample_batch`` records, log-2 branch weights and canonical
  output keys are bit-identical to its own ``_run_one`` driven shot by
  shot;
- exact frontier integration matches the depth-first reference integrator
  to 1e-12;
- the stacked statevector and MPS sweeps are chunk invariant: MPS records
  and outputs match the reference at chunk sizes 1, 3 (ragged) and all
  shots (``max_block_bytes``), and on both engines one fused batch of
  ragged blocks (the serve mux) reproduces each block's standalone run;
- the same holds with a binding bond cap (``chi_max=2``), where the route
  each chain takes decides its truncation: sampled records, outputs and
  per-shot truncation errors match the scalar reference at every chunk
  size, and a branch batch of inputs of different Schmidt rank gives each
  row the output it gets alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_engine import (
    reference_integrate,
    reference_sample,
    reference_stabilizer_sample,
)
from test_mbqc_stabilizer import random_clifford_pattern

from repro.analysis import estimate_compiled
from repro.linalg import allclose_up_to_global_phase
from repro.mbqc import Pattern, compile_pattern, get_backend, lower_noise
from repro.mbqc.mps_backend import MPS_DEFAULT_CHI_MAX, MPSBackend
from repro.mbqc.noise import NoiseModel
from repro.serve.batching import MuxedGenerator
from repro.sim.density import DensityMatrix
from repro.sim.mps import MPSState

N_SHOTS = 12

#: Ragged shot blocks fused into one batch (sizes 1 and 3, as the chunks).
FUSED_BLOCKS = (1, 3, 3, 3, 2)

#: A bond cap that binds on the random patterns, so each chain's route
#: decides its truncation.
TIGHT_CHI = 2

#: Leaf budget for the depth-first reference integrator per example.
MAX_REFERENCE_LEAVES = 1024


def j_chain(alphas):
    p = Pattern(input_nodes=[0], output_nodes=[len(alphas)])
    for i, a in enumerate(alphas):
        p.n(i + 1).e(i, i + 1).m(i, "XY", -a, s_domain=set())
        p.x(i + 1, {i})
    return p


def graph_pattern(seed: int, n_inputs: int = 0) -> Pattern:
    """A random graph with non-Clifford ``XY`` measurements and no
    adaptive domains; the last ``max(n_inputs, 2)`` nodes are outputs."""
    rng = np.random.default_rng(seed)
    n_out = max(n_inputs, 2)
    n = n_out + int(rng.integers(2, 6))
    p = Pattern(
        input_nodes=list(range(n_inputs)), output_nodes=list(range(n - n_out, n))
    )
    for v in range(n_inputs, n):
        p.n(v)
    for _ in range(int(rng.integers(n, 2 * n))):
        u, v = rng.choice(n, size=2, replace=False)
        p.e(int(u), int(v))
    for v in range(n - n_out):
        p.m(v, "XY", float(rng.uniform(-np.pi, np.pi)), set(), set())
    return p


def noisy_program(kind, seed, p_prep, p_ent, p_meas):
    noise = NoiseModel(p_prep=p_prep, p_ent=p_ent, p_meas=p_meas)
    return lower_noise(compile_pattern(random_pattern(kind, seed)), noise)


def random_pattern(kind: str, seed: int) -> Pattern:
    if kind == "clifford":
        return random_clifford_pattern(seed)
    if kind == "graph":
        return graph_pattern(seed)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    return j_chain([float(a) for a in rng.uniform(-np.pi, np.pi, size=m)])


probs = st.sampled_from([0.0, 0.03, 0.2])


@given(
    kind=st.sampled_from(["clifford", "j_chain"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    p_prep=probs,
    p_ent=probs,
    p_meas=probs,
)
@settings(max_examples=15, deadline=None)
def test_engines_match_reference(kind, seed, p_prep, p_ent, p_meas):
    program = noisy_program(kind, seed, p_prep, p_ent, p_meas)

    ref = reference_sample(program, N_SHOTS, seed)
    sv = get_backend("statevector").sample_batch(program, N_SHOTS, rng=seed)
    assert np.array_equal(sv.outcomes, ref.outcomes)
    assert np.allclose(sv.states, np.stack(ref.outputs), atol=1e-9)

    mps_ref = reference_sample(program, N_SHOTS, seed, state=MPSState)
    mps = get_backend("mps").sample_batch(
        program, N_SHOTS, rng=seed, keep_raw=True
    )
    assert np.array_equal(mps.outcomes, mps_ref.outcomes)
    assert np.array_equal(mps.outcomes, sv.outcomes)
    for out, row in zip(mps.raw, sv.states):
        assert allclose_up_to_global_phase(out.unit_statevector(), row, atol=1e-9)

    dm_ref = reference_sample(program, N_SHOTS, seed, state=DensityMatrix)
    dm = get_backend("density").sample_batch(
        program, N_SHOTS, rng=seed, keep_raw=True
    )
    assert np.array_equal(dm.outcomes, dm_ref.outcomes)
    for out, rho in zip(dm.raw, dm_ref.outputs):
        assert np.allclose(out.rho.to_matrix(), rho.to_matrix(), atol=1e-9)

    if program.is_clifford:
        st_ref = reference_stabilizer_sample(program, N_SHOTS, seed)
        tab = get_backend("stabilizer").sample_batch(
            program, N_SHOTS, rng=seed, keep_raw=True
        )
        assert np.array_equal(tab.outcomes, st_ref.outcomes)
        for a, b in zip(tab.raw, st_ref.outputs):
            assert a.log2_weight == b.log2_weight
            assert a.canonical_key() == b.canonical_key()

    if estimate_compiled(program).branch_bound <= MAX_REFERENCE_LEAVES:
        exact = get_backend("density").integrate(program)
        scalar = reference_integrate(program)
        assert np.abs(exact.rho._t - scalar.rho._t).max() < 1e-12


@given(
    kind=st.sampled_from(["clifford", "j_chain", "graph"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    p_prep=probs,
    p_ent=probs,
    p_meas=probs,
    chi_max=st.sampled_from([MPS_DEFAULT_CHI_MAX, TIGHT_CHI]),
)
@settings(max_examples=15, deadline=None)
def test_stacked_sweeps_chunk_invariant(kind, seed, p_prep, p_ent, p_meas, chi_max):
    program = noisy_program(kind, seed, p_prep, p_ent, p_meas)

    mps = MPSBackend(chi_max=chi_max)
    ref = reference_sample(
        program, N_SHOTS, seed, state=MPSState, mps_chi_max=chi_max
    )
    for chunk in (1, 3, N_SHOTS):
        run = mps.sample_batch(
            program, N_SHOTS, rng=seed, keep_raw=True,
            max_block_bytes=chunk * mps.bytes_per_shot(program),
        )
        assert np.array_equal(run.outcomes, ref.outcomes)
        for out, want in zip(run.raw, ref.outputs):
            assert out.mps.bond_dims() == want.bond_dims()
            assert out.truncation_error == pytest.approx(
                want.truncation_error, rel=1e-9, abs=1e-15
            )
            assert allclose_up_to_global_phase(
                out.unit_statevector(), want.to_array() / want.norm(), atol=1e-9
            )

    seeds = [seed + k for k in range(len(FUSED_BLOCKS))]
    for name, eng in (("statevector", get_backend("statevector")), ("mps", mps)):
        mux = MuxedGenerator([np.random.default_rng(s) for s in seeds], FUSED_BLOCKS)
        fused = eng.sample_batch(program, sum(FUSED_BLOCKS), mux, keep_raw=True)
        lo = 0
        for n, s in zip(FUSED_BLOCKS, seeds):
            alone = eng.sample_batch(program, n, rng=s, keep_raw=True)
            assert np.array_equal(fused.outcomes[lo:lo + n], alone.outcomes)
            if name == "statevector":
                assert np.allclose(fused.states[lo:lo + n], alone.states, atol=1e-9)
            else:
                for a, b in zip(fused.raw[lo:lo + n], alone.raw):
                    assert allclose_up_to_global_phase(
                        a.unit_statevector(), b.unit_statevector(), atol=1e-9
                    )
            lo += n


@pytest.mark.parametrize("seed", range(12))
def test_truncated_branch_rows_are_independent(seed):
    """A product input row batched with an entangled one: under a binding
    chi_max each row still takes its own route, so it truncates as it does
    alone (a batch-wide route would walk the product row's sites by SWAPs
    and truncate it differently)."""
    program = compile_pattern(graph_pattern(seed, n_inputs=3))
    rng = np.random.default_rng(seed)
    rows = np.zeros((2, 8), dtype=complex)
    rows[0, 0] = 1.0
    rows[1] = rng.normal(size=8) + 1j * rng.normal(size=8)
    rows[1] /= np.linalg.norm(rows[1])
    forced = {v: 0 for v in program.measured_nodes}
    mps = MPSBackend(chi_max=TIGHT_CHI)
    both = mps.run_branch_batch(program, rows, forced)
    for r in range(2):
        alone = mps.run_branch_batch(program, rows[r:r + 1], forced).raw[0]
        got = both.raw[r]
        assert got.mps.bond_dims() == alone.mps.bond_dims()
        assert got.truncation_error == pytest.approx(
            alone.truncation_error, rel=1e-9, abs=1e-15
        )
        assert allclose_up_to_global_phase(
            got.unit_statevector(), alone.unit_statevector(), atol=1e-9
        )
