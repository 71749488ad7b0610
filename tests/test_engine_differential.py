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
  to 1e-12.
"""

import numpy as np
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
from repro.mbqc.noise import NoiseModel
from repro.sim.density import DensityMatrix
from repro.sim.mps import MPSState

N_SHOTS = 12

#: Leaf budget for the depth-first reference integrator per example.
MAX_REFERENCE_LEAVES = 1024


def j_chain(alphas):
    p = Pattern(input_nodes=[0], output_nodes=[len(alphas)])
    for i, a in enumerate(alphas):
        p.n(i + 1).e(i, i + 1).m(i, "XY", -a, s_domain=set())
        p.x(i + 1, {i})
    return p


def random_pattern(kind: str, seed: int) -> Pattern:
    if kind == "clifford":
        return random_clifford_pattern(seed)
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
    noise = NoiseModel(p_prep=p_prep, p_ent=p_ent, p_meas=p_meas)
    program = lower_noise(compile_pattern(random_pattern(kind, seed)), noise)

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
