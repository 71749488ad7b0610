"""Noisy pattern execution (the E15 substrate)."""

import numpy as np
import pytest

from reference_engine import reference_sample

from repro.core import compile_qaoa_pattern
from repro.linalg import allclose_up_to_global_phase
from repro.mbqc import Pattern, compile_pattern, run_pattern
from repro.mbqc.noise import NoiseModel, average_fidelity
from repro.problems import MaxCut


def run_noisy(pattern, noise, seed, input_state=None):
    """One noisy trajectory's output state on the scalar reference
    interpreter (the noise program lowered onto the compiled ops)."""
    run = reference_sample(
        compile_pattern(pattern), 1, seed, input_state=input_state,
        noise=noise,
    )
    return run.outputs[0]


def j_pattern(alpha):
    p = Pattern(input_nodes=[0], output_nodes=[1])
    p.n(1).e(0, 1).m(0, "XY", -alpha).x(1, {0})
    return p


class TestNoiseModel:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(p_prep=1.5)
        with pytest.raises(ValueError):
            NoiseModel(p_meas=-0.1)

    def test_trivial(self):
        assert NoiseModel().is_trivial()
        assert not NoiseModel(p_ent=0.01).is_trivial()


class TestNoisyRunner:
    def test_zero_noise_matches_ideal(self):
        compiled = compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.4], [0.7])
        ideal = run_pattern(compiled.pattern, seed=3).state_array()
        noisy = run_noisy(compiled.pattern, NoiseModel(), seed=5)
        assert allclose_up_to_global_phase(noisy, ideal, atol=1e-9)

    def test_full_measurement_flip_changes_nothing_for_deterministic(self):
        """p_meas=1 flips every recorded outcome; for a deterministic
        pattern the corrections re-absorb it, so the state is unchanged."""
        p = j_pattern(0.8)
        ideal = run_pattern(p, seed=0).state_array()
        noisy = run_noisy(p, NoiseModel(p_meas=1.0), seed=1)
        # A *readout* flip misleads the correction: state differs in
        # general.  Verify it is still normalized and a valid state.
        assert np.isclose(np.linalg.norm(noisy), 1.0)

    def test_fidelity_one_at_zero_noise(self):
        compiled = compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.3], [0.5])
        f = average_fidelity(compiled.pattern, NoiseModel(), trajectories=3, seed=0)
        assert f == pytest.approx(1.0, abs=1e-9)

    def test_fidelity_decreases_with_noise(self):
        compiled = compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.3], [0.5])
        f_low = average_fidelity(
            compiled.pattern, NoiseModel(p_ent=0.005), trajectories=40, seed=1
        )
        f_high = average_fidelity(
            compiled.pattern, NoiseModel(p_ent=0.08), trajectories=40, seed=1
        )
        assert f_low > f_high

    def test_prep_noise_only(self):
        compiled = compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.3], [0.5])
        f = average_fidelity(
            compiled.pattern, NoiseModel(p_prep=0.05), trajectories=30, seed=2
        )
        assert 0.3 < f < 1.0

    def test_measurement_noise_degrades(self):
        compiled = compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.3], [0.5])
        f = average_fidelity(
            compiled.pattern, NoiseModel(p_meas=0.1), trajectories=30, seed=3
        )
        assert f < 0.999

    def test_input_size_mismatch(self):
        from repro.sim import StateVector

        p = j_pattern(0.1)
        with pytest.raises(ValueError):
            run_noisy(p, NoiseModel(), seed=0, input_state=StateVector.plus(2))
        with pytest.raises(ValueError):
            run_pattern(p, seed=0, input_state=StateVector.plus(2))


class TestInterpreterExecutesLoweredNoise:
    """run_pattern (a one-shot statevector ``sample_batch``) consumes the
    same lowered noise program as the batched engines."""

    def test_readout_flip_applies_to_record(self):
        from repro.mbqc.compile import compile_pattern, lower_noise

        p = j_pattern(0.8)
        lowered = lower_noise(compile_pattern(p), NoiseModel(p_meas=1.0))
        res = run_pattern(p, seed=0, forced_outcomes={0: 0}, compiled=lowered)
        # True outcome forced to 0; certain flip records 1.
        assert res.outcomes[0] == 1
        assert np.isclose(np.linalg.norm(res.state_array()), 1.0)

    def test_channel_ops_sampled(self):
        from repro.mbqc.compile import compile_pattern, lower_noise

        p = j_pattern(0.8)
        lowered = lower_noise(compile_pattern(p), NoiseModel(p_prep=1.0))
        ideal = run_pattern(p, seed=4).state_array()
        noisy = run_pattern(p, seed=4, compiled=lowered).state_array()
        assert np.isclose(np.linalg.norm(noisy), 1.0)
        # A certain depolarizing kick is a uniformly random Pauli; over
        # seeds at least one trajectory must leave the ideal orbit.
        states = [
            run_pattern(p, seed=s, forced_outcomes={0: 0}, compiled=lowered).state_array()
            for s in range(6)
        ]
        ref = run_pattern(p, seed=0, forced_outcomes={0: 0}).state_array()
        from repro.linalg import allclose_up_to_global_phase

        assert not all(
            allclose_up_to_global_phase(s, ref, atol=1e-9) for s in states
        )

    def test_non_pauli_channel_refused_loudly(self):
        from repro.mbqc import PatternError
        from repro.mbqc.channels import Channel, ChannelNoiseModel
        from repro.mbqc.compile import compile_pattern, lower_noise

        p = j_pattern(0.8)
        lowered = lower_noise(
            compile_pattern(p),
            ChannelNoiseModel(prep=Channel.amplitude_damping(0.2)),
        )
        with pytest.raises(PatternError, match="density"):
            run_pattern(p, seed=0, compiled=lowered)


class TestTrivialShortCircuit:
    def test_trivial_noise_returns_exactly_one(self):
        """No shot loop runs for a trivial model: the fidelity is exactly
        1.0, not a sampled approximation of it."""
        compiled = compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.3], [0.5])
        assert average_fidelity(compiled.pattern, NoiseModel(), trajectories=10**9) == 1.0
        assert average_fidelity(compiled.pattern, None, trajectories=10**9) == 1.0

    def test_trivial_noise_with_reference_runs_once(self):
        """An explicit reference still gets compared against one noiseless
        run (it need not be the pattern's own output)."""
        p = j_pattern(0.6)
        ideal = run_pattern(p, seed=0).state_array()
        assert average_fidelity(p, NoiseModel(), reference=ideal) == pytest.approx(
            1.0, abs=1e-12
        )
        orthogonal = np.array([ideal[1].conjugate(), -ideal[0].conjugate()])
        f = average_fidelity(p, NoiseModel(), reference=orthogonal)
        assert f == pytest.approx(0.0, abs=1e-12)


class TestExactPath:
    def test_exact_zero_noise_is_one(self):
        p = j_pattern(0.4)
        # Non-trivial-but-lowered model with all-zero channels is trivial.
        assert average_fidelity(p, NoiseModel(), exact=True) == 1.0

    def test_exact_matches_large_trajectory_average(self):
        compiled = compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.3], [0.5])
        noise = NoiseModel(p_prep=0.02, p_ent=0.02)
        exact = average_fidelity(compiled.pattern, noise, exact=True)
        traj = average_fidelity(compiled.pattern, noise, trajectories=4096, seed=9)
        assert 0.0 < exact < 1.0
        assert traj == pytest.approx(exact, abs=0.02)

    def test_exact_rejects_non_integrating_backend(self):
        with pytest.raises(ValueError, match="density"):
            average_fidelity(
                j_pattern(0.4), NoiseModel(p_ent=0.1), exact=True,
                backend="statevector",
            )
