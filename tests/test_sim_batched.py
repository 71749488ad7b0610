"""Unit + property tests for :class:`repro.sim.BatchedStateVector`.

Every batched operation must act on each batch element exactly as the
scalar :class:`StateVector` does — the batched engine's correctness reduces
to this lockstep equivalence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import HADAMARD, rx, rz
from repro.linalg.gates import PAULI_X, PAULI_Y, PAULI_Z
from repro.sim import BatchedStateVector, MeasurementBasis, StateVector, ZeroProbabilityBranch
from repro.sim.statevector import KET_MINUS, KET_PLUS


def random_block(b, n, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(b, 1 << n)) + 1j * rng.normal(size=(b, 1 << n))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


class TestConstruction:
    def test_default_is_zeros(self):
        bsv = BatchedStateVector(3, 2)
        arrs = bsv.to_arrays()
        assert arrs.shape == (3, 4)
        assert np.allclose(arrs, [[1, 0, 0, 0]] * 3)

    def test_from_arrays_roundtrip(self):
        block = random_block(5, 3, seed=1)
        assert np.allclose(BatchedStateVector.from_arrays(block).to_arrays(), block)

    def test_from_arrays_matches_scalar_convention(self):
        block = random_block(4, 2, seed=2)
        bsv = BatchedStateVector.from_arrays(block)
        for j in range(4):
            sv = StateVector.from_array(block[j])
            assert np.allclose(bsv._t[j], sv._t)

    def test_zero_qubit_batch(self):
        bsv = BatchedStateVector.from_arrays(np.array([[2.0], [3.0j]]))
        assert bsv.num_qubits == 0
        assert np.allclose(bsv.to_arrays(), [[2.0], [3.0j]])

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            BatchedStateVector.from_arrays(np.ones(4))
        with pytest.raises(ValueError):
            BatchedStateVector.from_arrays(np.ones((2, 3)))
        with pytest.raises(ValueError):
            BatchedStateVector(0, 1)
        with pytest.raises(ValueError):
            BatchedStateVector(2, -1)


class TestLockstepEquivalence:
    """Batched ops == per-element scalar ops."""

    def scalars(self, block):
        return [StateVector.from_array(row) for row in block]

    def test_add_qubit(self):
        block = random_block(3, 2, seed=3)
        bsv = BatchedStateVector.from_arrays(block)
        slot = bsv.add_qubit(KET_MINUS)
        assert slot == 2
        for j, sv in enumerate(self.scalars(block)):
            sv.add_qubit(KET_MINUS)
            assert np.allclose(bsv.to_arrays()[j], sv.to_array(), atol=1e-12)

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_apply_1q(self, q):
        block = random_block(4, 3, seed=4)
        bsv = BatchedStateVector.from_arrays(block)
        gate = rx(0.7) @ rz(-1.2)
        bsv.apply_1q(gate, q)
        for j, sv in enumerate(self.scalars(block)):
            sv.apply_1q(gate, q)
            assert np.allclose(bsv.to_arrays()[j], sv.to_array(), atol=1e-12)

    @pytest.mark.parametrize("q0,q1", [(0, 1), (2, 0), (1, 2)])
    def test_apply_cz(self, q0, q1):
        block = random_block(2, 3, seed=5)
        bsv = BatchedStateVector.from_arrays(block)
        bsv.apply_cz(q0, q1)
        for j, sv in enumerate(self.scalars(block)):
            sv.apply_cz(q0, q1)
            assert np.allclose(bsv.to_arrays()[j], sv.to_array(), atol=1e-12)

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_apply_1q_masked(self, q):
        block = random_block(5, 3, seed=9)
        bsv = BatchedStateVector.from_arrays(block)
        bsv.permute([2, 0, 1])  # strided register: updated in place anyway
        gate = rx(0.3) @ rz(0.8)
        mask = np.array([True, False, True, True, False])
        bsv.apply_1q_masked(gate, q, mask)
        for j, sv in enumerate(self.scalars(block)):
            sv._t = sv._t.transpose([2, 0, 1])
            if mask[j]:
                sv.apply_1q(gate, q)
            assert np.allclose(bsv.to_arrays()[j], sv.to_array(), atol=1e-12)

    def test_apply_1q_masked_rejects_bad_mask(self):
        bsv = BatchedStateVector.from_arrays(random_block(3, 2))
        with pytest.raises(ValueError):
            bsv.apply_1q_masked(HADAMARD, 0, np.ones(2, dtype=bool))

    @pytest.mark.parametrize("q", [0, 2])
    def test_apply_paulis(self, q):
        block = random_block(5, 3, seed=10)
        bsv = BatchedStateVector.from_arrays(block)
        faults = np.array([-1, 0, 1, 2, 1], dtype=np.int8)
        bsv.apply_paulis(q, faults)
        for j, sv in enumerate(self.scalars(block)):
            if faults[j] >= 0:
                sv.apply_1q((PAULI_X, PAULI_Y, PAULI_Z)[faults[j]], q)
            assert np.array_equal(bsv.to_arrays()[j], sv.to_array())

    def test_measure_forced_matches_scalar(self):
        block = random_block(4, 3, seed=6)
        basis = MeasurementBasis.xy(0.9)
        bsv = BatchedStateVector.from_arrays(block)
        probs = bsv.measure_forced(1, basis, 0)
        for j, sv in enumerate(self.scalars(block)):
            out, prob = sv.measure(1, basis, force=0, remove=True, renormalize=False)
            assert np.isclose(probs[j], prob, atol=1e-12)
            assert np.allclose(bsv.to_arrays()[j], sv.to_array(), atol=1e-12)

    def test_measure_forced_renormalize(self):
        block = random_block(3, 2, seed=7)
        bsv = BatchedStateVector.from_arrays(block)
        bsv.measure_forced(0, MeasurementBasis.xy(0.0), 1, renormalize=True)
        assert np.allclose(bsv.sq_norms(), 1.0, atol=1e-12)

    def test_measure_forced_zero_probability_raises(self):
        # Element 1 is |0>, so forcing Z-outcome 1 must raise for the batch.
        block = np.array([[1, 1], [np.sqrt(2), 0]]) / np.sqrt(2)
        bsv = BatchedStateVector.from_arrays(block.astype(complex))
        with pytest.raises(ZeroProbabilityBranch):
            bsv.measure_forced(0, MeasurementBasis.pauli("Z"), 1)

    def test_measure_zero_norm_raises(self):
        block = np.zeros((2, 2), dtype=complex)
        block[0, 0] = 1.0
        bsv = BatchedStateVector.from_arrays(block)
        with pytest.raises(ValueError, match="zero-norm"):
            bsv.measure_forced(0, MeasurementBasis.pauli("Z"), 0)

    def test_permute(self):
        order = [2, 0, 1]  # new qubit j carries old qubit order[j]
        block = random_block(2, 3, seed=8)
        bsv = BatchedStateVector.from_arrays(block)
        bsv.permute(order)
        got = bsv.to_arrays()
        for j in range(2):
            for y in range(8):
                bits = [(y >> i) & 1 for i in range(3)]
                x = [0, 0, 0]
                for new_q, old_q in enumerate(order):
                    x[old_q] = bits[new_q]
                old_index = x[0] | (x[1] << 1) | (x[2] << 2)
                assert np.isclose(got[j, y], block[j, old_index], atol=1e-12)

    def test_permute_rejects_non_permutation(self):
        bsv = BatchedStateVector(1, 2)
        with pytest.raises(ValueError):
            bsv.permute([0, 0])

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_norms_invariant_under_unitaries(self, b, seed):
        block = random_block(b, 2, seed=seed) * 0.7  # unnormalized on purpose
        bsv = BatchedStateVector.from_arrays(block)
        bsv.apply_1q(HADAMARD, 0)
        bsv.apply_cz(0, 1)
        assert np.allclose(bsv.sq_norms(), 0.49, atol=1e-12)


class TestMeasureSampled:
    """``measure_sampled`` (the trajectory sampler's kernel) == scalar
    replicas, element by element, on any register layout."""

    B = 6

    def prepared(self, seed, layout):
        """A 4-qubit batch and its scalar replicas after a 1q gate;
        ``layout`` leaves the batch register C-contiguous, a strided view,
        or permuted."""
        block = random_block(self.B, 4, seed=seed)
        bsv = BatchedStateVector.from_arrays(block)
        reps = [StateVector.from_array(row) for row in block]
        gate = rx(0.4) @ rz(1.1)
        bsv.apply_1q(gate, 2)
        for sv in reps:
            sv.apply_1q(gate, 2)
        if layout == "permuted":
            order = [3, 0, 2, 1]
            bsv.permute(order)
            for sv in reps:
                sv._t = sv._t.transpose(order)
        elif layout == "strided":  # every other row of a larger buffer
            buf = np.zeros((2 * self.B,) + bsv._t.shape[1:], dtype=complex)
            buf[::2] = bsv._t
            bsv._t = buf[::2]
        return bsv, reps

    def bases(self, seed):
        rng = np.random.default_rng(seed)
        return [MeasurementBasis.xy(float(a)) for a in rng.uniform(-np.pi, np.pi, self.B)]

    @staticmethod
    def block(bases):
        return np.stack([np.array([b.b0, b.b1]) for b in bases])

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "permuted"])
    @pytest.mark.parametrize("q", [0, 1, 3])
    def test_sampled_matches_scalar(self, layout, q):
        bsv, reps = self.prepared(20 + q, layout)
        if layout != "contiguous":
            assert not bsv._t.flags["C_CONTIGUOUS"]
        bases = self.bases(q)
        p0 = np.array([sv.measure_probability(q, b, 0) for sv, b in zip(reps, bases)])
        # The first seed whose draws exercise both branches.
        seed = next(
            s for s in range(100)
            if 0 < (np.random.default_rng(s).random(self.B) >= p0).sum() < self.B
        )
        u = np.random.default_rng(seed).random(self.B)
        outs, probs = bsv.measure_sampled(q, self.block(bases), rng=seed)
        assert np.array_equal(outs, (u >= p0).astype(np.int8))
        got = bsv.to_arrays()
        for j, (sv, b) in enumerate(zip(reps, bases)):
            _, prob = sv.measure(q, b, force=int(outs[j]))
            assert probs[j] == pytest.approx(prob, abs=1e-12)
            np.testing.assert_allclose(got[j], sv.to_array(), atol=1e-12)

    @pytest.mark.parametrize("out", [0, 1])
    def test_forced_matches_scalar(self, out):
        bsv, reps = self.prepared(30, "strided")
        bases = self.bases(7)
        outs, probs = bsv.measure_sampled(1, self.block(bases), force=out, renormalize=False)
        assert (outs == out).all()
        got = bsv.to_arrays()
        for j, (sv, b) in enumerate(zip(reps, bases)):
            _, prob = sv.measure(1, b, force=out, renormalize=False)
            assert probs[j] == pytest.approx(prob, abs=1e-12)
            np.testing.assert_allclose(got[j], sv.to_array(), atol=1e-12)

    def test_forced_zero_probability_raises(self):
        block = np.array([[1, 1], [np.sqrt(2), 0]]) / np.sqrt(2)
        bsv = BatchedStateVector.from_arrays(block.astype(complex))
        z = MeasurementBasis.pauli("Z")
        with pytest.raises(ZeroProbabilityBranch):
            bsv.measure_sampled(0, self.block([z, z]), force=1)

    def test_last_qubit(self):
        block = random_block(3, 1, seed=5)
        bsv = BatchedStateVector.from_arrays(block)
        x = MeasurementBasis.pauli("X")
        bsv.measure_sampled(0, self.block([x] * 3), rng=1)
        assert bsv.num_qubits == 0
        np.testing.assert_allclose(np.abs(bsv.to_arrays()), 1.0, atol=1e-12)
