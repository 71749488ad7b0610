"""Kernel tests for :class:`repro.sim.mps.BatchedMPSState`.

Every stacked op must act on each element exactly as the scalar
:class:`MPSState` does on its own chain: the MPS engine's one execution
path runs on the stacked state, so its correctness reduces to this
element-by-element equivalence.  Each test drives ``B`` scalar replicas
through the same ops (per-element matrices, bases, draws, masks and
faults where the op takes them) and compares amplitudes, outcomes,
probabilities and per-element truncation errors.
"""

import numpy as np
import pytest

from repro.linalg.gates import PAULI_X, PAULI_Y, PAULI_Z
from repro.sim import MeasurementBasis, MPSState, ZeroProbabilityBranch
from repro.sim.mps import BatchedMPSState
from repro.sim.statevector import KET_0, KET_PLUS

PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def random_unitaries(rng, b):
    m = rng.normal(size=(b, 2, 2)) + 1j * rng.normal(size=(b, 2, 2))
    q, r = np.linalg.qr(m)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def random_bases(rng, b):
    return np.stack([
        np.array([bs.b0, bs.b1], dtype=complex)
        for bs in (MeasurementBasis.xy(float(a)) for a in rng.uniform(-np.pi, np.pi, b))
    ])


class Pair:
    """A stacked state and its ``B`` scalar replicas, driven in step."""

    def __init__(self, b, chi_max=None, cutoff=1e-12):
        self.st = BatchedMPSState.stack(
            [MPSState(chi_max=chi_max, cutoff=cutoff) for _ in range(b)]
        )
        self.reps = [MPSState(chi_max=chi_max, cutoff=cutoff) for _ in range(b)]

    def add(self, state=KET_PLUS):
        self.st.add_qubit(state)
        for r in self.reps:
            r.add_qubit(state)

    def u1(self, mats, slot):
        self.st.apply_1q(mats, slot)
        for r, m in zip(self.reps, mats):
            r.apply_1q(m, slot)

    def cz(self, s0, s1):
        self.st.apply_cz(s0, s1)
        for r in self.reps:
            r.apply_cz(s0, s1)

    def check(self, atol=1e-10):
        outs = self.st.unstack()
        assert len(outs) == len(self.reps)
        for out, r in zip(outs, self.reps):
            np.testing.assert_allclose(out.to_array(), r.to_array(), atol=atol)
            assert out._slot_at == r._slot_at  # the same route ...
            assert out.bond_dims() == r.bond_dims()  # ... and truncations
            assert out.truncation_error == pytest.approx(
                r.truncation_error, rel=1e-9, abs=1e-15
            )


def grown(b, n, seed, **kw):
    """``n`` qubits, each given a distinct random unitary per element."""
    rng = np.random.default_rng(seed)
    pair = Pair(b, **kw)
    for q in range(n):
        pair.add()
        pair.u1(random_unitaries(rng, b), q)
    return pair, rng


class TestRegisterOps:
    def test_prep_and_1q(self):
        pair, rng = grown(4, 3, seed=0)
        pair.check()
        assert len(pair.st._groups) == 1
        assert all(out.bond_dims() == (1, 1) for out in pair.st.unstack())

    def test_stack_groups_unequal_bonds(self):
        """Rows of different Schmidt rank stack into one group per bond
        profile and unstack, in order, to the same chains."""
        rng = np.random.default_rng(1)
        rows = [np.kron(np.kron(KET_PLUS, KET_0), KET_PLUS)]
        rows += [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(2)]
        chains = [MPSState.from_dense_row(r) for r in rows]
        st = BatchedMPSState.stack(chains)
        assert [rows.tolist() for rows, _ in st._groups] == [[0], [1, 2]]
        for out, c in zip(st.unstack(), chains):
            assert out.bond_dims() == c.bond_dims()
            np.testing.assert_allclose(out.to_array(), c.to_array(), atol=1e-12)

    def test_stack_refuses_mismatched_layouts(self):
        a, b = MPSState(), MPSState()
        a.add_qubit(KET_PLUS)
        with pytest.raises(ValueError):
            BatchedMPSState.stack([a, b])

    def test_permute_is_bookkeeping(self):
        pair, _ = grown(3, 4, seed=2)
        pair.cz(0, 1)
        pair.st.permute([2, 0, 3, 1])
        for r in pair.reps:
            r.permute([2, 0, 3, 1])
        pair.check()


class TestEntangle:
    def test_cz_adjacent(self):
        pair, _ = grown(3, 2, seed=3)
        pair.cz(0, 1)
        pair.check()

    def test_cz_product_relocation(self):
        """A still-product operand moves next to its partner for free."""
        pair, _ = grown(3, 4, seed=4)
        pair.cz(0, 1)
        pair.cz(0, 3)  # slot 3 is a product site: relocated
        pair.check()
        assert (pair.st.truncation_error == 0.0).all()

    def test_cz_swap_walk(self):
        """Both operands entangled: the smaller is walked over by SWAPs."""
        pair, rng = grown(4, 5, seed=5)
        pair.cz(0, 1)
        pair.cz(3, 4)
        pair.u1(random_unitaries(rng, 4), 1)
        pair.cz(0, 4)
        pair.check()

    def test_mixed_ranks_split_the_group(self):
        """Element 0 stays a product (|0> control), element 1 entangles:
        the split leaves one group per rank, and each element then routes
        as its own scalar chain does (element 0 relocates a product site
        where element 1 walks SWAPs)."""
        pair = Pair(2)
        for _ in range(4):
            pair.add()
        flip = np.stack([np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2)])
        pair.u1(flip.astype(complex), 0)  # element 0: |+> -> |0>
        pair.cz(0, 1)
        assert pair.reps[0].max_bond == 1 and pair.reps[1].max_bond == 2
        assert [rows.tolist() for rows, _ in pair.st._groups] == [[0], [1]]
        pair.cz(2, 3)
        pair.cz(1, 3)
        pair.cz(0, 2)
        pair.check()

    def test_tight_chi_truncates_per_element(self):
        """chi_max=2 on a random 6-qubit circuit: every element truncates
        its own spectrum and accumulates its own discarded weight."""
        pair, rng = grown(5, 6, seed=6, chi_max=2)
        for s0, s1 in [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4), (0, 5), (1, 4)]:
            pair.cz(s0, s1)
            pair.u1(random_unitaries(rng, 5), s0)
            pair.u1(random_unitaries(rng, 5), s1)
        errs = pair.st.truncation_error
        assert errs.shape == (5,) and (errs > 1e-6).all()
        assert len(set(np.round(errs, 12))) == 5  # genuinely per element
        pair.check(atol=1e-9)

    def test_cutoff_masks_per_element(self):
        """chi_max=1 with element 0 unentangled: only element 1 pays."""
        pair = Pair(2, chi_max=1)
        pair.add()
        pair.add()
        flip = np.stack([np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2)])
        pair.u1(flip.astype(complex), 0)
        pair.cz(0, 1)
        err = pair.st.truncation_error
        assert err[0] < 1e-20 and err[1] == pytest.approx(0.5)
        pair.check()

    def test_cutoff_is_relative_to_each_spectrum(self):
        """cutoff=0.3: element 0's Schmidt ratio tan(0.1) is cut, element
        1's ratio 1 is kept — a batch-wide keep count would keep both."""
        pair = Pair(2, cutoff=0.3)
        pair.add()
        pair.add()
        ry = [np.array([[np.cos(a / 2), -np.sin(a / 2)], [np.sin(a / 2), np.cos(a / 2)]])
              for a in (0.2, np.pi / 2)]
        pair.u1(np.stack(ry).astype(complex) @ np.array([[1, 1], [1, -1]]) / np.sqrt(2), 0)
        pair.cz(0, 1)
        err = pair.st.truncation_error
        assert err[0] == pytest.approx(np.sin(0.1) ** 2) and err[1] < 1e-20
        pair.check()


class TestMeasure:
    def test_sampled_per_element_bases(self):
        pair, rng = grown(6, 4, seed=7)
        pair.cz(0, 1)
        pair.cz(1, 2)
        pair.cz(2, 3)
        for slot in (1, 0, 1, 0):
            vecs = random_bases(rng, 6)
            u = rng.random(6)
            outs, probs = pair.st.measure(slot, vecs, u=u)
            for j, r in enumerate(pair.reps):
                o, p = r.measure(slot, vecs[j], u=float(u[j]))
                assert outs[j] == o
                assert probs[j] == pytest.approx(p, abs=1e-12)
            if pair.st.num_qubits:
                pair.check()
        # The last measurement leaves the zero-qubit amplitude.
        for out, r in zip(pair.st.unstack(), pair.reps):
            assert abs(out.to_array()[0]) == pytest.approx(1.0)
            assert out.to_array()[0] == pytest.approx(r.to_array()[0])

    def test_both_outcomes_drawn(self):
        """u = 0 forces outcome 0, u ~ 1 outcome 1: rows that drew 1 are
        rebuilt on the other branch."""
        pair, rng = grown(4, 3, seed=8)
        pair.cz(0, 2)
        vecs = random_bases(rng, 4)
        u = np.array([0.0, 1.0 - 1e-16, 0.0, 1.0 - 1e-16])
        outs, _ = pair.st.measure(1, vecs, u=u)
        assert list(outs) == [0, 1, 0, 1]
        for j, r in enumerate(pair.reps):
            r.measure(1, vecs[j], u=float(u[j]))
        pair.check()

    @pytest.mark.parametrize("out", [0, 1])
    def test_forced(self, out):
        pair, rng = grown(3, 3, seed=9)
        pair.cz(0, 1)
        pair.cz(1, 2)
        vecs = random_bases(rng, 3)
        outs, probs = pair.st.measure(0, vecs, force=out)
        assert (outs == out).all()
        for j, r in enumerate(pair.reps):
            _, p = r.measure(0, vecs[j], force=out)
            assert probs[j] == pytest.approx(p, abs=1e-12)
        pair.check()

    def test_forced_zero_probability_raises(self):
        st = BatchedMPSState.stack([MPSState(), MPSState()])
        st.add_qubit(KET_0)
        z = np.array([[1, 0], [0, 1]], dtype=complex)
        with pytest.raises(ZeroProbabilityBranch):
            st.measure(0, np.stack([z, z]), force=1)

    def test_needs_u_or_force(self):
        st = BatchedMPSState.stack([MPSState()])
        st.add_qubit(KET_PLUS)
        with pytest.raises(ValueError):
            st.measure(0, np.eye(2, dtype=complex)[None])


class TestPerElementOps:
    def test_masked_1q(self):
        pair, rng = grown(6, 3, seed=10)
        pair.cz(0, 1)
        mat = random_unitaries(rng, 1)[0]
        mask = np.array([True, False, True, True, False, False])
        pair.st.apply_1q_masked(mat, 1, mask)
        for r, m in zip(pair.reps, mask):
            if m:
                r.apply_1q(mat, 1)
        pair.check()

    def test_masked_1q_all_and_none(self):
        pair, rng = grown(3, 2, seed=11)
        mat = random_unitaries(rng, 1)[0]
        pair.st.apply_1q_masked(mat, 0, np.zeros(3, dtype=bool))
        pair.st.apply_1q_masked(mat, 1, np.ones(3, dtype=bool))
        for r in pair.reps:
            r.apply_1q(mat, 1)
        pair.check()

    def test_pauli_faults(self):
        pair, rng = grown(5, 3, seed=12)
        pair.cz(1, 2)
        faults = np.array([-1, 0, 1, 2, -1], dtype=np.int8)
        pair.st.apply_paulis(2, faults)
        for r, f in zip(pair.reps, faults):
            if f >= 0:
                r.apply_1q(PAULIS[f], 2)
        pair.check()
