"""Dense statevector simulator with dynamic qubit allocation.

The state is stored as an ndarray of shape ``(2,)*n`` with tensor axis ``i``
holding qubit slot ``i``.  Gate application uses ``tensordot`` on views
(never materializing full ``2^n x 2^n`` operators), per the vectorization
guidance for hot numerical paths.  Measurements can *remove* the measured
qubit by contracting its axis with the conjugated basis vector, which is what
keeps MBQC pattern simulation at max-live-qubit memory cost.

Flattening convention is little-endian: :meth:`StateVector.to_array` returns
amplitudes indexed by ``x = sum_i x_i 2**i``.

:class:`BatchedStateVector` is the vectorized sibling used by the batched
pattern-execution engine (:mod:`repro.mbqc.backend`): it carries ``B``
independent pure states in one ``(B, 2, ..., 2)`` tensor with the batch on
axis 0 and qubit slot ``i`` on tensor axis ``i + 1``.  Every operation is a
single ``tensordot``/view sweep over the whole batch, so simulating all
``2^k`` input columns of a pattern costs one pass instead of ``2^k``
sequential re-runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.linalg.gates import PAULI_X, PAULI_Y, PAULI_Z
from repro.linalg.gates import rx as _rx, ry as _ry, rz as _rz
from repro.utils.rng import SeedLike, ensure_rng

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True)
class MeasurementBasis:
    """An orthonormal single-qubit measurement basis ``{b0, b1}``.

    Outcome ``m`` corresponds to projecting onto ``b_m``.  Constructors for
    the three measurement planes used in MBQC follow DESIGN.md:

    - ``xy(t)``: ``{RZ(t)|+>, RZ(t)|->}`` — X measurement rotated about Z,
    - ``yz(t)``: ``{RX(t)|0>, RX(t)|1>}`` — Z measurement rotated about X,
    - ``xz(t)``: ``{RY(t)|0>, RY(t)|1>}`` — Z measurement rotated about Y.

    ``xy(0)`` is the X basis, ``yz(0)`` and ``xz(0)`` the Z basis, and
    ``xy(pi/2)`` the Y basis.
    """

    b0: Tuple[complex, complex]
    b1: Tuple[complex, complex]

    @staticmethod
    def from_vectors(b0: np.ndarray, b1: np.ndarray) -> "MeasurementBasis":
        b0 = np.asarray(b0, dtype=complex)
        b1 = np.asarray(b1, dtype=complex)
        if not np.isclose(np.linalg.norm(b0), 1) or not np.isclose(np.linalg.norm(b1), 1):
            raise ValueError("basis vectors must be normalized")
        if not np.isclose(np.vdot(b0, b1), 0):
            raise ValueError("basis vectors must be orthogonal")
        return MeasurementBasis(tuple(b0), tuple(b1))

    @staticmethod
    def xy(angle: float) -> "MeasurementBasis":
        return MeasurementBasis.from_vectors(_rz(angle) @ KET_PLUS, _rz(angle) @ KET_MINUS)

    @staticmethod
    def yz(angle: float) -> "MeasurementBasis":
        return MeasurementBasis.from_vectors(_rx(angle) @ KET_0, _rx(angle) @ KET_1)

    @staticmethod
    def xz(angle: float) -> "MeasurementBasis":
        return MeasurementBasis.from_vectors(_ry(angle) @ KET_0, _ry(angle) @ KET_1)

    @staticmethod
    def pauli(label: str) -> "MeasurementBasis":
        if label == "Z":
            return MeasurementBasis.from_vectors(KET_0, KET_1)
        if label == "X":
            return MeasurementBasis.from_vectors(KET_PLUS, KET_MINUS)
        if label == "Y":
            return MeasurementBasis.from_vectors(
                np.array([1, 1j], dtype=complex) / np.sqrt(2),
                np.array([1, -1j], dtype=complex) / np.sqrt(2),
            )
        raise ValueError(f"unknown Pauli basis {label!r}")

    def vectors(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.array(self.b0, dtype=complex), np.array(self.b1, dtype=complex)


class StateVector:
    """Mutable dense n-qubit pure state with dynamic register size."""

    def __init__(self, num_qubits: int = 0, tensor: Optional[np.ndarray] = None):
        if tensor is not None:
            tensor = np.asarray(tensor, dtype=complex)
            n = tensor.ndim if tensor.shape != (1,) else 0
            if tensor.shape not in [(2,) * n, (1,)]:
                raise ValueError("tensor must have shape (2,)*n")
            self._t = tensor
        else:
            if num_qubits < 0:
                raise ValueError("num_qubits must be non-negative")
            t = np.zeros((2,) * num_qubits if num_qubits else (1,), dtype=complex)
            t.flat[0] = 1.0
            self._t = t

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zeros(n: int) -> "StateVector":
        """``|0...0>`` on ``n`` qubits."""
        return StateVector(n)

    @staticmethod
    def plus(n: int) -> "StateVector":
        """``|+>^n`` — the QAOA initial state."""
        sv = StateVector(0)
        for _ in range(n):
            sv.add_qubit(KET_PLUS)
        return sv

    @staticmethod
    def from_array(vec: np.ndarray) -> "StateVector":
        """Build from a little-endian flat amplitude vector of length 2**n."""
        vec = np.asarray(vec, dtype=complex)
        if vec.size == 0:
            raise ValueError("amplitude vector must be non-empty")
        n = int(np.round(np.log2(vec.size)))
        if vec.size != 1 << n:
            raise ValueError("length must be a power of two")
        if n == 0:
            return StateVector(tensor=vec.reshape((1,)))
        # Little-endian flat index has qubit 0 in the lowest bit; C-order
        # reshape puts the first axis at the highest bit, so reverse axes.
        t = vec.reshape((2,) * n).transpose(tuple(reversed(range(n))))
        return StateVector(tensor=t.copy())

    # -- basic properties --------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return 0 if self._t.shape == (1,) else self._t.ndim

    def norm(self) -> float:
        return float(np.linalg.norm(self._t))

    def normalize(self) -> "StateVector":
        n = self.norm()
        if n < 1e-300:
            raise ValueError("cannot normalize zero state")
        self._t /= n
        return self

    def to_array(self) -> np.ndarray:
        """Little-endian flat amplitude vector (copy)."""
        n = self.num_qubits
        if n == 0:
            return self._t.copy()
        return self._t.transpose(tuple(reversed(range(n)))).reshape(-1).copy()

    def copy(self) -> "StateVector":
        return StateVector(tensor=self._t.copy())

    def probabilities(self) -> np.ndarray:
        """Little-endian probability vector."""
        a = self.to_array()
        return (a.conj() * a).real

    # -- register management ----------------------------------------------
    def add_qubit(self, state: np.ndarray = KET_PLUS) -> int:
        """Append a fresh qubit in single-qubit ``state``; returns its slot."""
        state = np.asarray(state, dtype=complex)
        if state.shape != (2,):
            raise ValueError("single-qubit state must have shape (2,)")
        if self.num_qubits == 0:
            self._t = self._t.flat[0] * state
            # A 1-qubit tensor already has the right shape.
            if self._t.shape != (2,):
                self._t = self._t.reshape((2,))
            return 0
        self._t = np.multiply.outer(self._t, state)
        return self.num_qubits - 1

    def _check(self, *qubits: int) -> None:
        n = self.num_qubits
        for q in qubits:
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range for {n}-qubit state")
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit indices")

    # -- unitaries ---------------------------------------------------------
    def apply_1q(self, matrix: np.ndarray, q: int) -> None:
        """Apply a 2x2 unitary to qubit ``q`` in place."""
        self._check(q)
        t = np.tensordot(matrix, self._t, axes=([1], [q]))
        self._t = np.moveaxis(t, 0, q)

    def apply_2q(self, matrix: np.ndarray, q0: int, q1: int) -> None:
        """Apply a 4x4 unitary (little-endian on (q0, q1)) in place."""
        self._check(q0, q1)
        # Little-endian 4-dim index is x_q0 + 2 x_q1 -> reshape axes (q1,q0).
        op = np.asarray(matrix, dtype=complex).reshape(2, 2, 2, 2)
        t = np.tensordot(op, self._t, axes=([2, 3], [q1, q0]))
        self._t = np.moveaxis(t, [0, 1], [q1, q0])

    def apply_kq(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a ``2^k x 2^k`` unitary on ``qubits`` (little-endian)."""
        k = len(qubits)
        self._check(*qubits)
        if matrix.shape != (1 << k, 1 << k):
            raise ValueError("operator size does not match qubit count")
        axes = list(reversed(qubits))  # high bit first for C-order reshape
        op = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))
        t = np.tensordot(op, self._t, axes=(list(range(k, 2 * k)), axes))
        self._t = np.moveaxis(t, list(range(k)), axes)

    def apply_cz(self, q0: int, q1: int) -> None:
        """Controlled-Z via sign flip on the ``|11>`` slice (no tensordot)."""
        self._check(q0, q1)
        idx = [slice(None)] * self.num_qubits
        idx[q0] = 1
        idx[q1] = 1
        self._t[tuple(idx)] *= -1.0

    def apply_diagonal(self, diag: np.ndarray) -> None:
        """Multiply by a full-register diagonal given little-endian."""
        n = self.num_qubits
        if diag.shape != (1 << n,):
            raise ValueError("diagonal length mismatch")
        d = diag.reshape((2,) * n).transpose(tuple(reversed(range(n)))) if n else diag
        self._t = self._t * d

    # -- measurement -------------------------------------------------------
    def measure_probability(self, q: int, basis: MeasurementBasis, outcome: int) -> float:
        """Probability of ``outcome`` when measuring ``q`` in ``basis``.

        The result is normalized by the state's total norm, matching
        :meth:`measure` — on an unnormalized state (e.g. the
        ``renormalize=False`` branch-extraction path) the probabilities of
        the two outcomes still sum to one.
        """
        self._check(q)
        total = float(np.vdot(self._t, self._t).real)
        if total < 1e-300:
            raise ValueError("cannot measure a zero-norm state")
        b = basis.vectors()[outcome]
        amp = np.tensordot(b.conj(), self._t, axes=([0], [q]))
        return float(np.vdot(amp, amp).real) / total

    def measure(
        self,
        q: int,
        basis: MeasurementBasis,
        rng: SeedLike = None,
        force: Optional[int] = None,
        remove: bool = True,
        renormalize: bool = True,
    ) -> Tuple[int, float]:
        """Measure qubit ``q``; returns ``(outcome, probability)``.

        ``force`` pins the outcome (used for branch enumeration); forcing a
        zero-probability branch raises.  With ``remove=True`` the measured
        qubit is deleted from the register (slots above shift down by one);
        with ``remove=False`` it collapses in place to the basis vector.
        """
        self._check(q)
        b0, b1 = basis.vectors()
        amp0 = np.tensordot(b0.conj(), self._t, axes=([0], [q]))
        p0 = float(np.vdot(amp0, amp0).real)
        total = float(np.vdot(self._t, self._t).real)
        if total < 1e-300:
            raise ValueError("cannot measure a zero-norm state")
        p0 /= total

        if force is None:
            outcome = 0 if ensure_rng(rng).random() < p0 else 1
        else:
            if force not in (0, 1):
                raise ValueError("forced outcome must be 0 or 1")
            outcome = force
        prob = p0 if outcome == 0 else 1.0 - p0
        if force is not None and prob < 1e-12:
            raise ZeroProbabilityBranch(
                f"forced outcome {force} on qubit {q} has probability ~0"
            )

        if outcome == 0:
            reduced = amp0
        else:
            reduced = np.tensordot(b1.conj(), self._t, axes=([0], [q]))

        if remove:
            self._t = reduced if reduced.shape else reduced.reshape((1,))
            if self.num_qubits == 0 and self._t.shape != (1,):
                self._t = self._t.reshape((1,))
        else:
            vec = basis.vectors()[outcome]
            t = np.multiply.outer(reduced, vec)
            self._t = np.moveaxis(t, -1, q)
        if renormalize:
            self.normalize()
        return outcome, prob

    def measure_pauli(
        self, q: int, label: str, rng: SeedLike = None,
        force: Optional[int] = None, remove: bool = False,
    ) -> Tuple[int, float]:
        """Convenience projective Pauli measurement (collapse in place)."""
        return self.measure(q, MeasurementBasis.pauli(label), rng=rng, force=force, remove=remove)

    # -- derived quantities --------------------------------------------------
    def expectation_diagonal(self, diag: np.ndarray) -> float:
        """``<psi| D |psi>`` for a real little-endian diagonal ``D``."""
        p = self.probabilities()
        if diag.shape != p.shape:
            raise ValueError("diagonal length mismatch")
        return float(np.dot(p, diag))

    def sample(self, shots: int, rng: SeedLike = None) -> np.ndarray:
        """Sample computational-basis outcomes; returns ``shots`` ints."""
        p = self.probabilities()
        p = p / p.sum()
        return ensure_rng(rng).choice(p.size, size=shots, p=p)

    def fidelity(self, other: "StateVector") -> float:
        """``|<self|other>|^2`` for normalized states."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit-count mismatch")
        a = self.to_array()
        b = other.to_array()
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        return float(abs(np.vdot(a, b)) ** 2 / (na * nb) ** 2)


class ZeroProbabilityBranch(ValueError):
    """Raised when branch enumeration forces an impossible outcome."""


class BatchedStateVector:
    """``B`` independent pure states evolved in lockstep.

    The tensor has shape ``(B, 2, ..., 2)``: batch on axis 0, qubit slot
    ``i`` on axis ``i + 1``.  All batch elements share the same register
    layout and undergo the same operations; amplitudes (and norms) evolve
    independently per element.  This is the execution substrate for
    forced-branch pattern runs where the ``2^k`` input basis columns of
    :func:`repro.mbqc.runner.pattern_to_matrix` ride one batch.

    Measurements remove the measured slot from every element at once, so
    the register layout stays in lockstep: :meth:`measure_forced` pins one
    outcome for the whole batch (branch runs), :meth:`measure_sampled`
    draws per element in per-element bases (trajectory sampling).  Both
    work on a ``(B, L, 2, R)`` view of the register and write the reduced
    register as one new C-contiguous block.
    """

    def __init__(self, batch_size: int, num_qubits: int = 0, tensor: Optional[np.ndarray] = None):
        if tensor is not None:
            tensor = np.asarray(tensor, dtype=complex)
            if tensor.ndim < 1 or tensor.shape[1:] != (2,) * (tensor.ndim - 1):
                raise ValueError("tensor must have shape (B,) + (2,)*n")
            self._t = tensor
        else:
            if batch_size < 1:
                raise ValueError("batch_size must be positive")
            if num_qubits < 0:
                raise ValueError("num_qubits must be non-negative")
            t = np.zeros((batch_size,) + (2,) * num_qubits, dtype=complex)
            t.reshape(batch_size, -1)[:, 0] = 1.0
            self._t = t

    @staticmethod
    def from_arrays(mat: np.ndarray) -> "BatchedStateVector":
        """Build from a ``(B, 2**n)`` block of little-endian amplitude rows."""
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError("need a 2-D (B, 2**n) amplitude block")
        b, m = mat.shape
        n = int(np.round(np.log2(m)))
        if m != 1 << n:
            raise ValueError("row length must be a power of two")
        if n == 0:
            return BatchedStateVector(b, tensor=mat.reshape(b).copy())
        t = mat.reshape((b,) + (2,) * n)
        t = t.transpose((0,) + tuple(reversed(range(1, n + 1))))
        return BatchedStateVector(b, tensor=t.copy())

    # -- basic properties --------------------------------------------------
    @property
    def batch_size(self) -> int:
        return self._t.shape[0]

    @property
    def num_qubits(self) -> int:
        return self._t.ndim - 1

    def _check(self, *qubits: int) -> None:
        n = self.num_qubits
        for q in qubits:
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range for {n}-qubit batch")
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit indices")

    def sq_norms(self) -> np.ndarray:
        """Per-element squared norms, shape ``(B,)``."""
        return _row_sq_norms(self._t)

    def to_arrays(self) -> np.ndarray:
        """``(B, 2**n)`` little-endian amplitude block (copy)."""
        b, n = self.batch_size, self.num_qubits
        if n == 0:
            return self._t.reshape(b, 1).copy()
        t = self._t.transpose((0,) + tuple(reversed(range(1, n + 1))))
        return t.reshape(b, -1).copy()

    def copy(self) -> "BatchedStateVector":
        return BatchedStateVector(self.batch_size, tensor=self._t.copy())

    def renormalize(self) -> None:
        """Scale every batch element back to unit norm.

        Long measurement sweeps that defer per-step normalization (each
        projection multiplies an element's norm² by its outcome
        probability) call this periodically so norms never underflow.
        """
        norms = np.sqrt(self.sq_norms())
        if np.any(norms < 1e-300):
            raise ValueError("cannot renormalize a zero-norm state")
        self._t /= norms.reshape((-1,) + (1,) * self.num_qubits)

    # -- register management ----------------------------------------------
    def add_qubit(self, state: np.ndarray = KET_PLUS) -> int:
        """Append a fresh qubit in ``state`` to every element; returns its slot."""
        state = np.asarray(state, dtype=complex)
        if state.shape != (2,):
            raise ValueError("single-qubit state must have shape (2,)")
        # Two long strided multiplies, not an outer product whose inner
        # loop runs over the new length-2 axis.
        out = np.empty(self._t.shape + (2,), dtype=complex)
        np.multiply(self._t, state[0], out=out[..., 0])
        np.multiply(self._t, state[1], out=out[..., 1])
        self._t = out
        return self.num_qubits - 1

    def permute(self, order: Sequence[int]) -> None:
        """Reorder slots so new qubit ``j`` is old slot ``order[j]``."""
        n = self.num_qubits
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of all slots")
        self._t = self._t.transpose((0,) + tuple(s + 1 for s in order))

    # -- unitaries ---------------------------------------------------------
    def apply_1q(self, matrix: np.ndarray, q: int) -> None:
        """Apply one 2x2 unitary to qubit ``q`` of every batch element."""
        self._check(q)
        t = self._split(q)
        out = np.empty_like(t)
        m = np.asarray(matrix, dtype=complex)
        out[:, :, 0], out[:, :, 1] = _mix(t[:, :, 0], t[:, :, 1], m)
        self._t = out.reshape(self._t.shape)

    def apply_1q_masked(self, matrix: np.ndarray, q: int, mask: np.ndarray) -> None:
        """Apply a 2x2 unitary to qubit ``q`` of the masked batch elements.

        ``mask`` is a boolean ``(B,)`` selector.  This is the primitive
        behind per-element conditional corrections in the batched
        trajectory sampler: element ``j`` is touched iff ``mask[j]``.
        """
        self._check(q)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.batch_size,):
            raise ValueError("mask must have shape (batch_size,)")
        rows = np.flatnonzero(mask)
        if rows.size == self.batch_size:
            self.apply_1q(matrix, q)
        elif rows.size:
            self._apply_rows(q, rows, np.asarray(matrix, dtype=complex))

    def apply_paulis(self, q: int, faults: np.ndarray) -> None:
        """Per-element Pauli faults on qubit ``q``: ``faults[j]`` is ``-1``
        (none) or ``0``/``1``/``2`` for X/Y/Z — one kernel call for the
        faulted rows, whatever Paulis they drew."""
        self._check(q)
        rows = np.flatnonzero(faults >= 0)
        if rows.size:
            mats = IPAULIS[faults[rows].astype(np.intp) + 1]
            self._apply_rows(q, rows, mats[:, None, None])

    def _apply_rows(self, q: int, rows: np.ndarray, matrix: np.ndarray) -> None:
        """Map qubit ``q`` of batch rows ``rows`` in place by one 2x2
        ``matrix``, or per row by a ``(k, 1, 1, 2, 2)`` stack."""
        self._t = np.ascontiguousarray(self._t)
        t = self._split(q)  # a view of the register now
        sel = t[rows]
        t[rows, :, 0], t[rows, :, 1] = _mix(sel[:, :, 0], sel[:, :, 1], matrix)

    def apply_cz(self, q0: int, q1: int) -> None:
        """Batched controlled-Z via sign flip on the ``|11>`` slice."""
        self._check(q0, q1)
        idx = [slice(None)] * (self.num_qubits + 1)
        idx[q0 + 1] = 1
        idx[q1 + 1] = 1
        self._t[tuple(idx)] *= -1.0

    # -- measurement -------------------------------------------------------
    def _split(self, q: int) -> np.ndarray:
        """The register as a ``(B, L, 2, R)`` view: slots below ``q`` on
        ``L``, slot ``q`` on the middle axis, slots above on ``R`` (a copy
        only when the register is not C-contiguous)."""
        return self._t.reshape(self.batch_size, 1 << q, 2, -1)

    def measure_forced(
        self,
        q: int,
        basis: MeasurementBasis,
        outcome: int,
        renormalize: bool = False,
    ) -> np.ndarray:
        """Project every element onto ``basis[outcome]`` of qubit ``q``.

        The measured qubit is removed (slots above shift down, matching
        :meth:`StateVector.measure` with ``remove=True``).  Returns the
        per-element outcome probabilities; any element with ~zero branch
        probability raises :class:`ZeroProbabilityBranch`, mirroring the
        sequential forced-measurement semantics element-for-element.
        """
        self._check(q)
        if outcome not in (0, 1):
            raise ValueError("forced outcome must be 0 or 1")
        t = self._split(q)
        totals = _row_sq_norms(t)
        if (totals < 1e-300).any():
            raise ValueError("cannot measure a zero-norm state")
        c0, c1 = (basis.b0, basis.b1)[outcome]
        amp = t[:, :, 0] * np.conj(c0)
        amp += t[:, :, 1] * np.conj(c1)
        probs = _row_sq_norms(amp) / totals
        if (probs < 1e-12).any():
            bad = int(np.argmin(probs))
            raise ZeroProbabilityBranch(
                f"forced outcome {outcome} on qubit {q} has probability ~0 "
                f"for batch element {bad}"
            )
        self._t = amp.reshape((self.batch_size,) + (2,) * (self.num_qubits - 1))
        if renormalize:
            norms = np.sqrt(self.sq_norms())
            self._t /= norms.reshape((-1,) + (1,) * self.num_qubits)
        return probs

    def measure_sampled(
        self,
        q: int,
        vecs: np.ndarray,
        rng: SeedLike = None,
        force: Optional[int] = None,
        renormalize: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-element adaptive measurement of qubit ``q`` (removing it).

        ``vecs`` is a ``(B, 2, 2)`` block: ``vecs[j, m]`` is the basis
        vector element ``j`` projects onto for outcome ``m`` — each batch
        element can measure in its *own* basis, which is what lets the
        trajectory sampler keep elements with different signal parities in
        one lockstep sweep.  Outcomes are drawn per element from the Born
        rule (or pinned for every element with ``force``); returns
        ``(outcomes, probabilities)`` as ``(B,)`` arrays.  The outcome-0
        amplitudes are formed once, norms are real dot products over the
        float view, and after the draw only the rows that drew 1 are
        rebuilt on their other branch.
        """
        self._check(q)
        b = self.batch_size
        vecs = np.asarray(vecs, dtype=complex)
        if vecs.shape != (b, 2, 2):
            raise ValueError("vecs must have shape (batch_size, 2, 2)")
        t = self._split(q)
        x0, x1 = t[:, :, 0], t[:, :, 1]
        c = vecs.conj()[:, None, None]  # (B, 1, 1, m, i)
        amp = x0 * c[..., 0, 0]
        amp += x1 * c[..., 0, 1]
        total = _row_sq_norms(t)
        if np.any(total < 1e-300):
            raise ValueError("cannot measure a zero-norm state")
        p0 = _row_sq_norms(amp) / total
        if force is None:
            outcomes = (ensure_rng(rng).random(b) >= p0).astype(np.int8)
        else:
            if force not in (0, 1):
                raise ValueError("forced outcome must be 0 or 1")
            outcomes = np.full(b, force, dtype=np.int8)
        probs = np.where(outcomes == 0, p0, 1.0 - p0)
        if force is not None and np.any(probs < 1e-12):
            bad = int(np.argmin(probs))
            raise ZeroProbabilityBranch(
                f"forced outcome {force} on qubit {q} has probability ~0 "
                f"for batch element {bad}"
            )
        # Only the rows that drew 1 are rebuilt on the other branch.
        ones = np.flatnonzero(outcomes)
        if ones.size:
            c1 = c[ones]
            amp1 = x0[ones] * c1[..., 1, 0]
            amp1 += x1[ones] * c1[..., 1, 1]
            amp[ones] = amp1
        self._t = amp.reshape((b,) + (2,) * (self.num_qubits - 1))
        if renormalize:
            norms = np.sqrt(self.sq_norms())
            self._t /= norms.reshape((-1,) + (1,) * self.num_qubits)
        return outcomes, probs


#: ``[I, X, Y, Z]``, gathered by ``fault + 1`` (fault ``-1`` = none).
IPAULIS = np.stack([np.eye(2), PAULI_X, PAULI_Y, PAULI_Z]).astype(complex)


def _mix(x0: np.ndarray, x1: np.ndarray, m: np.ndarray):
    """The two output halves ``m @ (x0, x1)`` of a 2x2 map on one slot's
    ``(B, L, R)`` halves: ``m`` is one ``(2, 2)`` matrix or a per-row
    ``(B, 1, 1, 2, 2)`` stack."""
    return (
        x0 * m[..., 0, 0] + x1 * m[..., 0, 1],
        x0 * m[..., 1, 0] + x1 * m[..., 1, 1],
    )


def _row_sq_norms(t: np.ndarray) -> np.ndarray:
    """Per-row squared norms of a complex block, as real dot products over
    its float view (a copy only when ``t`` is not C-contiguous)."""
    f = np.ascontiguousarray(t).reshape(t.shape[0], -1).view(float)
    return np.einsum("bi,bi->b", f, f)
