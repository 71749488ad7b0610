"""Scalar reference implementations the production engines certify against.

Production code keeps one execution path per engine; the independent
implementations that certify those paths live here, on the test side
(the benchmarks import this module too):

- :func:`reference_sample` — an **op-major scalar interpreter** over
  ``CompiledPattern.ops``, parameterised by state type
  (:class:`~repro.sim.statevector.StateVector`,
  :class:`~repro.sim.density.DensityMatrix` or
  :class:`~repro.sim.mps.MPSState`).  Each shot owns one scalar state; at
  every randomness-consuming op the whole shot block's draw vector is
  taken once, in op order, exactly as the seeded-stream contract says:
  one ``rng.random(n)`` uniform vector per unpinned measurement (outcome
  0 iff ``u < p0``), one ``rng.random(n) < p`` flip vector per noisy
  readout, and one ``rng.random(n)`` vector per weighted Pauli channel
  partitioned as ``[identity | X | Y | Z]`` (density states apply
  channels exactly and draw nothing for them).  Production records must
  equal these bit for bit at the same seed.
- :class:`ShotDrawView` and :func:`reference_stabilizer_sample` — a
  per-shot view of lazily drawn whole-block vectors, so the stabilizer
  engine's own scalar ``_run_one`` can be driven shot by shot and compared
  with its bit-packed batched sweep.
- :func:`reference_integrate` — the depth-first exact integrator: one
  density tensor per outcome-branch leaf, on its own matmul kernels
  (readout flips branch the recorded bit, so they quadruple the leaves),
  merging only records no later op reads.
- :func:`reference_pattern_to_matrix` — the per-column branch map: one
  unnormalized interpreter run per input basis column.
"""

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.linalg.gates import CZ, PAULI_X, PAULI_Y, PAULI_Z
from repro.mbqc.backend import get_backend
from repro.mbqc.compile import (
    ChannelOp,
    CompiledPattern,
    ConditionalOp,
    EntangleOp,
    MeasureOp,
    PrepOp,
    compile_pattern,
    lower_noise,
)
from repro.mbqc.mps_backend import MPS_DEFAULT_CHI_MAX, MPS_DEFAULT_CUTOFF
from repro.sim.density import DensityMatrix
from repro.sim.mps import MPSState
from repro.sim.statevector import KET_PLUS, StateVector, ZeroProbabilityBranch
from repro.utils.rng import ensure_rng

_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def _parity(outcomes: Mapping[int, int], domain) -> int:
    parity = 0
    for node in domain:
        parity ^= outcomes[node]
    return parity


def _input_row(compiled: CompiledPattern, input_state) -> np.ndarray:
    if input_state is None:
        row = np.ones(1, dtype=complex)
        for _ in range(compiled.num_inputs):
            row = np.multiply.outer(row, KET_PLUS).reshape(-1)
        return row
    if isinstance(input_state, StateVector):
        row = input_state.to_array()
    else:
        row = np.asarray(input_state, dtype=complex).reshape(-1)
    if row.size != 1 << compiled.num_inputs:
        raise ValueError(
            f"input state has {row.size} amplitudes for "
            f"{compiled.num_inputs} pattern inputs"
        )
    return row


def _reorder(sv: StateVector, order: Sequence[int]) -> np.ndarray:
    """Little-endian amplitudes with qubit ``i`` = old slot ``order[i]``."""
    arr = sv.to_array()
    n = sv.num_qubits
    if n == 0:
        return arr
    t = arr.reshape((2,) * n).transpose(tuple(reversed(range(n))))
    t = t.transpose(tuple(order))
    return t.transpose(tuple(reversed(range(n)))).reshape(-1)


def pauli_fault_partition(op: ChannelOp, u: np.ndarray) -> np.ndarray:
    """The ``[identity | X | Y | Z]`` partition of one uniform vector:
    ``-1`` identity, ``0``/``1``/``2`` = X/Y/Z."""
    _, px, py, pz = op.pauli_probs
    faults = np.full(u.shape, -1, dtype=np.int8)
    lo = 1.0 - (px + py + pz)
    for i, p in enumerate((px, py, pz)):
        faults[(u >= lo) & (u < lo + p)] = i
        lo += p
    return faults


def _draw_faults(op: ChannelOp, rng, n: int) -> Optional[np.ndarray]:
    if op.pauli_probs is None:
        raise ValueError(f"channel {op.label!r} is not a Pauli mixture")
    if sum(op.pauli_probs[1:]) <= 0.0:
        return None  # weightless: consumes no randomness
    return pauli_fault_partition(op, rng.random(n))


# -- per-state-type scalar kernels --------------------------------------------


class _StateVectorKernels:
    exact_channels = False

    def __init__(self, renormalize: bool = True):
        self.renormalize = renormalize

    def fresh(self, row):
        return StateVector.from_array(row)

    def prep(self, st, op):
        st.add_qubit(op.state)

    def cz(self, st, a, b):
        st.apply_cz(a, b)

    def apply(self, st, mat, slot):
        st.apply_1q(mat, slot)

    def measure(self, st, slot, basis, u, force):
        if force is None:
            force = 0 if u < st.measure_probability(slot, basis, 0) else 1
        out, _ = st.measure(
            slot, basis, force=force, remove=True, renormalize=self.renormalize
        )
        return out

    def finish(self, st, out_perm):
        return _reorder(st, out_perm)


class _DensityKernels:
    exact_channels = True

    def fresh(self, row):
        return DensityMatrix.from_pure(row / np.linalg.norm(row))

    def prep(self, st, op):
        st.add_qubit(op.state)

    def cz(self, st, a, b):
        st.apply_2q(CZ, a, b)

    def apply(self, st, mat, slot):
        st.apply_1q(mat, slot)

    def channel(self, st, op):
        st.apply_kraus(op.kraus, op.slot, check=False)

    def measure(self, st, slot, basis, u, force):
        try:
            out, _ = st.measure(slot, basis, u=u, force=force)
        except ValueError:
            if force is None:
                raise
            raise ZeroProbabilityBranch(
                f"forced outcome {force} has probability ~0"
            ) from None
        return out

    def finish(self, st, out_perm):
        st.permute(out_perm)
        return st


class _MPSKernels:
    exact_channels = False

    def __init__(self, chi_max=MPS_DEFAULT_CHI_MAX):
        self.chi_max = chi_max

    def fresh(self, row):
        return MPSState.from_dense_row(
            row, chi_max=self.chi_max, cutoff=MPS_DEFAULT_CUTOFF
        )

    def prep(self, st, op):
        st.add_qubit(op.state)

    def cz(self, st, a, b):
        st.apply_cz(a, b)

    def apply(self, st, mat, slot):
        st.apply_1q(mat, slot)

    def measure(self, st, slot, basis, u, force):
        return st.measure(slot, basis, u=u, force=force)[0]

    def finish(self, st, out_perm):
        st.permute(out_perm)
        return st


_KERNELS = {
    StateVector: _StateVectorKernels,
    DensityMatrix: _DensityKernels,
    MPSState: _MPSKernels,
}


@dataclass
class ReferenceRun:
    """Records ``(n_shots, len(measured_nodes))`` plus one output per
    shot: a normalized little-endian amplitude row (``StateVector``), the
    permuted final ``DensityMatrix``/``MPSState``, or a
    ``StabilizerOutput``."""

    outcomes: np.ndarray
    outputs: list


def _interpret(compiled, kernels, states, rng, forced) -> np.ndarray:
    """The op-major sweep: every op visits every shot's scalar state;
    randomness is one whole-block vector per consuming op, in op order."""
    n = len(states)
    records: List[Dict[int, int]] = [{} for _ in range(n)]
    for op in compiled.ops:
        tp = type(op)
        if tp is PrepOp:
            for st in states:
                kernels.prep(st, op)
        elif tp is EntangleOp:
            for st in states:
                kernels.cz(st, *op.slots)
        elif tp is MeasureOp:
            pinned = forced.get(op.node)
            u = rng.random(n) if pinned is None else [None] * n
            for j, st in enumerate(states):
                s = _parity(records[j], op.s_domain)
                t = _parity(records[j], op.t_domain)
                basis = op.bases[s + 2 * t]
                records[j][op.node] = kernels.measure(
                    st, op.slot, basis, u[j], pinned
                )
            if op.flip_p > 0.0:
                flips = rng.random(n) < op.flip_p
                for j in range(n):
                    records[j][op.node] ^= int(flips[j])
        elif tp is ConditionalOp:
            for j, st in enumerate(states):
                if _parity(records[j], op.domain):
                    kernels.apply(st, op.matrix, op.slot)
        elif tp is ChannelOp:
            if kernels.exact_channels:
                for st in states:
                    kernels.channel(st, op)
                continue
            faults = _draw_faults(op, rng, n)
            if faults is None:
                continue
            for j, st in enumerate(states):
                if faults[j] >= 0:
                    kernels.apply(st, _PAULIS[faults[j]], op.slot)
        else:  # UnitaryOp
            for st in states:
                kernels.apply(st, op.matrix, op.slot)
    return np.array(
        [[rec[node] for node in compiled.measured_nodes] for rec in records],
        dtype=np.int8,
    ).reshape(n, len(compiled.measured_nodes))


def reference_sample(
    compiled: CompiledPattern,
    n_shots: int,
    seed=None,
    state=StateVector,
    input_state=None,
    forced_outcomes: Optional[Mapping[int, int]] = None,
    noise=None,
    mps_chi_max: Optional[int] = MPS_DEFAULT_CHI_MAX,
) -> ReferenceRun:
    """Sample ``n_shots`` trajectories on scalar ``state`` objects, one
    per shot, drawing from ``seed`` under the whole-block contract
    (``mps_chi_max`` caps the bonds of :class:`MPSState` chains)."""
    if noise is not None:
        compiled = lower_noise(compiled, noise)
    kernels = (
        _MPSKernels(mps_chi_max) if state is MPSState else _KERNELS[state]()
    )
    rng = ensure_rng(seed)
    row = _input_row(compiled, input_state)
    states = [kernels.fresh(row) for _ in range(n_shots)]
    outcomes = _interpret(
        compiled, kernels, states, rng, dict(forced_outcomes or {})
    )
    outputs = [kernels.finish(st, compiled.out_perm) for st in states]
    if state is StateVector:
        outputs = [vec / np.linalg.norm(vec) for vec in outputs]
    return ReferenceRun(outcomes, outputs)


def reference_pattern_to_matrix(
    pattern, forced_outcomes: Optional[Mapping[int, int]] = None
) -> np.ndarray:
    """The branch map column by column: one unnormalized interpreter run
    per input basis state (default branch: every outcome 0)."""
    compiled = compile_pattern(pattern)
    forced = dict(
        forced_outcomes
        if forced_outcomes is not None
        else {node: 0 for node in compiled.measured_nodes}
    )
    k = compiled.num_inputs
    kernels = _StateVectorKernels(renormalize=False)
    cols = []
    for j in range(1 << k):
        basis = np.zeros(1 << k, dtype=complex)
        basis[j] = 1.0
        st = kernels.fresh(basis)
        _interpret(compiled, kernels, [st], None, forced)
        cols.append(kernels.finish(st, compiled.out_perm))
    return np.stack(cols, axis=1).reshape(1 << compiled.num_outputs, 1 << k)


# -- the stabilizer engine's scalar path, driven shot by shot -----------------


class ShotDrawView:
    """Per-shot reads of lazily drawn whole-block vectors.

    The first shot to need the ``k``-th random quantity triggers one
    ``(n_shots,)`` draw; later shots index into it.  A batch-applicable
    Clifford program's draw schedule (which measurements are random, which
    ops flip or fault) is shot-independent, so shot 0's encounter order is
    the batched sweep's op order — and the stabilizer engine's scalar
    ``_run_one`` reads the same stream its batched sweep does."""

    def __init__(self, rng, n_shots: int):
        self._rng = rng
        self._n = n_shots
        self._vecs: List[np.ndarray] = []
        self._kinds: List[object] = []
        self._shot = 0
        self._cursor = 0

    def start_shot(self, shot: int) -> None:
        self._shot = shot
        self._cursor = 0

    def _pull(self, kind, drawer):
        k = self._cursor
        self._cursor += 1
        if k == len(self._vecs):
            self._vecs.append(drawer())
            self._kinds.append(kind)
        elif self._kinds[k] != kind:
            raise AssertionError("draw schedule diverged across shots")
        return self._vecs[k][self._shot]

    def outcome(self) -> int:
        return int(self._pull("outcome", lambda: self._rng.integers(2, size=self._n)))

    def flip(self, p: float) -> bool:
        return bool(self._pull(("flip", p), lambda: self._rng.random(self._n) < p))

    def fault(self, op: ChannelOp) -> int:
        if sum(op.pauli_probs[1:]) <= 0.0:
            return -1  # weightless: consumes no randomness
        return int(
            self._pull(
                ("fault", op.label),
                lambda: pauli_fault_partition(op, self._rng.random(self._n)),
            )
        )


def reference_stabilizer_sample(
    compiled: CompiledPattern,
    n_shots: int,
    seed=None,
    input_state=None,
    forced_outcomes: Optional[Mapping[int, int]] = None,
    noise=None,
) -> ReferenceRun:
    """One scalar tableau per shot through the stabilizer engine's own
    ``_run_one``, randomness via :class:`ShotDrawView`.  Outputs are
    :class:`~repro.mbqc.backend.StabilizerOutput` tableaus."""
    if noise is not None:
        compiled = lower_noise(compiled, noise)
    sb = get_backend("stabilizer")
    forced = dict(forced_outcomes or {})
    row = _input_row(compiled, input_state)
    n_total = sb._total_nodes(compiled)
    view = ShotDrawView(ensure_rng(seed), n_shots)
    outputs = []
    outcomes = np.zeros((n_shots, len(compiled.measured_nodes)), dtype=np.int8)
    for j in range(n_shots):
        view.start_shot(j)
        st, log2_w = sb._init_tableau(compiled, row, n_total)
        out, rec = sb._run_one(compiled, st, log2_w, view, forced)
        outputs.append(out)
        outcomes[j] = [rec[node] for node in compiled.measured_nodes]
    return ReferenceRun(outcomes, outputs)


# -- exact integration, depth first -------------------------------------------


@dataclass
class ReferenceIntegration:
    """``rho`` is the integrated (unnormalized) output; ``branches`` the
    leaves explored; ``trace + dropped_weight ≈ 1``."""

    rho: DensityMatrix
    branches: int
    trace: float
    dropped_weight: float


def _dead_records(ops) -> List[bool]:
    """Per op: a measurement whose record no op ever reads."""
    read = set()
    for op in ops:
        tp = type(op)
        if tp is MeasureOp:
            read.update(op.s_domain)
            read.update(op.t_domain)
        elif tp is ConditionalOp:
            read.update(op.domain)
    return [type(op) is MeasureOp and op.node not in read for op in ops]


# Raw-tensor kernels of the depth-first integrator: ``t`` has shape
# ``(2,) * 2n`` (row axes, then column axes, qubit ``q`` on axes ``q`` and
# ``n + q``).  Each axis update is one matmul on a 3-axis reshape.


def _left(m, t, axis):
    """Contract ``m`` (``(2, 2)`` or ``(2,)``) into tensor axis ``axis``."""
    shape = t.shape
    out = np.matmul(m, t.reshape(1 << axis, 2, -1))
    if m.ndim == 1:
        return out.reshape(shape[:axis] + shape[axis + 1:])
    return out.reshape(shape)


def _conj_1q(t, n, u, q):
    return _left(u.conj(), _left(u, t, q), n + q)


def _project(t, n, q, b):
    """``<b|_q ρ |b>_q`` with qubit ``q`` removed, and its trace."""
    t = _left(b, _left(b.conj(), t, q), n - 1 + q)
    m = 1 << (n - 1)
    return t, float(np.real(np.trace(t.reshape(m, m))))


def _add_qubit(t, n, state):
    m = 1 << n
    pure = np.outer(state, state.conj())
    t = np.einsum("rc,ab->racb", t.reshape(m, m), pure)
    return t.reshape((2,) * (2 * n + 2))


def _cz(t, n, q0, q1):
    t = t.copy()
    for off in (0, n):
        idx = [slice(None)] * (2 * n)
        idx[off + q0] = 1
        idx[off + q1] = 1
        t[tuple(idx)] *= -1.0
    return t


def reference_integrate(
    compiled: CompiledPattern,
    noise=None,
    input_state=None,
    prune_tol: float = 1e-12,
) -> ReferenceIntegration:
    """Sum every outcome branch's unnormalized output, recursing depth
    first with one density tensor per branch.  Records nobody reads are
    traced out in place instead of branched; readout flips branch the
    recorded bit (weights ``1 - f`` and ``f``)."""
    if noise is not None:
        compiled = lower_noise(compiled, noise)
    ops = compiled.ops
    dead = _dead_records(ops)
    row = _input_row(compiled, input_state)
    row = row / np.linalg.norm(row)
    acc = None
    branches = 0
    dropped = 0.0

    def rec(start, t, n, outcomes):
        nonlocal acc, branches, dropped
        for idx in range(start, len(ops)):
            op = ops[idx]
            tp = type(op)
            if tp is PrepOp:
                t = _add_qubit(t, n, op.state)
                n += 1
            elif tp is EntangleOp:
                t = _cz(t, n, *op.slots)
            elif tp is ChannelOp:
                t = sum(_conj_1q(t, n, k, op.slot) for k in op.kraus)
            elif tp is ConditionalOp:
                if _parity(outcomes, op.domain):
                    t = _conj_1q(t, n, op.matrix, op.slot)
            elif tp is MeasureOp:
                if dead[idx]:
                    t = np.trace(t, axis1=op.slot, axis2=n + op.slot)
                    n -= 1
                    continue
                s = _parity(outcomes, op.s_domain)
                t_par = _parity(outcomes, op.t_domain)
                basis = op.bases[s + 2 * t_par]
                for o, b in enumerate(basis.vectors()):
                    child, p = _project(t, n, op.slot, b)
                    if p < prune_tol:
                        dropped += p
                        continue
                    if op.flip_p > 0.0:
                        f = op.flip_p
                        for r, w in ((o, 1.0 - f), (o ^ 1, f)):
                            if w > 0.0:
                                rec(idx + 1, child * w, n - 1,
                                    {**outcomes, op.node: r})
                    else:
                        rec(idx + 1, child, n - 1, {**outcomes, op.node: o})
                return
            else:  # UnitaryOp
                t = _conj_1q(t, n, op.matrix, op.slot)
        order = list(compiled.out_perm)
        if n:
            t = t.transpose(order + [n + q for q in order])
        acc = t if acc is None else acc + t
        branches += 1

    k = compiled.num_inputs
    rec(0, np.outer(row, row.conj()).reshape((2,) * (2 * k)), k, {})
    if acc is None:
        raise ValueError("every outcome branch was pruned")
    rho = DensityMatrix(
        tensor=acc if compiled.num_outputs else np.reshape(acc, (1, 1))
    )
    return ReferenceIntegration(rho, branches, rho.trace(), dropped)
