"""Matrix-product-state pattern engine (``"mps"``).

The fourth registered backend: executes compiled patterns on
matrix-product-state chains, whose cost scales with the bond dimension
instead of ``2^max_live`` — bounded-entanglement patterns (line/ring
cluster states, ``interaction_width ≤ 1``) run at hundreds of measured
non-Clifford nodes, a workload none of the dense engines can touch.

One execution path (:meth:`MPSBackend._sweep`) serves both
``sample_batch`` and ``run_branch_batch``: the op stream runs on a
:class:`~repro.sim.mps.BatchedMPSState`, the shot-stacked chains of a
whole chunk, with one stacked kernel call per op (per group of chains
with equal bond dimensions: each chain routes and truncates exactly as
its own scalar :class:`~repro.sim.mps.MPSState` would, so truncated runs
do not depend on the chunking either).  Sampling follows the
shot-chunking byte-budget discipline: chunks of resident shots are
sized by ``MPS_BATCH_MAX_BYTES`` (``chunk = budget // bytes_per_shot``,
clamped to 1), and every chunk reads one shared
:class:`~repro.mbqc.backend._ShotDrawTable` of whole-block draws (uniform
per unpinned measurement, flip block per readout, fault block per Pauli
channel), so seeded records are bit-identical across chunk sizes and to
the statevector engine's seeded records on every program both can run,
Pauli-channel noise included.  A branch run stacks one chain per input
row and pins every outcome.

Truncation is never silent: every output carries its shot's accumulated
relative discarded weight (:attr:`MPSOutput.truncation_error`,
``DensityRun.dropped_weight``-style), 0.0 meaning the run was exact up
to floating point.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.mbqc.backend import (
    BranchRun,
    SampleRun,
    _check_branch,
    _check_branch_noiseless,
    _check_n_shots,
    _empty_sample_run,
    _input_row,
    _measure_vecs,
    _parity_vec,
    _require_pauli_channel,
    _ShotDrawTable,
    register_backend,
)
from repro.mbqc.compile import (
    ChannelOp,
    CompiledPattern,
    ConditionalOp,
    EntangleOp,
    MeasureOp,
    PrepOp,
    lower_noise,
)
from repro.mbqc.pattern import PatternError
from repro.sim.mps import BatchedMPSState, MPSState
from repro.sim.statevector import ZeroProbabilityBranch
from repro.utils.rng import SeedLike, ensure_rng

#: Default bond-dimension cap.  Bounded-entanglement patterns stay far
#: below it (their true Schmidt rank is ~2^interaction_width); when a
#: high-entanglement pattern saturates it, the discarded weight shows up
#: in ``truncation_error`` rather than silently degrading results.
MPS_DEFAULT_CHI_MAX = 64

#: Relative singular-value cutoff: drops only numerically-zero Schmidt
#: coefficients by default, keeping small-pattern runs exact to ~1e-12.
MPS_DEFAULT_CUTOFF = 1e-12

#: Resident-chunk byte budget of the chunked sampling sweep (cf.
#: ``DENSITY_BATCH_MAX_BYTES``).
MPS_BATCH_MAX_BYTES = 1 << 26


class MPSOutput:
    """One element's output on the MPS engine.

    ``mps`` is the normalized output chain (output nodes in output order,
    one scalar :class:`MPSState` unstacked from its chunk);
    ``log2_weight`` the branch log-probability (0.0 for sampled
    trajectories, log-domain so hundred-measurement branch weights do not
    underflow).  ``truncation_error`` surfaces the chain's accumulated
    relative discarded SVD weight — 0.0 certifies the element was computed
    without truncation."""

    def __init__(self, mps: MPSState, log2_weight: float = 0.0):
        self.mps = mps
        self.log2_weight = log2_weight

    @property
    def weight(self) -> float:
        """Branch probability (may underflow to 0.0 at hundreds of
        measurements; use ``log2_weight`` for the exact value)."""
        return 2.0 ** self.log2_weight

    @property
    def truncation_error(self) -> float:
        return self.mps.truncation_error

    def unit_statevector(self) -> np.ndarray:
        """Dense unit-norm output column (little-endian, output order)."""
        vec = self.mps.to_array()
        nrm = float(np.linalg.norm(vec))
        if nrm <= 0.0:
            raise ValueError("cannot densify a zero-norm output")
        return vec / nrm

    def to_statevector(self) -> np.ndarray:
        """Unnormalized dense output (``‖·‖² = weight``), the branch-map
        densification contract."""
        return math.sqrt(self.weight) * self.unit_statevector()

    def probabilities(self) -> np.ndarray:
        """Computational-basis probabilities of the output."""
        p = np.abs(self.mps.to_array()) ** 2
        return p / p.sum()


class MPSBackend:
    """Pattern execution on truncated matrix-product states.

    ``chi_max``/``cutoff`` bound every SVD refactorization (see
    :class:`repro.sim.mps.BatchedMPSState`); with the defaults, executions
    of bounded-entanglement patterns are exact and report
    ``truncation_error == 0.0``."""

    name = "mps"
    byte_model_note = "2·n·chi² bonded site tensors"

    def __init__(
        self,
        chi_max: Optional[int] = MPS_DEFAULT_CHI_MAX,
        cutoff: float = MPS_DEFAULT_CUTOFF,
    ):
        self.chi_max = chi_max
        self.cutoff = cutoff

    def supports(self, compiled: CompiledPattern) -> bool:
        # Trajectory engine: Pauli mixtures sample as faults, any other
        # channel needs the density engine.
        return not compiled.has_non_pauli_channel

    # -- resource model -----------------------------------------------------

    def _chi_cap(self, compiled: CompiledPattern) -> int:
        """The effective bond cap: the configured ``chi_max``, never more
        than the exact worst case ``2^(max_live // 2)`` of a register this
        wide."""
        worst = 1 << max(0, compiled.max_live // 2)
        if self.chi_max is None:
            return worst
        return min(self.chi_max, worst)

    def bytes_per_shot(self, compiled: CompiledPattern) -> int:
        """Bonded per-shot estimate ``2 · n · chi² · 16`` (complex128 site
        tensors ``chi × 2 × chi`` over the peak register) — the registry
        hook :func:`repro.analysis.estimate_compiled` builds its rows
        from."""
        chi = self._chi_cap(compiled)
        return 2 * max(1, compiled.max_live) * chi * chi * 16

    def _chunk_shots(
        self, compiled: CompiledPattern, max_block_bytes: Optional[int]
    ) -> int:
        budget = (
            MPS_BATCH_MAX_BYTES if max_block_bytes is None
            else int(max_block_bytes)
        )
        return max(1, budget // max(1, self.bytes_per_shot(compiled)))

    def _fresh_state(self, row: np.ndarray) -> MPSState:
        return MPSState.from_dense_row(
            row, chi_max=self.chi_max, cutoff=self.cutoff
        )

    # -- forced branches ----------------------------------------------------

    def run_branch_batch(
        self,
        compiled: CompiledPattern,
        inputs: np.ndarray,
        forced_outcomes: Mapping[int, int],
    ) -> BranchRun:
        _check_branch_noiseless(compiled, self.name)
        forced = _check_branch(compiled, forced_outcomes)
        inputs = np.asarray(inputs, dtype=complex)
        if inputs.ndim != 2 or inputs.shape[1] != 1 << compiled.num_inputs:
            raise PatternError(
                f"the {self.name} engine expects an input block of shape "
                f"(B, {1 << compiled.num_inputs}) for this pattern's "
                f"{compiled.num_inputs} inputs, got {inputs.shape}"
            )
        if inputs.shape[0] == 0:
            return BranchRun(outcomes=forced, weights=np.zeros(0), raw=())
        st = BatchedMPSState.stack([self._fresh_state(row) for row in inputs])
        _, log2w = self._sweep(compiled, st, forced, None, 0, st.batch_size)
        st.permute(compiled.out_perm)
        raws = tuple(
            MPSOutput(one, float(w)) for one, w in zip(st.unstack(), log2w)
        )
        weights = np.array([out.weight for out in raws], dtype=float)
        return BranchRun(outcomes=forced, weights=weights, raw=raws)

    # -- trajectory sampling ------------------------------------------------

    def sample_batch(
        self,
        compiled: CompiledPattern,
        n_shots: int,
        rng: SeedLike = None,
        input_state: Optional[np.ndarray] = None,
        forced_outcomes: Optional[Mapping[int, int]] = None,
        noise: Optional[object] = None,
        keep_raw: bool = False,
        max_block_bytes: Optional[int] = None,
    ) -> SampleRun:
        """Sample ``n_shots`` trajectories, sweeping the op stream over
        resident shot chunks sized by ``max_block_bytes`` (default
        :data:`MPS_BATCH_MAX_BYTES`).  Every chunk reads one whole-block
        draw table, so seeded records are bit-identical across chunk
        sizes."""
        _check_n_shots(n_shots, self.name)
        rng = ensure_rng(rng)
        forced = dict(forced_outcomes or {})
        if noise is not None:
            compiled = lower_noise(compiled, noise)
        for op in compiled.ops:
            if type(op) is ChannelOp:
                _require_pauli_channel(op)  # fail fast, before any shots run
        row = _input_row(compiled, input_state, self.name)
        if n_shots == 0:
            return _empty_sample_run(compiled, keep_raw)
        draws = _ShotDrawTable(rng, n_shots)
        rec: Dict[int, np.ndarray] = {
            node: np.empty(n_shots, dtype=np.int8)
            for node in compiled.measured_nodes
        }
        raws: List[MPSOutput] = []
        fresh = self._fresh_state(row)
        chunk = self._chunk_shots(compiled, max_block_bytes)
        for lo in range(0, n_shots, chunk):
            hi = min(lo + chunk, n_shots)
            st = BatchedMPSState.stack([fresh] * (hi - lo))
            draws.start_pass()
            local, _ = self._sweep(compiled, st, forced, draws, lo, hi)
            for node, outs in local.items():
                rec[node][lo:hi] = outs
            if keep_raw:
                st.permute(compiled.out_perm)
                raws.extend(MPSOutput(one) for one in st.unstack())
        outcomes = (
            np.stack([rec[n] for n in compiled.measured_nodes], axis=1)
            if compiled.measured_nodes
            else np.zeros((n_shots, 0), dtype=np.int8)
        )
        return SampleRun(
            nodes=compiled.measured_nodes,
            outcomes=outcomes,
            raw=tuple(raws) if keep_raw else None,
        )

    def _sweep(
        self,
        compiled: CompiledPattern,
        st: BatchedMPSState,
        forced: Mapping[int, int],
        draws: Optional[_ShotDrawTable],
        lo: int,
        hi: int,
    ) -> Tuple[Dict[int, np.ndarray], np.ndarray]:
        """The engine's one execution path: run the op stream on the
        stacked chains of shots ``lo:hi``, one stacked kernel call per op.

        Unpinned measurements, readout flips and Pauli faults read their
        ``lo:hi`` slice of the whole-block ``draws``; a branch run (every
        outcome pinned, noiseless program) passes ``draws=None``.  Returns
        the chunk's records (node -> ``(hi - lo,)`` bits) and per-element
        log-2 weights of the pinned outcomes."""
        b = hi - lo
        local: Dict[int, np.ndarray] = {}
        log2w = np.zeros(b)
        for op in compiled.ops:
            tp = type(op)
            if tp is PrepOp:
                st.add_qubit(op.state)
            elif tp is EntangleOp:
                st.apply_cz(*op.slots)
            elif tp is MeasureOp:
                s = _parity_vec(local, op.s_domain, b)
                t = _parity_vec(local, op.t_domain, b)
                vecs = _measure_vecs(op, s, t)  # (b, 2, 2)
                pinned = forced.get(op.node)
                if pinned is None:
                    outs, _ = st.measure(op.slot, vecs, u=draws.uniform_vec()[lo:hi])
                else:
                    try:
                        outs, probs = st.measure(op.slot, vecs, force=pinned)
                    except ZeroProbabilityBranch:
                        raise ZeroProbabilityBranch(
                            f"forced outcome {pinned} on node {op.node} "
                            f"has probability ~0"
                        ) from None
                    log2w += np.log2(probs)
                if op.flip_p > 0.0:
                    outs ^= draws.flip_vec(op.flip_p)[lo:hi].astype(np.int8)
                local[op.node] = outs
            elif tp is ConditionalOp:
                fire = _parity_vec(local, op.domain, b).astype(bool)
                st.apply_1q_masked(op.matrix, op.slot, fire)
            elif tp is ChannelOp:
                faults = draws.fault_vec(op)
                if faults is not None:
                    st.apply_paulis(op.slot, faults[lo:hi])
            else:  # UnitaryOp
                st.apply_1q(op.matrix, op.slot)
        return local, log2w


register_backend(MPSBackend())
