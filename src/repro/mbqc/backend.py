"""Execution backends for compiled measurement patterns.

A :class:`PatternBackend` runs a :class:`~repro.mbqc.compile.CompiledPattern`
either on a *forced outcome branch* for a whole block of input states at
once (``run_branch_batch`` — the engine under
:func:`repro.mbqc.runner.pattern_to_matrix` and the branch-exhaustive
verification in :mod:`repro.core.verify`) or as a block of *sampled
trajectories* with per-element RNG outcomes and per-element corrections
(``sample_batch`` — the engine under :meth:`repro.core.solver.MBQCQAOASolver
.sample` shot loops and the noise-trajectory averaging in
:mod:`repro.mbqc.noise`).

Backends live in a named registry.  :func:`select_backend` dispatches a
compiled pattern automatically: the dense :class:`StatevectorBackend`
(always applicable) is the default, and Clifford-angle patterns — every
measurement basis Pauli, every correction/Clifford a single-qubit Clifford,
as classified at compile time (:attr:`CompiledPattern.is_clifford`) — fall
through to the :class:`StabilizerBackend` once the live register outgrows
dense reach.  Stabilizer outputs stay in tableau form
(:class:`StabilizerOutput`) and densify only on demand, so graph-state and
Pauli-measurement patterns verify at sizes far beyond ``2^n`` memory.

Both engines vectorize ``sample_batch`` across the shot block: the dense
engine over a :class:`~repro.sim.statevector.BatchedStateVector`, the
stabilizer engine over a bit-packed
:class:`~repro.stab.batched.BatchedTableau` (one shared GF(2) structure,
per-shot packed sign bits).  Hand-built Clifford programs the batched
tableau cannot execute (see :func:`_batch_applicable`) fall back to a
per-shot tableau loop automatically.

Every trajectory engine consumes its generator through one seeded-stream
contract: whole-block ``(n_shots,)`` draws in op order — one uniform
vector per unpinned measurement (one ``integers(2)`` vector per random
Pauli measurement on the stabilizer engine), one flip vector per noisy
readout, and one :func:`draw_pauli_fault_batch` vector per Pauli channel.
Seeded records are therefore invariant under shot chunking, and the
statevector and MPS engines produce bit-identical records on every
program both can run.

Noise enters as a compile-time channel program
(:func:`repro.mbqc.compile.lower_noise` weaves ``ChannelOp``s and readout
flips into the op stream), executed identically by every engine: the
trajectory engines here sample Pauli-mixture channels per element, while
the density-matrix engine (:mod:`repro.mbqc.density_backend`, registered as
``"density"``) applies arbitrary channels exactly — automatic dispatch
routes programs carrying non-Pauli channels to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.mbqc.compile import (
    ChannelOp,
    CompiledPattern,
    ConditionalOp,
    EntangleOp,
    MeasureOp,
    PrepOp,
    UnitaryOp,
    lower_noise,
    signal_parity,
)
from repro.mbqc.pattern import PatternError
from repro.sim.statevector import (
    BatchedStateVector,
    KET_PLUS,
    StateVector,
    ZeroProbabilityBranch,
)
from repro.stab.batched import (
    BatchedTableau,
    pack_bits,
    unpack_shot_bits,
)
from repro.stab.tableau import (
    ForcedOutcomeContradiction,
    StabilizerState,
    canonical_stabilizer_key,
    stab_rows_to_paulis,
    statevector_from_generators,
)
from repro.utils.rng import SeedLike, ensure_rng

try:  # typing.Protocol exists on all supported pythons; keep a soft fallback
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


# Dense execution allocates 2^max_live amplitudes per batch element; past
# this register width the auto-dispatcher prefers a non-dense backend.
DENSE_AUTO_MAX_LIVE = 16

# Densifying a tableau output materializes 2^n_out amplitudes (cap enforced
# by repro.stab.tableau.statevector_from_generators); consumers that need
# dense outputs must not be auto-dispatched to the stabilizer engine past it.
DENSE_EXTRACT_MAX = 20

# Default per-shot byte budget for backend selection (2 GiB).  Routing a
# pattern whose statically-estimated footprint exceeds this raises an
# actionable PatternError (diagnostic R101) instead of letting numpy OOM
# mid-allocation; select_backend(..., max_bytes=0) disables the check.
PEAK_BYTE_BUDGET = 1 << 31

#: Auto-dispatch picks the MPS engine past dense reach only while the
#: compile-time interaction-width statistic stays this small: line/ring
#: cluster patterns compile to width ≤ 1 (bounded entanglement, bond
#: dimensions stay tiny), dense interaction graphs to ~max_live (an MPS
#: would truncate heavily).  Explicit ``prefer="mps"`` is never gated.
MPS_AUTO_MAX_WIDTH = 2

_PAULI_GATES = ("x", "y", "z")


@dataclass
class StabilizerOutput:
    """One batch element's output on the stabilizer engine.

    The tableau covers *every* node the pattern ever prepared (measured
    columns stay collapsed in place); ``out_cols`` are the columns of the
    output nodes in output order.  ``log2_weight`` is the exact log-2
    branch probability — each random forced measurement contributes -1,
    each deterministic one 0 — kept in the log domain because a float
    product of 1/2's underflows to 0.0 past ~1074 random outcomes, exactly
    the scale this engine exists for.  Densification is on demand only:
    :meth:`to_statevector` matches the dense engine's unnormalized
    convention ``‖state‖² = weight`` (up to the global phase a tableau
    cannot represent).
    """

    tableau: Optional[StabilizerState]
    out_cols: Tuple[int, ...]
    log2_weight: float

    @property
    def weight(self) -> float:
        """Branch probability (may underflow to 0.0 at extreme depths;
        compare ``log2_weight`` when exactness matters)."""
        return float(2.0 ** self.log2_weight)

    def stabilizer_bits(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Generator rows ``(x, z, r)`` of the output-restricted state."""
        if not self.out_cols:
            z = np.zeros((0, 0), dtype=bool)
            return z, z.copy(), np.zeros(0, dtype=np.int8)
        assert self.tableau is not None
        return self.tableau.extract_substate(self.out_cols)

    def probabilities(self) -> np.ndarray:
        """Computational-basis probabilities of the (unit-norm) output."""
        return np.abs(self.unit_statevector()) ** 2

    def canonical_key(self) -> bytes:
        """Branch-comparison key: canonical stabilizer form of the output."""
        return canonical_stabilizer_key(*self.stabilizer_bits())

    def unit_statevector(self) -> np.ndarray:
        """Dense little-endian output column at unit norm."""
        return _densify_generator_bits(*self.stabilizer_bits(), len(self.out_cols))

    def to_statevector(self) -> np.ndarray:
        """Dense little-endian output column, scaled to ``‖·‖² = weight``."""
        return np.sqrt(self.weight) * self.unit_statevector()


def _densify_generator_bits(
    x: np.ndarray, z: np.ndarray, r: np.ndarray, n_out: int
) -> np.ndarray:
    """Unit statevector from generator bits, with the densification cap."""
    if n_out > DENSE_EXTRACT_MAX:
        raise ValueError(
            f"cannot densify a {n_out}-qubit stabilizer output "
            f"(cap {DENSE_EXTRACT_MAX}); compare canonical forms instead, "
            f"or run on the statevector backend"
        )
    return statevector_from_generators(stab_rows_to_paulis(x, z, r), n_out)


class _BatchedExtraction:
    """Shared, lazily computed output extraction of one batched run.

    The Gaussian elimination that isolates the output generators runs once
    on the batch's shared X/Z bits; every shot reuses it, differing only in
    sign bits — so retaining per-shot outputs costs O(n_out) per shot, not
    a full O(n²) tableau.
    """

    def __init__(self, tab: BatchedTableau, out_cols: Tuple[int, ...]):
        self._tab = tab
        self._out_cols = tuple(out_cols)
        self._bits: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def log2_weight(self, shot: int) -> float:
        return float(self._tab.log2_weight[shot])

    def bits(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._bits is None:
            if not self._out_cols:
                empty = np.zeros((0, 0), dtype=bool)
                self._bits = (
                    empty,
                    empty.copy(),
                    np.zeros((self._tab.n_shots, 0), dtype=np.int8),
                )
            else:
                self._bits = self._tab.extract_substate(self._out_cols)
        return self._bits


@dataclass
class PackedStabilizerOutput:
    """One shot's output view into a shared batched extraction.

    Duck-type compatible with :class:`StabilizerOutput` (canonical keys,
    exact log-2 branch weights, on-demand densification): the generator
    X/Z bits — identical across shots — live once in the parent
    :class:`_BatchedExtraction`; only the sign bits are per shot.
    """

    batch: _BatchedExtraction
    shot: int

    @property
    def log2_weight(self) -> float:
        return self.batch.log2_weight(self.shot)

    @property
    def weight(self) -> float:
        return float(2.0 ** self.log2_weight)

    def stabilizer_bits(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        x, z, r = self.batch.bits()
        return x, z, r[self.shot]

    def canonical_key(self) -> bytes:
        return canonical_stabilizer_key(*self.stabilizer_bits())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.unit_statevector()) ** 2

    def unit_statevector(self) -> np.ndarray:
        x, z, r = self.stabilizer_bits()
        return _densify_generator_bits(x, z, r, x.shape[1])

    def to_statevector(self) -> np.ndarray:
        return np.sqrt(self.weight) * self.unit_statevector()


@dataclass
class BranchRun:
    """Result of one forced-branch batched execution.

    ``outcomes`` echoes the forced branch in measurement order.  Dense
    engines fill ``states`` — a ``(B, 2**n_out)`` block whose row ``j`` is
    the (unnormalized) output state for input row ``j``, output qubits
    little-endian in ``output_nodes`` order.  Non-dense engines fill ``raw``
    (one backend-native output per element, e.g. :class:`StabilizerOutput`)
    and leave ``states`` to :meth:`dense_states` densification on demand.
    ``weights[j]`` is the probability of this outcome branch for element
    ``j`` (for unit-norm inputs, ``‖states[j]‖²``).
    """

    outcomes: Dict[int, int]
    states: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    raw: Optional[Tuple[object, ...]] = None

    def dense_states(self) -> np.ndarray:
        """The ``(B, 2**n_out)`` block, densifying ``raw`` if needed.

        Tableau-backed rows are exact up to a per-row global phase (a
        stabilizer tableau does not represent one)."""
        if self.states is None:
            if self.raw is None:
                raise ValueError("branch run carries neither states nor raw outputs")
            self.states = np.stack([out.to_statevector() for out in self.raw])
        return self.states


@dataclass
class SampleRun:
    """Result of one batched trajectory-sampling execution.

    ``outcomes[j, i]`` is element ``j``'s outcome for the ``i``-th measured
    node (order ``nodes`` = ``compiled.measured_nodes``).  Dense engines
    fill ``states`` with normalized output rows; non-dense engines fill
    ``raw`` instead (densified on demand by :meth:`dense_states`) — but only
    when asked to via ``sample_batch(..., keep_raw=True)``: a run carrying
    neither ``states`` nor ``raw`` is outcome-records-only, and the
    state-consuming accessors raise a :class:`ValueError` pointing at the
    flag (retaining one output per shot costs O(shots · output size)).
    """

    nodes: Tuple[int, ...]
    outcomes: np.ndarray
    states: Optional[np.ndarray] = None
    raw: Optional[Tuple[object, ...]] = None

    @property
    def n_shots(self) -> int:
        return self.outcomes.shape[0]

    def outcome_dicts(self) -> List[Dict[int, int]]:
        """Per-trajectory ``node -> bit`` maps."""
        return [
            {node: int(self.outcomes[j, i]) for i, node in enumerate(self.nodes)}
            for j in range(self.n_shots)
        ]

    def dense_states(self) -> np.ndarray:
        """Normalized ``(n_shots, 2**n_out)`` output block.

        Raises for raw outputs that are genuinely mixed (density-engine
        trajectories under noise cannot be a state vector) — use
        :meth:`probability_rows` or the raw density matrices instead."""
        if self.states is None:
            if self.raw is None:
                raise ValueError(
                    "sample run carries neither states nor raw outputs; "
                    "request per-shot outputs with sample_batch(..., keep_raw=True)"
                )
            self.states = np.stack([out.unit_statevector() for out in self.raw])
        return self.states

    def probability_rows(self) -> np.ndarray:
        """Per-trajectory computational-basis probabilities
        (``(n_shots, 2**n_out)``) — works on every engine, including mixed
        density-matrix outputs that cannot densify to state vectors."""
        if self.states is None and self.raw is not None:
            return np.stack([out.probabilities() for out in self.raw])
        states = self.dense_states()
        p = np.abs(states) ** 2
        return p / p.sum(axis=1, keepdims=True)

    def sample_bitstrings(self, shots: int, rng) -> np.ndarray:
        """Draw ``shots`` computational-basis samples spread evenly over
        the run's trajectories (ceil split; the tail trajectory takes the
        remainder).  The shared resampling step under the solver's shot
        loop and the CLI's noisy sampling path."""
        if shots < 1:
            raise ValueError("shots must be positive")
        rows = self.probability_rows()
        per_run = -(-shots // rows.shape[0])  # ceil
        draws: List[int] = []
        for row in rows:
            take = min(per_run, shots - len(draws))
            if take <= 0:
                break
            picks = rng.choice(row.size, size=take, p=row / row.sum())
            draws.extend(int(x) for x in picks)
        return np.asarray(draws[:shots], dtype=np.int64)


@runtime_checkable
class PatternBackend(Protocol):
    """Contract a pattern-execution engine must satisfy."""

    name: str

    def supports(self, compiled: CompiledPattern) -> bool:
        """Whether this backend can execute ``compiled`` exactly."""
        ...

    def run_branch_batch(
        self,
        compiled: CompiledPattern,
        inputs: np.ndarray,
        forced_outcomes: Mapping[int, int],
    ) -> BranchRun:
        """Run every row of ``inputs`` (``(B, 2**k)``) through ``compiled``
        on the branch pinned by ``forced_outcomes`` (all measured nodes)."""
        ...

    def sample_batch(
        self,
        compiled: CompiledPattern,
        n_shots: int,
        rng: SeedLike = None,
        input_state: Optional[np.ndarray] = None,
        forced_outcomes: Optional[Mapping[int, int]] = None,
        noise: Optional[object] = None,
        keep_raw: bool = False,
    ) -> SampleRun:
        """Run ``n_shots`` independent trajectories from one input state,
        drawing measurement outcomes per element from the Born rule
        (``forced_outcomes`` pins a subset for every element).  ``noise``
        is an optional :class:`repro.mbqc.noise.NoiseModel`-like object
        (``p_prep``/``p_ent``/``p_meas``) injecting per-element Pauli
        faults.  ``keep_raw=True`` retains per-shot backend-native outputs;
        the default ``False`` *permits* dropping them (outcome records
        only — retaining costs O(shots · output size)), though engines
        whose sweep materializes dense ``states`` anyway (the statevector
        engine) always fill them.  Consumers that call ``dense_states``/
        ``probability_rows`` must pass ``keep_raw=True`` to be
        engine-generic."""
        ...


def _check_n_shots(n_shots: int, name: str) -> None:
    if n_shots < 0:
        raise ValueError(
            f"the {name} engine needs a non-negative n_shots, got {n_shots}"
        )


def _empty_sample_run(
    compiled: CompiledPattern, keep_raw: bool, dense: bool = False
) -> SampleRun:
    """The uniform ``n_shots=0`` result: a well-shaped empty record block,
    no RNG draw, no chunk planning.  Every engine early-returns this
    after validating its inputs, so a zero-shot request succeeds exactly
    when a one-shot request would (contract shared by all four engines —
    the checkpoint executor's empty-job path relies on it)."""
    return SampleRun(
        nodes=compiled.measured_nodes,
        outcomes=np.zeros((0, len(compiled.measured_nodes)), dtype=np.int8),
        states=(
            np.zeros((0, 1 << compiled.num_outputs), dtype=complex)
            if dense else None
        ),
        raw=() if keep_raw and not dense else None,
    )


def _input_row(
    compiled: CompiledPattern, input_state, name: str = "pattern"
) -> np.ndarray:
    """Coerce ``input_state`` to one little-endian amplitude row."""
    k = compiled.num_inputs
    if input_state is None:
        row = np.ones(1, dtype=complex)
        for _ in range(k):
            row = np.multiply.outer(row, KET_PLUS).reshape(-1)
        return row
    if isinstance(input_state, StateVector):
        row = input_state.to_array()
    else:
        row = np.asarray(input_state, dtype=complex).reshape(-1)
    if row.size != 1 << k:
        raise PatternError(
            f"the {name} engine got an input state of {row.size} amplitudes "
            f"for a pattern with {k} inputs (expected {1 << k})"
        )
    return row


def _measure_vecs(op: MeasureOp, s, t) -> np.ndarray:
    """Effective basis vectors of ``op`` for signal parities ``(s, t)``.

    Scalar parities give one ``(2, 2)`` basis; per-element ``(B,)`` parity
    vectors gather a ``(B, 2, 2)`` per-element block from the precompiled
    ``basis_block`` (hand-built ops without the view get it rebuilt) — the
    shared gather of the dense and density batched sweeps."""
    block = op.basis_block
    if block is None:
        block = np.array([[b.b0, b.b1] for b in op.bases], dtype=complex)
    return block[s + 2 * t]


def _check_branch(compiled: CompiledPattern, forced_outcomes) -> Dict[int, int]:
    missing = [n for n in compiled.measured_nodes if n not in forced_outcomes]
    if missing:
        raise PatternError(
            f"branch must force all outcomes; missing {sorted(missing)}"
        )
    for node in compiled.measured_nodes:
        if forced_outcomes[node] not in (0, 1):
            raise PatternError(f"forced outcome for node {node} must be 0 or 1")
    return {node: forced_outcomes[node] for node in compiled.measured_nodes}


class StatevectorBackend:
    """Dense batched-statevector execution (applicable to every pattern
    except programs carrying lowered non-Pauli channels, which cannot be
    trajectory-sampled — those need the density engine)."""

    name = "statevector"
    byte_model_note = "2^max_live dense amplitudes"

    def supports(self, compiled: CompiledPattern) -> bool:
        return not compiled.has_non_pauli_channel

    def bytes_per_shot(self, compiled: CompiledPattern) -> int:
        """``16 · 2^max_live`` amplitudes per batch element — the registry
        hook the resource estimator builds its per-engine rows from."""
        return 16 * (1 << compiled.max_live)

    def run_branch_batch(
        self,
        compiled: CompiledPattern,
        inputs: np.ndarray,
        forced_outcomes: Mapping[int, int],
    ) -> BranchRun:
        _check_branch_noiseless(compiled, self.name)
        forced = _check_branch(compiled, forced_outcomes)
        inputs = np.asarray(inputs, dtype=complex)
        sv = BatchedStateVector.from_arrays(inputs)
        if sv.num_qubits != compiled.num_inputs:
            raise PatternError(
                f"the {self.name} engine expects an input block of shape "
                f"(B, {1 << compiled.num_inputs}) for this pattern's "
                f"{compiled.num_inputs} inputs, got {sv.num_qubits}-qubit rows"
            )
        weights = np.ones(sv.batch_size, dtype=float)
        outcomes: Dict[int, int] = {}
        for op in compiled.ops:
            tp = type(op)
            if tp is PrepOp:
                sv.add_qubit(op.state)
            elif tp is EntangleOp:
                sv.apply_cz(*op.slots)
            elif tp is MeasureOp:
                s = signal_parity(outcomes, op.s_domain)
                t = signal_parity(outcomes, op.t_domain)
                out = forced[op.node]
                weights *= sv.measure_forced(op.slot, op.bases[s + 2 * t], out)
                outcomes[op.node] = out
            elif tp is ConditionalOp:
                if signal_parity(outcomes, op.domain):
                    sv.apply_1q(op.matrix, op.slot)
            else:  # UnitaryOp
                sv.apply_1q(op.matrix, op.slot)
        sv.permute(compiled.out_perm)
        return BranchRun(outcomes=outcomes, states=sv.to_arrays(), weights=weights)

    def sample_batch(
        self,
        compiled: CompiledPattern,
        n_shots: int,
        rng: SeedLike = None,
        input_state: Optional[np.ndarray] = None,
        forced_outcomes: Optional[Mapping[int, int]] = None,
        noise: Optional[object] = None,
        keep_raw: bool = False,
    ) -> SampleRun:
        # keep_raw is accepted for interface uniformity; the dense sweep
        # materializes the state block either way, so there is nothing to
        # drop and `states` is always filled.
        _check_n_shots(n_shots, self.name)
        rng = ensure_rng(rng)
        forced = dict(forced_outcomes or {})
        if noise is not None:
            compiled = lower_noise(compiled, noise)
        row = _input_row(compiled, input_state, self.name)
        if n_shots == 0:
            return _empty_sample_run(compiled, keep_raw, dense=True)
        sv = BatchedStateVector.from_arrays(np.tile(row, (n_shots, 1)))
        rec: Dict[int, np.ndarray] = {}  # node -> (B,) outcome bits
        since_renorm = 0
        for op in compiled.ops:
            tp = type(op)
            if tp is PrepOp:
                sv.add_qubit(op.state)
            elif tp is EntangleOp:
                sv.apply_cz(*op.slots)
            elif tp is MeasureOp:
                s = _parity_vec(rec, op.s_domain, n_shots)
                t = _parity_vec(rec, op.t_domain, n_shots)
                vecs = _measure_vecs(op, s, t)  # (B, 2, 2) per-element bases
                outs, _probs = sv.measure_sampled(
                    op.slot, vecs, rng=rng, force=forced.get(op.node),
                    renormalize=False,
                )
                # Outcome draws only need amplitude ratios, so per-step
                # normalization is deferred — but each projection shrinks
                # the norm (typically by ~1/2), so rescale periodically to
                # keep thousand-measurement patterns clear of underflow.
                since_renorm += 1
                if since_renorm >= 64:
                    sv.renormalize()
                    since_renorm = 0
                if op.flip_p > 0.0:
                    # Readout flip: corrupts downstream adaptivity too.
                    outs = outs ^ (rng.random(n_shots) < op.flip_p)
                rec[op.node] = outs.astype(np.int8)
            elif tp is ConditionalOp:
                fire = _parity_vec(rec, op.domain, n_shots).astype(bool)
                sv.apply_1q_masked(op.matrix, op.slot, fire)
            elif tp is ChannelOp:
                _sample_pauli_channel_batch(sv, op, rng)
            else:  # UnitaryOp
                sv.apply_1q(op.matrix, op.slot)
        sv.permute(compiled.out_perm)
        outcomes = (
            np.stack([rec[n] for n in compiled.measured_nodes], axis=1)
            if compiled.measured_nodes
            else np.zeros((n_shots, 0), dtype=np.int8)
        )
        # Normalization was deferred through the measurement sweep (outcome
        # probabilities only need amplitude ratios); restore unit rows once.
        states = sv.to_arrays()
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        return SampleRun(
            nodes=compiled.measured_nodes, outcomes=outcomes, states=states
        )


def _parity_vec(rec: Dict[int, np.ndarray], domain, n_shots: int) -> np.ndarray:
    """Per-element XOR of recorded outcome vectors over ``domain``."""
    parity = np.zeros(n_shots, dtype=np.int8)
    for node in domain:
        parity ^= rec[node]
    return parity


def _check_branch_noiseless(compiled: CompiledPattern, name: str) -> None:
    """Forced-branch extraction on a trajectory engine is only defined for
    noiseless programs — a sampled channel would make the branch map a
    random variable.  The density engine integrates channels exactly and
    accepts noise-lowered programs."""
    if compiled.has_noise:
        raise PatternError(
            f"backend {name!r} cannot run forced branches of a noise-lowered "
            f"program; use the 'density' backend for exact noisy branch maps"
        )


def _require_pauli_channel(op: ChannelOp) -> Tuple[float, float, float, float]:
    if op.pauli_probs is None:
        raise PatternError(
            f"channel {op.label!r} is not a Pauli mixture; trajectory engines "
            f"cannot sample it — run the 'density' backend (exact integration)"
        )
    return op.pauli_probs


def _sample_pauli_channel_batch(sv: BatchedStateVector, op: ChannelOp, rng) -> None:
    """Sample ``op``'s Pauli mixture independently per batch element."""
    faults = draw_pauli_fault_batch(op, rng, sv.batch_size)
    if faults is not None:
        sv.apply_paulis(op.slot, faults)


class StabilizerBackend:
    """Stabilizer-tableau execution for Clifford-angle patterns.

    Applicable exactly when the compile-time classifier tagged every op
    Clifford (:attr:`CompiledPattern.is_clifford`).  Slot add/remove is
    mapped onto tableau columns: the tableau grows one column per prepared
    node and measured columns stay behind, collapsed in place, so the cost
    is ``O(total_nodes²)`` bits instead of ``2^max_live`` amplitudes.
    Forced Pauli measurements carry exact branch weights — 1/2 per random
    outcome, 1 per deterministic one — and forcing against a deterministic
    outcome raises :class:`~repro.sim.statevector.ZeroProbabilityBranch`
    (zero-weight branch), mirroring the dense engine's semantics.

    Branch outputs are :class:`StabilizerOutput` tableaus, batched
    ``sample_batch`` outputs :class:`PackedStabilizerOutput` views into one
    shared extraction; densification (which loses only a global phase)
    happens on demand.  Input rows must be stabilizer product rows the
    engine recognizes: computational basis columns (what
    :func:`~repro.mbqc.runner.pattern_to_matrix` sends) or the uniform
    ``|+>^k`` row (the default pattern input).
    """

    name = "stabilizer"
    byte_model_note = "total-nodes scalar tableau"

    def supports(self, compiled: CompiledPattern) -> bool:
        return compiled.is_clifford

    def bytes_per_shot(self, compiled: CompiledPattern) -> int:
        """``4·n² + 2·n`` tableau bytes over ``n = total_nodes`` (the
        scalar per-shot tableau; the bit-packed batched path is strictly
        cheaper) — the resource-estimator registry hook."""
        n = self._total_nodes(compiled)
        return 4 * n * n + 2 * n

    def _require_clifford(self, compiled: CompiledPattern) -> None:
        if not compiled.is_clifford:
            raise PatternError(
                "pattern is not Clifford (a measurement basis is not Pauli, a "
                "correction is not a single-qubit Clifford, or a lowered "
                "channel is not a Pauli mixture); run it on the statevector "
                "or density backend instead"
            )

    # -- input handling ----------------------------------------------------
    def _total_nodes(self, compiled: CompiledPattern) -> int:
        """Tableau width: inputs plus every node the pattern prepares."""
        return compiled.num_inputs + sum(
            1 for op in compiled.ops if type(op) is PrepOp
        )

    def _classify_input_row(self, row: np.ndarray) -> Tuple[str, int, float]:
        """``row`` as a recognized stabilizer product: ``(kind, bits, log2w)``.

        ``kind`` is ``"basis"`` (computational column ``bits``) or
        ``"uniform"`` (the ``|+>^k`` row); ``log2w`` is the log-2 squared
        input norm.  Shared by the per-shot and the batched initializers so
        the two execution paths cannot diverge on input acceptance.
        """
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size == 1:
            return "basis", int(nz[0]), float(np.log2(abs(row[nz[0]]) ** 2))
        if nz.size == row.size and np.allclose(row, row[0], atol=1e-12):
            return "uniform", 0, float(np.log2(np.vdot(row, row).real))
        raise PatternError(
            f"the {self.name} engine accepts computational-basis or uniform "
            f"|+>^k input rows only; use the statevector backend for general "
            f"inputs"
        )

    def _init_tableau(
        self, compiled: CompiledPattern, row: np.ndarray, n_total: int
    ) -> Tuple[Optional[StabilizerState], float]:
        """Full-width tableau with the input columns in state ``row`` (all
        prep columns start ``|0>`` and are rotated when their ``PrepOp``
        executes — preallocating avoids an O(n²) tableau copy per prepared
        node).  Returns the tableau (``None`` when the pattern has no
        nodes at all) and the log-2 squared input norm.
        """
        k = compiled.num_inputs
        if n_total == 0:
            w = float(abs(row[0]) ** 2)
            if w <= 0.0:
                raise PatternError(
                    f"the {self.name} engine got an input row with zero norm"
                )
            return None, float(np.log2(w))
        kind, bits, log2_w = self._classify_input_row(row)
        st = StabilizerState(n_total)
        if kind == "basis":
            for q in range(k):
                if (bits >> q) & 1:
                    st.x_gate(q)
        else:
            for q in range(k):
                st.h(q)
        return st, log2_w

    # -- per-shot (scalar) execution ----------------------------------------
    def _run_one(
        self,
        compiled: CompiledPattern,
        st: Optional[StabilizerState],
        log2_weight: float,
        draws,
        forced: Mapping[int, int],
    ) -> Tuple[StabilizerOutput, Dict[int, int]]:
        """Execute one trajectory/branch on one (preallocated) tableau.

        ``forced`` pins outcomes for the nodes it contains; the rest are
        sampled through ``draws`` (:class:`_GeneratorDraws` on the per-shot
        sampling loop; branch runs, which force everything and are
        noiseless-checked, pass ``None``).  Replays the compiled slot
        dynamics against monotonically assigned tableau columns:
        ``slot_cols[s]`` is the column of the node currently in slot ``s``.
        """
        next_col = compiled.num_inputs
        slot_cols = list(range(next_col))
        outcomes: Dict[int, int] = {}
        for op in compiled.ops:
            tp = type(op)
            if tp is PrepOp:
                col = next_col
                next_col += 1
                # The column starts |0>; rotate it into the prep state.
                if op.label in ("plus", "minus"):
                    st.h(col)
                    if op.label == "minus":
                        st.z_gate(col)
                elif op.label == "one":
                    st.x_gate(col)
                slot_cols.append(col)
            elif tp is EntangleOp:
                st.cz(slot_cols[op.slots[0]], slot_cols[op.slots[1]])
            elif tp is ChannelOp:
                if draws is not None:
                    i = draws.fault(op)
                    if i >= 0:
                        st.apply_named(_PAULI_GATES[i], (slot_cols[op.slot],))
            elif tp is MeasureOp:
                s = signal_parity(outcomes, op.s_domain)
                t = signal_parity(outcomes, op.t_domain)
                label, flip = op.pauli[s + 2 * t]
                col = slot_cols.pop(op.slot)
                pinned = forced.get(op.node)
                try:
                    tab_out, prob = st.measure_pauli_info(
                        col, label,
                        rng=None if draws is None else draws.outcome,
                        force=None if pinned is None else pinned ^ flip,
                    )
                except ForcedOutcomeContradiction:
                    raise ZeroProbabilityBranch(
                        f"forced outcome {pinned} on node {op.node} has "
                        f"probability 0 (deterministic Pauli measurement)"
                    ) from None
                if prob == 0.5:  # random outcome; deterministic ones weigh 1
                    log2_weight -= 1.0
                out = tab_out ^ flip
                if op.flip_p > 0.0 and draws is not None and draws.flip(op.flip_p):
                    out ^= 1  # readout flip corrupts downstream adaptivity
                outcomes[op.node] = out
            elif tp is ConditionalOp:
                if signal_parity(outcomes, op.domain):
                    col = slot_cols[op.slot]
                    for name in op.clifford:
                        st.apply_named(name, (col,))
            else:  # UnitaryOp
                col = slot_cols[op.slot]
                for name in op.clifford:
                    st.apply_named(name, (col,))
        out_cols = tuple(slot_cols[s] for s in compiled.out_perm)
        return StabilizerOutput(st, out_cols, log2_weight), outcomes

    def run_branch_batch(
        self,
        compiled: CompiledPattern,
        inputs: np.ndarray,
        forced_outcomes: Mapping[int, int],
    ) -> BranchRun:
        self._require_clifford(compiled)
        _check_branch_noiseless(compiled, self.name)
        forced = _check_branch(compiled, forced_outcomes)
        inputs = np.asarray(inputs, dtype=complex)
        if inputs.ndim != 2 or inputs.shape[1] != 1 << compiled.num_inputs:
            raise PatternError(
                f"the {self.name} engine expects an input block of shape "
                f"(B, {1 << compiled.num_inputs}) for this pattern's "
                f"{compiled.num_inputs} inputs, got {inputs.shape}"
            )
        n_total = self._total_nodes(compiled)
        raw: List[StabilizerOutput] = []
        for row in inputs:
            st, log2_w = self._init_tableau(compiled, row, n_total)
            out, _ = self._run_one(compiled, st, log2_w, None, forced)
            raw.append(out)
        return BranchRun(
            outcomes=forced,
            weights=np.array([o.weight for o in raw]),
            raw=tuple(raw),
        )

    # -- trajectory sampling -------------------------------------------------
    def sample_batch(
        self,
        compiled: CompiledPattern,
        n_shots: int,
        rng: SeedLike = None,
        input_state: Optional[np.ndarray] = None,
        forced_outcomes: Optional[Mapping[int, int]] = None,
        noise: Optional[object] = None,
        keep_raw: bool = False,
    ) -> SampleRun:
        """Sample ``n_shots`` trajectories, vectorized across the shot block.

        Advances one :class:`~repro.stab.batched.BatchedTableau` — a shared
        bit-packed GF(2) structure with per-shot packed sign bits — through
        a single compiled-op sweep (the tableau analogue of the dense
        engine's ``measure_sampled``/``apply_1q_masked`` sweep).  Programs
        the batched tableau cannot execute (empty register, a non-Pauli
        conditional, or a measurement whose effective bases span several
        Pauli axes) run the per-shot loop instead, automatically.

        ``keep_raw`` (default off) retains per-shot outputs: O(n_out)-per-
        shot :class:`PackedStabilizerOutput` views into one shared
        extraction on the batched sweep, full :class:`StabilizerOutput`
        tableaus on the per-shot loop.
        """
        _check_n_shots(n_shots, self.name)
        rng = ensure_rng(rng)
        forced = dict(forced_outcomes or {})
        if noise is not None:
            compiled = lower_noise(compiled, noise)
        self._require_clifford(compiled)
        row = _input_row(compiled, input_state, self.name)
        if n_shots == 0:
            return _empty_sample_run(compiled, keep_raw)
        n_total = self._total_nodes(compiled)
        if n_total > 0 and _batch_applicable(compiled):
            return self._sample_batch_vectorized(
                compiled, n_shots, rng, row, forced, keep_raw, n_total
            )
        return self._sample_batch_loop(
            compiled, n_shots, rng, row, forced, keep_raw, n_total
        )

    def _sample_batch_loop(
        self,
        compiled: CompiledPattern,
        n_shots: int,
        rng,
        row: np.ndarray,
        forced: Mapping[int, int],
        keep_raw: bool,
        n_total: int,
    ) -> SampleRun:
        """Per-shot sampler for programs the batched tableau rejects: one
        scalar tableau per shot, drawing shot by shot from the generator
        (:class:`_GeneratorDraws`).  A non-Pauli conditional diverges the
        X/Z structure per shot, and with it which later measurements are
        random, so no whole-block draw schedule exists for these programs.
        """
        draws = _GeneratorDraws(rng)
        raw: List[StabilizerOutput] = []
        outs = np.zeros((n_shots, len(compiled.measured_nodes)), dtype=np.int8)
        for j in range(n_shots):
            st, log2_w = self._init_tableau(compiled, row, n_total)
            out, outcomes = self._run_one(compiled, st, log2_w, draws, forced)
            if keep_raw:
                raw.append(out)
            for i, node in enumerate(compiled.measured_nodes):
                outs[j, i] = outcomes[node]
        return SampleRun(
            nodes=compiled.measured_nodes,
            outcomes=outs,
            raw=tuple(raw) if keep_raw else None,
        )

    def _sample_batch_vectorized(
        self,
        compiled: CompiledPattern,
        n_shots: int,
        rng,
        row: np.ndarray,
        forced: Mapping[int, int],
        keep_raw: bool,
        n_total: int,
    ) -> SampleRun:
        """One compiled-op sweep over the whole shot block.

        Unconditional Cliffords update the shared packed structure once;
        per-shot divergence (adaptive corrections, Pauli faults, readout
        flips, outcome records) lives entirely in packed shot words.
        Grouped op runs (:attr:`CompiledPattern.grouped_ops`) keep the
        Python dispatch per *run* of same-kind ops.
        """
        tab = BatchedTableau(n_total, n_shots)
        kind, bits, log2_w = self._classify_input_row(row)
        if kind == "basis":
            for q in range(compiled.num_inputs):
                if (bits >> q) & 1:
                    tab.x_gate(q)
        else:
            for q in range(compiled.num_inputs):
                tab.h(q)
        tab.log2_weight += log2_w
        wb = tab.wb
        shot_mask = tab.shot_mask
        rec: Dict[int, np.ndarray] = {}  # node -> packed per-shot outcome bits
        next_col = compiled.num_inputs
        slot_cols = list(range(next_col))
        for tp, run in compiled.grouped_ops:
            if tp is PrepOp:
                for op in run:
                    tab.prep_column(next_col, op.label)
                    slot_cols.append(next_col)
                    next_col += 1
            elif tp is EntangleOp:
                for op in run:
                    tab.cz(slot_cols[op.slots[0]], slot_cols[op.slots[1]])
            elif tp is ChannelOp:
                for op in run:
                    faults = draw_pauli_fault_batch(op, rng, n_shots)
                    if faults is None:
                        continue
                    col = slot_cols[op.slot]
                    for i, name in enumerate(_PAULI_GATES):
                        mask = faults == i
                        if mask.any():
                            tab.apply_pauli_masked(name, col, pack_bits(mask))
            elif tp is MeasureOp:
                for op in run:
                    s = _parity_words(rec, op.s_domain, wb)
                    t = _parity_words(rec, op.t_domain, wb)
                    label = op.pauli[0][0]  # one Pauli axis per basis table
                    flip_words = _flip_table_words(op.pauli, s, t)
                    col = slot_cols.pop(op.slot)
                    pinned = forced.get(op.node)
                    force_words = None
                    if pinned is not None:
                        force_words = ~flip_words if pinned else flip_words
                    out_words, random_ = tab.measure_pauli(
                        col,
                        label,
                        outcome_provider=lambda: pack_bits(
                            rng.integers(2, size=n_shots).astype(bool)
                        ),
                        force_words=force_words,
                    )
                    if not random_ and force_words is not None:
                        if ((out_words ^ force_words) & shot_mask).any():
                            raise ZeroProbabilityBranch(
                                f"forced outcome {pinned} on node {op.node} "
                                f"has probability 0 (deterministic Pauli "
                                f"measurement)"
                            )
                    out_words = out_words ^ flip_words
                    if op.flip_p > 0.0:
                        out_words = out_words ^ pack_bits(
                            _draw_flips(rng, n_shots, op.flip_p)
                        )
                    rec[op.node] = out_words
            elif tp is ConditionalOp:
                for op in run:
                    fire = _parity_words(rec, op.domain, wb)
                    if not (fire & shot_mask).any():
                        continue
                    col = slot_cols[op.slot]
                    for name in op.clifford:
                        tab.apply_pauli_masked(name, col, fire)
            else:  # UnitaryOp
                for op in run:
                    col = slot_cols[op.slot]
                    for name in op.clifford:
                        tab.apply_named(name, (col,))
        out_cols = tuple(slot_cols[s] for s in compiled.out_perm)
        outcomes = (
            np.stack(
                [
                    unpack_shot_bits(rec[node], n_shots)
                    for node in compiled.measured_nodes
                ],
                axis=1,
            )
            if compiled.measured_nodes
            else np.zeros((n_shots, 0), dtype=np.int8)
        )
        raw = None
        if keep_raw:
            shared = _BatchedExtraction(tab, out_cols)
            raw = tuple(
                PackedStabilizerOutput(shared, j) for j in range(n_shots)
            )
        return SampleRun(
            nodes=compiled.measured_nodes, outcomes=outcomes, raw=raw
        )


def draw_pauli_fault_batch(
    op: ChannelOp, rng, n_shots: int
) -> Optional[np.ndarray]:
    """Sample ``op``'s Pauli mixture for a whole shot block in one RNG call.

    Returns an ``(n_shots,)`` ``int8`` vector — ``-1`` identity, ``0``/
    ``1``/``2`` = X/Y/Z — or ``None`` (no randomness consumed) when the
    mixture carries no error weight.  The single ``rng.random(n_shots)``
    draw is partitioned by the cumulative threshold layout
    ``[identity | X | Y | Z]``, so the consumed stream is a fixed function
    of the op.  This is the one fault-draw contract of every trajectory
    engine."""
    _, px, py, pz = _require_pauli_channel(op)
    total = px + py + pz
    if total <= 0.0:
        return None
    u = rng.random(n_shots)
    faults = np.full(n_shots, -1, dtype=np.int8)
    lo = 1.0 - total
    for i, p in enumerate((px, py, pz)):
        if p > 0.0:
            faults[(u >= lo) & (u < lo + p)] = i
        lo += p
    return faults


def _draw_flips(rng, n_shots: int, p: float) -> np.ndarray:
    """One whole-block readout-flip draw."""
    return rng.random(n_shots) < p


class _ShotDrawTable:
    """Whole-block ``(n_shots,)`` randomness vectors, drawn once in op order
    and replayed by every chunk of a chunked sweep.

    The MPS and density engines sweep resident shot chunks op-major: each
    chunk calls :meth:`start_pass`, then reads the block vector at each
    randomness-consuming op and slices out its shot range.  The first
    chunk triggers the draws, later chunks replay them, so seeded records
    are identical for every chunk size.
    """

    def __init__(self, rng, n_shots: int):
        self._rng = rng
        self._n = n_shots
        self._vecs: List[np.ndarray] = []
        self._cursor = 0

    def start_pass(self) -> None:
        """Begin one chunk's pass: reads replay the schedule from the top."""
        self._cursor = 0

    def _pull_vec(self, drawer) -> np.ndarray:
        k = self._cursor
        self._cursor += 1
        if k == len(self._vecs):
            self._vecs.append(drawer())
        return self._vecs[k]

    def uniform_vec(self) -> np.ndarray:
        """The ``(n_shots,)`` uniform block of an unpinned measurement."""
        return self._pull_vec(lambda: self._rng.random(self._n))

    def flip_vec(self, p: float) -> np.ndarray:
        """The ``(n_shots,)`` readout-flip block of a noisy readout."""
        return self._pull_vec(lambda: _draw_flips(self._rng, self._n, p))

    def fault_vec(self, op: ChannelOp) -> Optional[np.ndarray]:
        """The ``(n_shots,)`` fault block of a Pauli channel (``None`` when
        the channel is weightless and consumes no randomness)."""
        _, px, py, pz = _require_pauli_channel(op)
        if px + py + pz <= 0.0:
            return None
        return self._pull_vec(
            lambda: draw_pauli_fault_batch(op, self._rng, self._n)
        )


class _GeneratorDraws:
    """Shot-by-shot draws straight from the generator, for the stabilizer
    per-shot loop (programs with a shot-dependent draw schedule).  Faults
    use the :func:`draw_pauli_fault_batch` partition at block size 1."""

    def __init__(self, rng):
        self._rng = rng

    def outcome(self) -> int:
        return int(self._rng.integers(2))

    def flip(self, p: float) -> bool:
        return bool(self._rng.random() < p)

    def fault(self, op: ChannelOp) -> int:
        faults = draw_pauli_fault_batch(op, self._rng, 1)
        return -1 if faults is None else int(faults[0])


def _parity_words(
    rec: Dict[int, np.ndarray], domain, wb: int
) -> np.ndarray:
    """Packed per-shot XOR of recorded outcome words over ``domain``."""
    out = np.zeros(wb, dtype=np.uint64)
    for node in domain:
        out = out ^ rec[node]
    return out


def _flip_table_words(
    pauli, s_words: np.ndarray, t_words: np.ndarray
) -> np.ndarray:
    """Per-shot flip bits of a Pauli measurement table, packed.

    The four effective bases of one measurement share a Pauli axis; only
    the ``flip`` bit is adaptive, a boolean function of the per-shot
    ``(s, t)`` parities evaluated here with four word ops."""
    out = np.zeros(s_words.shape, dtype=np.uint64)
    flips = tuple(flip for _, flip in pauli)
    if flips[0]:
        out ^= ~s_words & ~t_words
    if flips[1]:
        out ^= s_words & ~t_words
    if flips[2]:
        out ^= ~s_words & t_words
    if flips[3]:
        out ^= s_words & t_words
    return out


def _batch_applicable(compiled: CompiledPattern) -> bool:
    """Whether the batched tableau can execute ``compiled``.

    Every per-shot-divergent op must act on sign bits only (a Pauli), and
    each measurement's four effective bases must share one Pauli axis so
    the adaptive part reduces to the flip bit.  All compiler-produced
    Clifford programs qualify (corrections lower to X/Z, and negating an
    angle or adding π preserves a Pauli axis); the guard routes hand-built
    op streams to the per-shot loop."""
    for op in compiled.ops:
        tp = type(op)
        if tp is MeasureOp:
            if op.pauli is None or len({lab for lab, _ in op.pauli}) != 1:
                return False
        elif tp is ConditionalOp:
            if op.clifford is None or any(
                g not in _PAULI_GATES for g in op.clifford
            ):
                return False
        elif tp is UnitaryOp and op.clifford is None:
            return False
    return True


# -- registry ---------------------------------------------------------------

_REGISTRY: Dict[str, PatternBackend] = {}


def register_backend(backend: PatternBackend, name: Optional[str] = None) -> None:
    """Register an engine under ``name`` (default: ``backend.name``)."""
    _REGISTRY[name or backend.name] = backend


def available_backends() -> Tuple[str, ...]:
    """Registered engine names."""
    return tuple(sorted(_REGISTRY))


def list_backends() -> Tuple[str, ...]:
    """Registered engine names — the stable consumer-facing alias the CLI
    derives its ``--backend`` choices from at parse time, so a newly
    registered engine appears everywhere without touching ``cli.py``."""
    return available_backends()


def get_backend(name: str) -> PatternBackend:
    """Look up a registered engine by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PatternError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None


def _check_byte_budget(
    compiled: CompiledPattern, backend_name: str, max_bytes: Optional[int]
) -> None:
    """Raise an actionable R101 diagnostic when ``backend_name`` would
    allocate more than the per-shot budget for this pattern (instead of
    the raw numpy MemoryError the allocation itself would produce)."""
    budget = PEAK_BYTE_BUDGET if max_bytes is None else int(max_bytes)
    if budget <= 0:
        return
    from repro.analysis.resources import (
        budget_diagnostic_message,
        estimate_compiled,
    )

    est = estimate_compiled(compiled)
    try:
        per_shot = est.bytes_per_shot(backend_name)
    except ValueError:
        return  # externally registered engine with no byte model
    if per_shot > budget:
        raise PatternError(
            budget_diagnostic_message(est, backend_name, budget, compiled)
        )


def select_backend(
    compiled: CompiledPattern,
    prefer: Union[str, PatternBackend, None] = "auto",
    dense_outputs: bool = False,
    max_bytes: Optional[int] = None,
) -> PatternBackend:
    """Pick an engine for ``compiled``.

    ``prefer`` may be a backend instance (returned as-is after a
    ``supports`` check), a registered name (strict: raises
    :class:`PatternError` when the engine cannot execute the pattern — e.g.
    a non-Clifford pattern forced onto the stabilizer engine), or
    ``"auto"``/``None``: dense statevector while the peak register fits in
    ``DENSE_AUTO_MAX_LIVE`` qubits, the stabilizer fast path beyond that
    for Clifford-classified patterns, and the MPS engine beyond that for
    non-Clifford patterns whose compile-time ``interaction_width`` stays
    within :data:`MPS_AUTO_MAX_WIDTH` (bounded-entanglement line/ring
    patterns at bond-dimension cost).

    The selected engine's statically-estimated per-shot footprint (see
    :func:`repro.analysis.estimate_compiled`) is checked against
    ``max_bytes`` (default :data:`PEAK_BYTE_BUDGET`; ``0`` disables): an
    over-budget route raises :class:`PatternError` carrying the ``R101``
    diagnostic with concrete alternatives, rather than OOMing later.

    Automatic dispatch only picks the stabilizer engine for
    state-preparation patterns (no inputs): tableau columns carry no global
    phase, so a multi-column branch map would have phase-incoherent columns
    — explicit ``prefer="stabilizer"`` still allows it, with that caveat.
    Consumers that must densify the outputs (``run_pattern``, the solver's
    sampler, dense branch maps) pass ``dense_outputs=True``, which keeps
    auto-dispatch dense whenever the output register exceeds the
    ``DENSE_EXTRACT_MAX``-qubit densification cap.
    """
    if prefer is None:
        prefer = "auto"
    if not isinstance(prefer, str):
        if not prefer.supports(compiled):
            raise PatternError(
                f"backend {getattr(prefer, 'name', prefer)!r} cannot execute "
                f"this pattern"
            )
        return prefer
    if prefer != "auto":
        backend = get_backend(prefer)
        if not backend.supports(compiled):
            raise PatternError(
                f"backend {prefer!r} cannot execute this pattern"
                + (
                    ": it is not Clifford (non-Pauli measurement bases or "
                    "non-Clifford corrections); use 'statevector' or 'auto'"
                    if prefer == "stabilizer"
                    else ""
                )
            )
        _check_byte_budget(compiled, backend.name, max_bytes)
        return backend
    if compiled.has_non_pauli_channel:
        # Non-Pauli channels cannot be trajectory-sampled: the density
        # engine is the only one that executes such a program (exactly).
        dens = _REGISTRY.get("density")
        if dens is not None and dens.supports(compiled):
            _check_byte_budget(compiled, dens.name, max_bytes)
            return dens
        raise PatternError(
            "pattern carries non-Pauli channels beyond the density engine's "
            "reach; no registered backend can execute it"
        )
    if (
        compiled.max_live > DENSE_AUTO_MAX_LIVE
        and compiled.num_inputs == 0
        and not (dense_outputs and compiled.num_outputs > DENSE_EXTRACT_MAX)
    ):
        stab = _REGISTRY.get("stabilizer")
        if stab is not None and stab.supports(compiled):
            _check_byte_budget(compiled, stab.name, max_bytes)
            return stab
        # Non-Clifford past dense reach: bounded interaction width means a
        # matrix-product chain executes it at bond-dimension cost.
        if compiled.interaction_width <= MPS_AUTO_MAX_WIDTH:
            mps = _REGISTRY.get("mps")
            if mps is not None and mps.supports(compiled):
                _check_byte_budget(compiled, mps.name, max_bytes)
                return mps
    backend = get_backend("statevector")
    _check_byte_budget(compiled, backend.name, max_bytes)
    return backend


def resolve_backend(
    backend: Union[str, PatternBackend, None],
    compiled: CompiledPattern,
    dense_outputs: bool = False,
) -> PatternBackend:
    """Coerce a user-supplied ``backend`` argument (name, instance, or
    ``None`` for automatic dispatch) to an engine for ``compiled``."""
    if backend is None or isinstance(backend, str):
        return select_backend(compiled, backend, dense_outputs=dense_outputs)
    return backend


def default_backend() -> PatternBackend:
    """The shared dense engine (kept for API compatibility; prefer
    :func:`select_backend` for automatic dispatch)."""
    return get_backend("statevector")


register_backend(StatevectorBackend())
register_backend(StabilizerBackend())

# The density-matrix engine lives in its own module (it pulls in the
# repro.sim.density substrate) and registers itself on import.
import repro.mbqc.density_backend  # noqa: E402,F401  (registers "density")

# The matrix-product-state engine likewise registers itself on import.
import repro.mbqc.mps_backend  # noqa: E402,F401  (registers "mps")
