"""Pattern pre-compilation: slot lifetimes, basis tables, Clifford fusion.

Interpreting a :class:`~repro.mbqc.pattern.Pattern` command-by-command pays
per-command bookkeeping in the hot path: node-to-slot register compaction
on every measurement (an O(live-qubits) dict scan), a fresh
:class:`~repro.sim.statevector.MeasurementBasis` construction per ``M``, and
one ``apply_1q`` per ``C``.  :func:`compile_pattern` hoists all of that to a
one-time compile:

- **slot lifetimes** — the simulator removes a measured qubit's tensor axis,
  so every node's slot index over time is a pure function of the command
  order (outcome-independent).  The compile walk replays the register once
  and bakes the concrete slot into each op, so execution does O(1) lookups
  and no register exists at run time.
- **basis tables** — an ``M`` command's effective angle is
  ``(-1)^s·angle + t·π`` with ``s, t ∈ {0, 1}``, so each measurement has at
  most four distinct bases; all four are prebuilt per command.
- **Clifford fusion** — consecutive ``C`` commands on the same node are
  fused into a single 2x2 matrix at compile time.
- **dead-code elimination** — ``X``/``Z`` corrections with an empty signal
  domain can never fire and are dropped.
- **Clifford classification** — each measurement basis table is checked
  against the Pauli eigenbases and each unitary against the single-qubit
  Clifford group (as an ``h``/``s`` word); :attr:`CompiledPattern.is_clifford`
  is true iff every op passed, which is what lets the backend registry
  (:mod:`repro.mbqc.backend`) dispatch the pattern to the stabilizer-tableau
  engine instead of the dense simulator.

The compiled program is a flat tuple of frozen ops consumed by both the
sequential interpreter (:func:`repro.mbqc.runner.run_pattern`) and the
batched backend (:mod:`repro.mbqc.backend`).  Ill-formed references —
entangling, measuring, or correcting an unknown or already-measured node —
surface as :class:`~repro.mbqc.pattern.PatternError` here even when pattern
validation is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.linalg.gates import HADAMARD, PAULI_X, PAULI_Y, PAULI_Z, S_GATE
from repro.mbqc.channels import Channel, ChannelNoiseModel, as_channel_model
from repro.linalg.gates import rx as _rx, ry as _ry, rz as _rz
from repro.mbqc.pattern import (
    CommandC,
    CommandE,
    CommandM,
    CommandN,
    CommandX,
    CommandZ,
    Pattern,
    PatternError,
)
from repro.sim.statevector import (
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    MeasurementBasis,
)

_PREP = {"plus": KET_PLUS, "minus": KET_MINUS, "zero": KET_0, "one": KET_1}
_CLIFFORD = {
    "h": HADAMARD,
    "s": S_GATE,
    "sdg": S_GATE.conj().T,
    "x": PAULI_X,
    "y": PAULI_Y,
    "z": PAULI_Z,
}

# (label, +1 eigenvector) for each single-qubit Pauli; the -1 eigenvector of
# X/Z is the other standard basis vector, Y's is (1, -i)/sqrt(2).
_PAULI_EIGS = (
    ("X", KET_PLUS, KET_MINUS),
    ("Y", np.array([1, 1j], dtype=complex) / np.sqrt(2),
          np.array([1, -1j], dtype=complex) / np.sqrt(2)),
    ("Z", KET_0, KET_1),
)


def pauli_of_basis(basis: MeasurementBasis) -> Optional[Tuple[str, int]]:
    """Identify ``basis`` as a Pauli eigenbasis, up to per-vector phase.

    Returns ``(label, flip)`` where projecting onto ``basis.b_m`` equals
    projecting onto the ``(-1)^(m XOR flip)`` eigenspace of Pauli ``label``
    (``flip=1`` means ``b0`` is the -1 eigenvector), or ``None`` when the
    basis is not Pauli.  This is the measurement half of the compile-time
    Clifford classifier.
    """
    b0, _ = basis.vectors()
    for label, plus, minus in _PAULI_EIGS:
        if abs(abs(np.vdot(plus, b0)) - 1.0) < 1e-9:
            return (label, 0)
        if abs(abs(np.vdot(minus, b0)) - 1.0) < 1e-9:
            return (label, 1)
    return None


def _matrix_key(matrix: np.ndarray) -> Optional[bytes]:
    """Global-phase-invariant rounded key for a 2x2 unitary."""
    flat = np.asarray(matrix, dtype=complex).ravel()
    big = np.nonzero(np.abs(flat) > 0.3)[0]
    if big.size == 0:
        return None
    ph = flat[big[0]] / abs(flat[big[0]])
    normed = np.round(flat / ph, 6) + 0.0  # +0.0 kills -0.0
    return normed.tobytes()


@lru_cache(maxsize=1)
def _clifford_words() -> Dict[bytes, Tuple[str, ...]]:
    """All 24 single-qubit Cliffords (up to phase) as shortest h/s words.

    BFS over left-multiplication: a word ``(g1, ..., gk)`` lists gates in
    application order, i.e. the matrix is ``Gk···G1``.  The stabilizer
    backend replays these words on tableau columns.
    """
    table: Dict[bytes, Tuple[str, ...]] = {}
    frontier: List[Tuple[np.ndarray, Tuple[str, ...]]] = [(np.eye(2, dtype=complex), ())]
    table[_matrix_key(frontier[0][0])] = ()
    while frontier:
        nxt: List[Tuple[np.ndarray, Tuple[str, ...]]] = []
        for mat, word in frontier:
            for name in ("h", "s"):
                m2 = _CLIFFORD[name] @ mat
                key = _matrix_key(m2)
                if key not in table:
                    table[key] = word + (name,)
                    nxt.append((m2, word + (name,)))
        frontier = nxt
    return table


def clifford_word(matrix: np.ndarray) -> Optional[Tuple[str, ...]]:
    """``matrix`` as a tableau-gate word (application order), or ``None``.

    Matches against the 24-element single-qubit Clifford group up to global
    phase — the unitary half of the compile-time Clifford classifier.
    """
    key = _matrix_key(matrix)
    if key is None:
        return None
    return _clifford_words().get(key)


@dataclass(frozen=True)
class PrepOp:
    """Append ``node`` in product state ``state`` (lands in slot ``slot``).

    ``label`` is the pattern-level state name (one of ``plus``/``minus``/
    ``zero``/``one``) so non-dense backends need not reverse-engineer the
    amplitudes.
    """

    node: int
    slot: int
    state: np.ndarray
    label: str = "plus"


@dataclass(frozen=True)
class EntangleOp:
    """CZ between two live slots."""

    slots: Tuple[int, int]


@dataclass(frozen=True)
class MeasureOp:
    """Measure ``slot`` (removing it); basis picked from a 4-entry table.

    ``bases[s + 2t]`` is the basis for signal parities ``(s, t)`` — the
    four possible effective angles ``(-1)^s·angle + t·π``.  When every
    entry is a Pauli eigenbasis, ``pauli[s + 2t]`` holds the matching
    ``(label, flip)`` pair (see :func:`pauli_of_basis`); otherwise
    ``pauli`` is ``None`` and the op disqualifies the pattern from the
    stabilizer fast path.
    """

    node: int
    slot: int
    s_domain: Tuple[int, ...]
    t_domain: Tuple[int, ...]
    bases: Tuple[MeasurementBasis, ...]
    pauli: Optional[Tuple[Tuple[str, int], ...]] = None
    basis_block: Optional[np.ndarray] = None
    """``(4, 2, 2)`` array view of ``bases`` (``[s+2t, outcome, component]``)
    — prebuilt so the batched trajectory sampler can gather per-element
    bases with one fancy index instead of re-stacking vectors per call."""
    flip_p: float = 0.0
    """Probability that the *recorded* outcome is flipped (classical readout
    error; corrupts downstream adaptivity).  Set by :func:`lower_noise`."""


@dataclass(frozen=True)
class ConditionalOp:
    """Apply ``matrix`` to ``slot`` iff the outcome parity over ``domain``
    is odd (a compiled ``X``/``Z`` correction).  ``clifford`` is the
    tableau-gate word for ``matrix`` when it is Clifford."""

    slot: int
    domain: Tuple[int, ...]
    matrix: np.ndarray
    clifford: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class UnitaryOp:
    """Apply an unconditional 2x2 ``matrix`` to ``slot`` (fused ``C`` run).
    ``clifford`` is the tableau-gate word for ``matrix`` when it is
    Clifford."""

    slot: int
    matrix: np.ndarray
    clifford: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class ChannelOp:
    """Apply a Kraus channel to ``slot`` — the lowered noise IR.

    Woven into the op stream by :func:`lower_noise` so *every* backend
    executes the identical noise program: the density engine applies
    ``kraus`` exactly; trajectory engines sample ``pauli_probs``
    (``(p_I, p_X, p_Y, p_Z)``, present iff the channel is a Pauli mixture)
    as per-element Pauli faults, and refuse non-Pauli channels.
    """

    slot: int
    kraus: Tuple[np.ndarray, ...]
    label: str
    pauli_probs: Optional[Tuple[float, float, float, float]] = None


CompiledOp = Union[PrepOp, EntangleOp, MeasureOp, ConditionalOp, UnitaryOp, ChannelOp]


@dataclass(frozen=True)
class CompiledPattern:
    """A pattern lowered to slot-resolved ops plus output bookkeeping.

    ``out_perm[j]`` is the final slot of ``output_nodes[j]``; ``max_live``
    is the peak register width (cf. :meth:`Pattern.max_live_nodes`).
    """

    input_nodes: Tuple[int, ...]
    output_nodes: Tuple[int, ...]
    measured_nodes: Tuple[int, ...]
    ops: Tuple[CompiledOp, ...]
    out_perm: Tuple[int, ...]
    max_live: int
    interaction_width: int = 0
    """Peak slot distance across entanglers in compiled order, counting
    only entanglers both of whose operands have already interacted: a
    freshly prepared node is still a known product state, so a linear-chain
    engine can place it adjacent to its partner for free, and its first
    entangler costs nothing regardless of raw slot distance.  Line/ring
    cluster patterns compile to width ≤ 1, dense interaction graphs to
    ~``max_live`` — the statistic :func:`repro.mbqc.backend.select_backend`
    gates MPS auto-dispatch on."""
    noise: Optional[ChannelNoiseModel] = None
    """The channel model lowered into ``ops`` (``None`` for a noiseless
    program).  Set by :func:`lower_noise`."""

    @property
    def num_inputs(self) -> int:
        return len(self.input_nodes)

    @property
    def num_outputs(self) -> int:
        return len(self.output_nodes)

    @cached_property
    def is_clifford(self) -> bool:
        """True iff every op is Clifford: all measurement basis tables are
        Pauli and all (conditional) unitaries are single-qubit Cliffords.

        Such patterns qualify for the stabilizer-tableau fast path
        (:class:`repro.mbqc.backend.StabilizerBackend`); preparation states
        are always stabilizer states, so only measurements and unitaries
        can disqualify.  Lowered Pauli-mixture channels keep the pattern
        Clifford (trajectories sample them as Pauli faults); any other
        channel disqualifies."""
        for op in self.ops:
            tp = type(op)
            if tp is MeasureOp and op.pauli is None:
                return False
            if tp in (UnitaryOp, ConditionalOp) and op.clifford is None:
                return False
            if tp is ChannelOp and op.pauli_probs is None:
                return False
        return True

    @cached_property
    def grouped_ops(self) -> Tuple[Tuple[type, Tuple[CompiledOp, ...]], ...]:
        """``ops`` as runs of consecutive same-kind ops.

        Batch-oriented executors dispatch per *run* instead of per op: a
        prep run becomes one block of direct column initializations on the
        batched tableau, an entangle run one block of CZ sweeps, and so on.
        The flat ``ops`` tuple stays the canonical program — this is a
        derived view, computed once per compiled pattern.
        """
        runs: List[Tuple[type, List[CompiledOp]]] = []
        for op in self.ops:
            tp = type(op)
            if runs and runs[-1][0] is tp:
                runs[-1][1].append(op)
            else:
                runs.append((tp, [op]))
        return tuple((tp, tuple(ops)) for tp, ops in runs)

    @cached_property
    def has_noise(self) -> bool:
        """True iff a noise program is lowered into ``ops`` (any channel op
        or a nonzero readout-flip probability)."""
        for op in self.ops:
            tp = type(op)
            if tp is ChannelOp or (tp is MeasureOp and op.flip_p > 0.0):
                return True
        return False

    @cached_property
    def has_non_pauli_channel(self) -> bool:
        """True iff some lowered channel is not a Pauli mixture — such
        programs cannot be trajectory-sampled and need the density engine."""
        return any(
            type(op) is ChannelOp and op.pauli_probs is None for op in self.ops
        )


def _fast_basis(plane: str, angle: float) -> MeasurementBasis:
    """Build a plane basis without the ``from_vectors`` orthonormality
    round-trip — the rotated Pauli bases are orthonormal by construction,
    and compile-time basis building is on the hot path of branch sweeps."""
    if plane == "XY":
        rot = _rz(angle)
        b0, b1 = rot @ KET_PLUS, rot @ KET_MINUS
    elif plane == "YZ":
        rot = _rx(angle)
        b0, b1 = rot @ KET_0, rot @ KET_1
    else:  # XZ
        rot = _ry(angle)
        b0, b1 = rot @ KET_0, rot @ KET_1
    return MeasurementBasis(tuple(b0), tuple(b1))


@lru_cache(maxsize=4096)
def _basis_table(plane: str, angle: float) -> Tuple[MeasurementBasis, ...]:
    """The four bases one ``M`` command can use, indexed ``s + 2t``.

    Memoized across compiles: QAOA patterns reuse a handful of angles
    (``0``, ``±2γJ``, ``±2β``) across hundreds of measurements.
    """
    return tuple(
        _fast_basis(plane, ((-1.0) ** s) * angle + t * np.pi)
        for s, t in ((0, 0), (1, 0), (0, 1), (1, 1))
    )


@lru_cache(maxsize=4096)
def _basis_block(plane: str, angle: float) -> np.ndarray:
    """The basis table as one ``(4, 2, 2)`` array (memoized alongside
    :func:`_basis_table`; see :attr:`MeasureOp.basis_block`)."""
    block = np.array(
        [[b.b0, b.b1] for b in _basis_table(plane, angle)], dtype=complex
    )
    block.setflags(write=False)
    return block


@lru_cache(maxsize=4096)
def _pauli_table(plane: str, angle: float) -> Optional[Tuple[Tuple[str, int], ...]]:
    """Pauli ``(label, flip)`` per basis-table entry, or ``None`` if any of
    the four effective bases is not a Pauli eigenbasis (memoized alongside
    :func:`_basis_table`)."""
    entries = []
    for basis in _basis_table(plane, angle):
        entry = pauli_of_basis(basis)
        if entry is None:
            return None
        entries.append(entry)
    return tuple(entries)


def compile_pattern(
    pattern: Pattern,
    validate: bool = True,
    verify_ir: bool = False,
) -> CompiledPattern:
    """Lower ``pattern`` to a :class:`CompiledPattern`.

    With ``validate=True`` the full well-formedness check runs first; even
    without it, the compile walk raises :class:`PatternError` on commands
    referencing unknown or already-measured nodes and on signal domains
    over not-yet-measured nodes.

    With ``verify_ir=True`` the emitted op stream is additionally replayed
    through the static dataflow verifier
    (:func:`repro.analysis.analyze`) and a :class:`PatternError` listing
    every error-severity diagnostic is raised if the IR is malformed — an
    end-to-end compiler self-check, useful when developing new lowering
    passes.
    """
    if validate:
        pattern.validate()

    slots: Dict[int, int] = {}
    order: List[int] = []
    for node in pattern.input_nodes:
        slots[node] = len(order)
        order.append(node)
    measured: set = set()
    measured_order: List[int] = []
    ops: List[CompiledOp] = []
    max_live = len(order)
    fresh: set = set()  # prepared but not yet entangled: known product states
    interaction_width = 0

    def live_slot(node: int, what: str) -> int:
        try:
            return slots[node]
        except KeyError:
            state = "already-measured" if node in measured else "unknown"
            raise PatternError(f"{what} targets {state} node {node}") from None

    def check_domain(owner: int, domain) -> Tuple[int, ...]:
        bad = set(domain) - measured
        if bad:
            raise PatternError(
                f"signal for node {owner} references unmeasured nodes {sorted(bad)}"
            )
        return tuple(sorted(domain))

    for cmd in pattern.commands:
        if isinstance(cmd, CommandN):
            if cmd.node in slots:
                raise PatternError(f"node {cmd.node} prepared twice (or is an input)")
            slot = len(order)
            slots[cmd.node] = slot
            order.append(cmd.node)
            max_live = max(max_live, len(order))
            fresh.add(cmd.node)
            ops.append(PrepOp(cmd.node, slot, _PREP[cmd.state], cmd.state))
        elif isinstance(cmd, CommandE):
            s0 = live_slot(cmd.nodes[0], "entangler")
            s1 = live_slot(cmd.nodes[1], "entangler")
            if cmd.nodes[0] not in fresh and cmd.nodes[1] not in fresh:
                interaction_width = max(interaction_width, abs(s0 - s1))
            fresh.discard(cmd.nodes[0])
            fresh.discard(cmd.nodes[1])
            ops.append(EntangleOp((s0, s1)))
        elif isinstance(cmd, CommandM):
            slot = live_slot(cmd.node, "measurement")
            s_dom = check_domain(cmd.node, cmd.s_domain)
            t_dom = check_domain(cmd.node, cmd.t_domain)
            ops.append(
                MeasureOp(
                    cmd.node,
                    slot,
                    s_dom,
                    t_dom,
                    _basis_table(cmd.plane, cmd.angle),
                    _pauli_table(cmd.plane, cmd.angle),
                    _basis_block(cmd.plane, cmd.angle),
                )
            )
            # The simulator removes the measured axis: slots above shift down.
            order.pop(slot)
            del slots[cmd.node]
            for i in range(slot, len(order)):
                slots[order[i]] = i
            measured.add(cmd.node)
            measured_order.append(cmd.node)
        elif isinstance(cmd, (CommandX, CommandZ)):
            slot = live_slot(cmd.node, "correction")
            dom = check_domain(cmd.node, cmd.domain)
            if dom:  # empty-domain corrections can never fire
                if isinstance(cmd, CommandX):
                    ops.append(ConditionalOp(slot, dom, PAULI_X, ("x",)))
                else:
                    ops.append(ConditionalOp(slot, dom, PAULI_Z, ("z",)))
        elif isinstance(cmd, CommandC):
            slot = live_slot(cmd.node, "Clifford")
            matrix = _CLIFFORD[cmd.gate]
            if ops and isinstance(ops[-1], UnitaryOp) and ops[-1].slot == slot:
                matrix = matrix @ ops[-1].matrix
                ops[-1] = UnitaryOp(slot, matrix, clifford_word(matrix))
            else:
                ops.append(UnitaryOp(slot, matrix, clifford_word(matrix)))
        else:  # pragma: no cover - defensive
            raise PatternError(f"unknown command {cmd!r}")

    out_perm = tuple(live_slot(node, "output") for node in pattern.output_nodes)
    compiled = CompiledPattern(
        input_nodes=tuple(pattern.input_nodes),
        output_nodes=tuple(pattern.output_nodes),
        measured_nodes=tuple(measured_order),
        ops=tuple(ops),
        out_perm=out_perm,
        max_live=max_live,
        interaction_width=interaction_width,
    )
    if verify_ir:
        # Deferred import: repro.analysis sits above the IR in the layering.
        from repro.analysis import analyze

        analyze(compiled).raise_if_errors()
    return compiled


def lower_noise(compiled: CompiledPattern, noise: object) -> CompiledPattern:
    """Attach a noise program to ``compiled`` as explicit per-op channels.

    ``noise`` is anything :func:`repro.mbqc.channels.as_channel_model`
    accepts (a :class:`~repro.mbqc.channels.ChannelNoiseModel`, the
    back-compat ``NoiseModel`` probability bag, or ``None``).  The model's
    ``prep`` channel is woven in after each :class:`PrepOp`, its ``ent``
    channel after each :class:`EntangleOp` on both slots, and ``meas_flip``
    is baked onto each :class:`MeasureOp` — so every backend executes one
    shared noise program instead of reinterpreting probabilities.

    Returns ``compiled`` unchanged for trivial models; lowering twice is an
    error (the noise program would double).
    """
    model = as_channel_model(noise)
    if model is None or model.is_trivial():
        return compiled
    if compiled.has_noise:
        raise PatternError(
            "pattern already carries a lowered noise program; compile a fresh "
            "pattern or pass noise once"
        )

    def channel_op(channel: Channel, slot: int) -> ChannelOp:
        return ChannelOp(slot, channel.kraus, channel.name, channel.pauli_probs)

    prep = None if model.prep is None or model.prep.is_identity() else model.prep
    ent = None if model.ent is None or model.ent.is_identity() else model.ent
    ops: List[CompiledOp] = []
    for op in compiled.ops:
        tp = type(op)
        if tp is MeasureOp and model.meas_flip > 0.0:
            ops.append(replace(op, flip_p=model.meas_flip))
            continue
        ops.append(op)
        if tp is PrepOp and prep is not None:
            ops.append(channel_op(prep, op.slot))
        elif tp is EntangleOp and ent is not None:
            ops.append(channel_op(ent, op.slots[0]))
            ops.append(channel_op(ent, op.slots[1]))
    return replace(compiled, ops=tuple(ops), noise=model)


def signal_parity(outcomes: Dict[int, int], domain: Tuple[int, ...]) -> int:
    """XOR of recorded outcomes over ``domain`` (domains are compile-checked,
    so lookups cannot miss)."""
    parity = 0
    for node in domain:
        parity ^= outcomes[node]
    return parity


# -- signal-liveness analysis -------------------------------------------------


@dataclass(frozen=True)
class SignalRead:
    """One signal-domain read in a compiled op stream.

    ``kind`` is ``"s"``/``"t"`` for the two :class:`MeasureOp` domains (the
    reading op's node is ``owner``) and ``"cond"`` for a
    :class:`ConditionalOp` domain (``owner`` is -1 — the corrected node is a
    register property, not an IR one).  ``dangling`` lists domain entries
    not measured strictly before ``op_index`` (the R010 defect set; empty
    for compiler-emitted streams).
    """

    op_index: int
    kind: str
    owner: int
    domain: Tuple[int, ...]
    dangling: Tuple[int, ...] = ()


@dataclass(frozen=True)
class SignalLiveness:
    """Signal dataflow of one compiled op stream.

    The single source of truth for every consumer of "who reads which
    outcome record": the density engine's exact integrator (dead-record
    merging and live-parity branch merging), the static resource
    estimator's branch bounds, and the IR verifier's R010-R012 signal-flow
    checks all derive from this one forward/backward walk.

    - ``reads`` lists every domain read in op order (``s`` before ``t``
      within one measurement); a read's position in the tuple is its
      **read id**, the column index of the frontier integrator's
      per-branch parity table.
    - ``dead[i]`` is True when op ``i`` is a measurement whose record is
      never read by any later domain — its branch pair merges by
      dephase + partial trace instead of exploring.
    - ``touch[node]`` are the read ids whose domain contains ``node``
      (every such read happens after the node's measurement).
    - ``read_nodes`` is the union of all domains (R012: a measured node
      outside it has a written-never-read record).
    - ``merged_bound`` bounds the post-merge branch frontier: at each
      measurement position the future-referenced partial parities span a
      GF(2) space of dimension ``rank``, so at most ``2^rank`` branch
      signatures are distinguishable; the bound is the maximum over
      positions.  Readout flips do not enter — flip children share their
      recorded bit and merge immediately.
    """

    reads: Tuple[SignalRead, ...]
    dead: Tuple[bool, ...]
    touch: Dict[int, Tuple[int, ...]]
    read_nodes: frozenset
    merged_bound: int

    def future_read_ids(self, op_index: int) -> Tuple[int, ...]:
        """Read ids consumed strictly after op ``op_index`` — the signature
        columns live-parity merging compares after that op executes."""
        return tuple(
            rid for rid, read in enumerate(self.reads)
            if read.op_index > op_index
        )


def _gf2_rank(vectors: List[int]) -> int:
    """Rank of GF(2) row vectors packed as ints (xor-basis elimination)."""
    basis: List[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def signal_liveness(ops: Tuple[CompiledOp, ...]) -> SignalLiveness:
    """Analyze the signal dataflow of a compiled op stream.

    One forward walk collects every domain read (with its dangling set) and
    the node→reads index; one backward walk marks dead records; one
    rank sweep bounds the merged branch frontier.  Pure IR inspection —
    no amplitudes, ``O(ops · reads)`` worst case — so it is cheap enough
    for the verifier, the resource estimator, and every ``integrate`` call.
    """
    reads: List[SignalRead] = []
    touch: Dict[int, List[int]] = {}
    measured: set = set()
    meas_pos: Dict[int, int] = {}  # node -> bit position, in measure order

    def record_read(i: int, kind: str, owner: int, domain) -> None:
        domain = tuple(domain)
        rid = len(reads)
        reads.append(
            SignalRead(
                i, kind, owner, domain,
                tuple(n for n in domain if n not in measured),
            )
        )
        for node in domain:
            touch.setdefault(node, []).append(rid)

    for i, op in enumerate(ops):
        tp = type(op)
        if tp is MeasureOp:
            record_read(i, "s", op.node, op.s_domain)
            record_read(i, "t", op.node, op.t_domain)
            measured.add(op.node)
            meas_pos[op.node] = len(meas_pos)
        elif tp is ConditionalOp:
            record_read(i, "cond", -1, op.domain)

    read_nodes = frozenset(touch)
    dead = [False] * len(ops)
    for i, op in enumerate(ops):
        if type(op) is MeasureOp:
            dead[i] = not any(
                reads[rid].op_index > i for rid in touch.get(op.node, ())
            )

    # Each read's domain as a GF(2) vector over nodes in measure order;
    # restricting to "measured so far" is a low-bits mask.
    full_masks = [
        sum(1 << meas_pos[n] for n in r.domain if n in meas_pos)
        for r in reads
    ]
    merged_bound = 1
    k = 0
    for i, op in enumerate(ops):
        if type(op) is not MeasureOp:
            continue
        k += 1
        lim = (1 << k) - 1
        rank = _gf2_rank(
            [
                full_masks[rid] & lim
                for rid, r in enumerate(reads)
                if r.op_index > i
            ]
        )
        merged_bound = max(merged_bound, 1 << rank)

    return SignalLiveness(
        reads=tuple(reads),
        dead=tuple(dead),
        touch={node: tuple(rids) for node, rids in touch.items()},
        read_nodes=read_nodes,
        merged_bound=merged_bound,
    )
