"""Branch-exhaustive verification of measurement patterns.

The paper's determinism requirement (Section II.B) is checked *semantically*
here: a pattern is deterministic iff every outcome branch implements the
same map up to global phase.  These helpers power the E3-E6 experiments.

Branch maps are produced by the batched execution engine
(:mod:`repro.mbqc.backend`): the pattern is compiled once
(:func:`~repro.mbqc.compile.compile_pattern`) and every branch evaluates all
``2^k`` input columns in a single vectorized sweep, so enumerating ``2^m``
branches costs ``2^m`` batched runs instead of ``2^m · 2^k`` sequential
pattern executions.  ``backend=`` accepts an engine instance, a registry
name, or ``None`` for automatic dispatch: Clifford-angle patterns beyond
dense reach route to the stabilizer-tableau engine, where
:func:`check_pattern_determinism` compares canonical stabilizer forms and
branch weights instead of densifying — graph-state and Pauli-measurement
patterns verify at dozens of measured nodes.  On the matrix-product-state
engine, truncated branch samples are stratified over future-read parity
classes (:func:`~repro.mbqc.compile.signal_liveness`) so the budget covers
distinct correction pathways instead of revisiting merged ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.linalg.compare import allclose_up_to_global_phase, proportionality_factor
from repro.mbqc.backend import PatternBackend, resolve_backend
from repro.mbqc.compile import compile_pattern
from repro.mbqc.pattern import Pattern, PatternError
from repro.mbqc.runner import pattern_to_matrix, run_pattern
from repro.sim.statevector import ZeroProbabilityBranch
from repro.utils.rng import SeedLike, ensure_rng


def _sample_branches(
    measured: List[int], max_branches: Optional[int], seed: SeedLike, keep_zero: bool
) -> List[Dict[int, int]]:
    m = len(measured)
    total = 1 << m
    if max_branches is None or total <= max_branches:
        bit_sets = range(total)
    elif m < 63:
        rng = ensure_rng(seed)
        picks = set(int(x) for x in rng.choice(total, size=max_branches, replace=False))
        if keep_zero:
            picks.add(0)
        bit_sets = sorted(picks)
    else:
        # 2^m overflows rng.choice's index type; draw branch bit-vectors
        # directly (collisions are vanishingly rare at this width).
        rng = ensure_rng(seed)
        picks = {0} if keep_zero else set()
        target = max_branches + (1 if keep_zero else 0)
        while len(picks) < target:
            bits = 0
            for word in rng.integers(0, 1 << 32, size=(m + 31) // 32, dtype=np.int64):
                bits = (bits << 32) | int(word)
            picks.add(bits & (total - 1))
        bit_sets = sorted(picks)
    return [
        {node: (bits >> i) & 1 for i, node in enumerate(measured)} for bits in bit_sets
    ]


def _parity_stratified_branches(
    compiled, max_branches: Optional[int], seed: SeedLike
) -> List[Dict[int, int]]:
    """Branch subsets stratified by the future-read parity signature.

    When ``max_branches`` truncates the ``2^m`` branch space, uniformly
    drawn subsets mostly revisit outcome records that merge to the same
    correction pathway — only outcomes some later op actually *reads*
    (:func:`~repro.mbqc.compile.signal_liveness`, the frontier-merge
    observation of the exact integrator) select different conditional
    corrections.  So the budget goes to the live bits first: their
    assignments are enumerated (or sampled, ``keep_zero`` as usual) with
    dead bits pinned to 0, and only leftover budget varies the dead bits,
    which exercise nothing but the projector choice of measurements no
    future op consults.
    """
    from repro.mbqc.compile import MeasureOp, signal_liveness

    measured = list(compiled.measured_nodes)
    m = len(measured)
    if max_branches is None or (m < 63 and (1 << m) <= max_branches):
        return _sample_branches(measured, max_branches, seed, keep_zero=True)
    lv = signal_liveness(compiled.ops)
    live = [
        op.node
        for i, op in enumerate(compiled.ops)
        if type(op) is MeasureOp and not lv.dead[i]
    ]
    dead = [n for n in measured if n not in set(live)]
    base = _sample_branches(live, max_branches, seed, keep_zero=True)
    branches = [dict(b, **{n: 0 for n in dead}) for b in base]
    if not dead:
        return branches
    rng = ensure_rng(seed)
    while len(branches) < max_branches:
        extra = dict(base[len(branches) % len(base)])
        for n in dead:
            extra[n] = int(rng.integers(0, 2))
        branches.append(extra)
    return branches


def branch_unitaries(
    pattern: Optional[Pattern],
    max_branches: Optional[int] = None,
    seed: SeedLike = None,
    backend: Union[str, PatternBackend, None] = None,
    compiled=None,
) -> List[Tuple[Dict[int, int], np.ndarray]]:
    """Branch maps for all (or a random subset of) outcome branches.

    Pass ``compiled`` (from :func:`~repro.mbqc.compile.compile_pattern`) to
    skip recompilation when the caller already holds the program; the
    pattern itself is then not read and may be ``None``.
    """
    if compiled is None:
        compiled = compile_pattern(pattern)
    engine = resolve_backend(backend, compiled, dense_outputs=True)
    branches = _sample_branches(
        list(compiled.measured_nodes), max_branches, seed, keep_zero=True
    )
    return [
        (b, pattern_to_matrix(pattern, b, backend=engine, compiled=compiled))
        for b in branches
    ]


def _check_determinism_density(
    compiled, engine, branches, atol: float
) -> bool:
    """Determinism check on the density engine: compare branch *Choi
    states* — the pattern's inputs maximally entangled with spectator
    ancillas — so branch maps compare exactly, with no global-phase
    ambiguity (a density matrix carries none) and no per-column phase
    caveat (entanglement with the ancillas keeps relative input phases).

    Unreachable branches (forcing against a deterministic measurement —
    ~0 conditional probability) come back as ``None`` and are skipped,
    mirroring the stabilizer path.  Branch weights are ~``2^-m`` for ``m``
    random measurements, so they compare *relatively* — an absolute
    tolerance would be vacuous past ~27 measured nodes (cf. the log-domain
    comparison on the stabilizer path).

    All sampled branches run in one ``run_branch_choi_batch`` call — the
    cross-branch batched sweep, one batch element per outcome record —
    instead of one full Choi integration per branch.
    """
    ref: Optional[np.ndarray] = None
    ref_weight = 0.0
    for out in engine.run_branch_choi_batch(compiled, branches):
        if out is None:
            continue
        mat = out.rho.to_matrix()
        if ref is None:
            ref, ref_weight = mat, out.weight
            continue
        if abs(out.weight - ref_weight) > atol * max(ref_weight, out.weight):
            return False
        if not np.allclose(mat, ref, atol=atol):
            return False
    return ref is not None


def _check_determinism_stabilizer(
    compiled, engine, branches, atol: float, seed: SeedLike
) -> bool:
    """Determinism check without densification: compare the canonical
    stabilizer form and branch weight of every *reachable* branch.

    Zero-weight branches (a forced outcome contradicting a deterministic
    Pauli measurement) are unreachable and skipped — they carry no
    amplitude, so they cannot break determinism.  When patterns contain
    deterministic measurements, uniformly drawn branches are almost all
    unreachable; to avoid certifying determinism from a single surviving
    branch, reachable branches are then resampled from actual trajectories
    (their outcome records have positive probability by construction).
    """
    inputs = np.ones((1, 1), dtype=complex)
    ref_key: Optional[bytes] = None
    ref_weight = 0.0
    reachable = 0

    def compare(output) -> bool:
        """True iff ``output`` matches the reference (seeding it if first)."""
        nonlocal ref_key, ref_weight, reachable
        key = output.canonical_key()
        # Branch probabilities are exact powers of two; compare in the log
        # domain, where equality is exact at any size (an absolute
        # tolerance on ~2^-m weights would be vacuous past ~27 nodes).
        weight = float(output.log2_weight)
        reachable += 1
        if ref_key is None:
            ref_key, ref_weight = key, weight
            return True
        return key == ref_key and weight == ref_weight

    for branch in branches:
        try:
            run = engine.run_branch_batch(compiled, inputs, branch)
        except ZeroProbabilityBranch:
            continue
        if not compare(run.raw[0]):
            return False
    if reachable < 2 and len(branches) > 1:
        # The trajectories' own outputs are reachable branches already
        # executed — compare them directly, one per distinct outcome record.
        run = engine.sample_batch(
            compiled, len(branches), rng=ensure_rng(seed), keep_raw=True
        )
        seen = set()
        for j, output in enumerate(run.raw):
            bits = run.outcomes[j].tobytes()
            if bits in seen:
                continue
            seen.add(bits)
            if not compare(output):
                return False
    return ref_key is not None


def check_pattern_determinism(
    pattern: Optional[Pattern],
    max_branches: Optional[int] = None,
    seed: SeedLike = None,
    atol: float = 1e-8,
    backend: Union[str, PatternBackend, None] = None,
    compiled=None,
) -> bool:
    """True iff all (sampled) branches give the same map up to phase.

    Branch maps of a deterministic pattern also have equal norms (uniform
    outcome probabilities); both are checked.

    On the stabilizer engine (explicit, or auto-selected for Clifford
    patterns beyond dense reach) a state-preparation pattern is checked by
    comparing canonical stabilizer forms and branch weights — no dense
    output is ever materialized, so graph-state patterns verify at sizes
    far past ``2^n`` memory.

    On the density engine (``backend="density"``) branches are compared as
    *Choi states* (inputs maximally entangled with spectator ancillas):
    exact map equality with no global-phase bookkeeping at all — the
    strictest of the three checks, for patterns within 4^n density reach.

    Pass ``compiled`` to check an already compiled program; ``pattern`` is
    then not read and may be ``None``.
    """
    if compiled is None:
        if pattern is None:
            raise ValueError("check_pattern_determinism needs a pattern or compiled=")
        compiled = compile_pattern(pattern)
    engine = resolve_backend(backend, compiled)
    if engine.name == "density":
        branches = _sample_branches(
            list(compiled.measured_nodes), max_branches, seed, keep_zero=True
        )
        return _check_determinism_density(compiled, engine, branches, atol)
    if engine.name == "stabilizer":
        if compiled.num_inputs:
            raise PatternError(
                "the stabilizer determinism check needs a state-preparation "
                "pattern (no inputs): tableau columns carry no global phase, "
                "so multi-column branch maps cannot be compared exactly"
            )
        branches = _sample_branches(
            list(compiled.measured_nodes), max_branches, seed, keep_zero=True
        )
        return _check_determinism_stabilizer(compiled, engine, branches, atol, seed)
    if engine.name == "mps":
        # Dense branch-map comparison, but with the truncated branch sample
        # stratified over future-read parity classes (the PR 7 frontier
        # merge applied to branch *selection*): at hundreds of measured
        # nodes a uniform 2^m subset would almost never cover two branches
        # that differ in a correction pathway.
        branches = _parity_stratified_branches(compiled, max_branches, seed)
        try:
            maps = [
                (b, pattern_to_matrix(pattern, b, backend=engine, compiled=compiled))
                for b in branches
            ]
        except (PatternError, ZeroProbabilityBranch):
            # A forced branch with ~0 probability: a measurement is
            # deterministic, so outcome branches are not uniform.
            return False
    else:
        maps = branch_unitaries(
            pattern, max_branches=max_branches, seed=seed, backend=engine,
            compiled=compiled,
        )
    _, ref = maps[0]
    ref_norm = np.linalg.norm(ref)
    if ref_norm < 1e-12:
        return False
    for _, m in maps[1:]:
        if abs(np.linalg.norm(m) - ref_norm) > atol * max(1.0, ref_norm):
            return False
        if not allclose_up_to_global_phase(m, ref, atol=atol):
            return False
    return True


def pattern_equals_unitary(
    pattern: Pattern,
    unitary: np.ndarray,
    all_branches: bool = True,
    max_branches: Optional[int] = None,
    seed: SeedLike = None,
    atol: float = 1e-8,
    backend: Union[str, PatternBackend, None] = None,
) -> bool:
    """True iff every (sampled) branch map ∝ ``unitary``.

    Dense engines only: stabilizer-extracted branch maps carry an
    independent phase per column, so a correct pattern can compare as
    non-proportional.  Automatic dispatch never picks the stabilizer
    engine for patterns with inputs for exactly this reason; avoid forcing
    ``backend="stabilizer"`` here.
    """
    if not all_branches:
        max_branches = max_branches or 1
    maps = branch_unitaries(pattern, max_branches=max_branches, seed=seed, backend=backend)
    for _, m in maps:
        if proportionality_factor(m, np.asarray(unitary, dtype=complex), atol=atol) is None:
            return False
    return True


def pattern_state_equals(
    pattern: Pattern,
    state: np.ndarray,
    max_branches: Optional[int] = None,
    seed: SeedLike = None,
    atol: float = 1e-8,
) -> bool:
    """For state-preparation patterns (no inputs): every branch output
    equals ``state`` up to global phase.

    The pattern is compiled once and re-run per branch with the cached
    program (branch outputs need renormalized states, so this path uses the
    sequential runner rather than the unnormalized batched map extractor).
    """
    if pattern.input_nodes:
        raise ValueError("pattern has inputs; use pattern_equals_unitary")
    compiled = compile_pattern(pattern)
    branches = _sample_branches(
        list(compiled.measured_nodes), max_branches, seed, keep_zero=False
    )
    target = np.asarray(state, dtype=complex)
    for b in branches:
        out = run_pattern(pattern, forced_outcomes=b, compiled=compiled).state_array()
        if not allclose_up_to_global_phase(out, target, atol=atol):
            return False
    return True
