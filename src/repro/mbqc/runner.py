"""Pattern execution entry points over the backend registry.

``run_pattern`` executes one trajectory of a pattern compiled to
slot-resolved ops (:func:`repro.mbqc.compile.compile_pattern`): a qubit
is allocated per ``N``, entangled on ``E``, measured adaptively on ``M``
(the measured qubit is *removed*, so memory tracks the live set, cf.
``Pattern.max_live_nodes``), with conditional corrections applied from
precomputed slots.  It is a one-shot ``sample_batch`` on the statevector
engine (or the engine ``backend`` names), so it draws from the same
seeded stream as every batched run.  Outcomes can be forced per node,
which gives exhaustive branch enumeration: the determinism claims of the
paper (Sections II.B and III) are tested over every outcome branch.

``pattern_to_matrix`` extracts the linear map a pattern implements on its
input nodes for a fixed outcome branch: all ``2^k`` computational basis
columns are simulated in one forced-branch sweep
(:meth:`~repro.mbqc.backend.PatternBackend.run_branch_batch`).

Both entry points dispatch through the backend registry
(:func:`repro.mbqc.backend.select_backend`): ``backend`` may be an engine
instance, a registered name (``"statevector"``, ``"stabilizer"``,
``"density"``, ``"mps"``), or ``"auto"`` — which routes Clifford-angle
patterns to the stabilizer-tableau fast path once the live register
outgrows dense reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.mbqc.backend import PatternBackend, get_backend, resolve_backend
from repro.mbqc.compile import CompiledPattern, compile_pattern
from repro.mbqc.pattern import Pattern, PatternError
from repro.sim.statevector import StateVector
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class PatternResult:
    """Execution record: measurement outcomes and the output state.

    ``state`` holds the output nodes in ``output_order`` (little-endian:
    ``output_order[i]`` is qubit ``i`` of :meth:`state_array`).
    """

    outcomes: Dict[int, int]
    state: StateVector
    output_order: List[int]

    def state_array(self) -> np.ndarray:
        return self.state.to_array()


def run_pattern(
    pattern: Pattern,
    input_state: Optional[StateVector] = None,
    seed: SeedLike = None,
    forced_outcomes: Optional[Dict[int, int]] = None,
    validate: bool = True,
    compiled: Optional[CompiledPattern] = None,
    backend: Union[str, PatternBackend, None] = None,
) -> PatternResult:
    """Execute ``pattern`` and return outcomes plus the (normalized)
    output state.

    Parameters
    ----------
    input_state:
        State of the input nodes (little-endian over ``pattern.input_nodes``);
        defaults to ``|+>^k`` as in the paper's QAOA protocol.
    forced_outcomes:
        Map node -> bit pinning measurement outcomes (branch enumeration).
        Forcing a zero-probability branch raises.
    compiled:
        A precompiled program for ``pattern`` (from
        :func:`~repro.mbqc.compile.compile_pattern`); pass it when running
        the same pattern many times (e.g. branch enumeration) to skip
        recompilation.  Noise-lowered programs execute their Pauli channel
        ops and readout flips; non-Pauli channels raise, pointing at the
        density engine.
    backend:
        ``None`` runs the statevector engine.  A registry name
        (``"auto"``, ``"statevector"``, ``"stabilizer"``, ``"density"``,
        ``"mps"``) or engine instance runs that engine instead; the output
        register must stay densifiable (Clifford patterns with huge
        *measured* sets are fine — only ``output_nodes`` are materialized).

    The trajectory is ``sample_batch(compiled, 1, seed)`` on the chosen
    engine, so it consumes the seeded stream exactly like shot 0 of a
    one-shot batch.  Branch *amplitudes* (unnormalized states) come from
    :func:`pattern_to_matrix` / ``run_branch_batch``.
    """
    if compiled is None:
        compiled = compile_pattern(pattern, validate=validate)
    if backend is None:
        engine = get_backend("statevector")
    else:
        engine = resolve_backend(backend, compiled, dense_outputs=True)
    run = engine.sample_batch(
        compiled, 1, ensure_rng(seed), input_state=input_state,
        forced_outcomes=forced_outcomes or {}, keep_raw=True,
    )
    state = StateVector.from_array(run.dense_states()[0])
    return PatternResult(
        run.outcome_dicts()[0], state, list(compiled.output_nodes)
    )


def enumerate_branches(pattern: Pattern) -> Iterator[Dict[int, int]]:
    """Yield every outcome assignment for the measured nodes (2^m branches)."""
    measured = pattern.measured_nodes()
    m = len(measured)
    for bits in range(1 << m):
        yield {node: (bits >> i) & 1 for i, node in enumerate(measured)}


def _full_branch(
    compiled: CompiledPattern, forced_outcomes: Optional[Dict[int, int]]
) -> Dict[int, int]:
    if forced_outcomes is None:
        return {node: 0 for node in compiled.measured_nodes}
    missing = set(compiled.measured_nodes) - set(forced_outcomes)
    if missing:
        raise PatternError(f"branch must force all outcomes; missing {sorted(missing)}")
    return dict(forced_outcomes)


def pattern_to_matrix(
    pattern: Optional[Pattern],
    forced_outcomes: Optional[Dict[int, int]] = None,
    backend: Union[str, PatternBackend, None] = None,
    compiled: Optional[CompiledPattern] = None,
) -> np.ndarray:
    """The linear map implemented on a fixed outcome branch (default all-0).

    For a deterministic pattern, this is proportional to the same unitary on
    every branch; :func:`repro.core.verify.check_pattern_determinism` makes
    that claim precise by enumerating branches.

    All ``2^k`` input basis columns run in one batched sweep on ``backend``
    (an engine instance, registry name, or ``None`` for automatic dispatch
    via :func:`~repro.mbqc.backend.select_backend`); pass ``compiled`` to
    amortize compilation across many branches (``pattern`` is then not
    read and may be ``None``).  Columns extracted on the
    stabilizer engine are exact up to a per-column phase (a tableau carries
    no global phase).
    """
    if compiled is None:
        compiled = compile_pattern(pattern)
    forced = _full_branch(compiled, forced_outcomes)
    engine = resolve_backend(backend, compiled, dense_outputs=True)
    k = compiled.num_inputs
    inputs = np.eye(1 << k, dtype=complex)
    run = engine.run_branch_batch(compiled, inputs, forced)
    # Row j of ``states`` is the output column for input basis state j.
    return np.ascontiguousarray(run.dense_states().T)
