"""Diagnostic framework for the static analyzers.

Every finding the :mod:`repro.analysis` subsystem produces — IR verifier,
resource estimator, repo contract linter — is a :class:`Diagnostic`: a
stable code (``R0xx`` IR well-formedness, ``R1xx`` resources, ``C0xx`` repo
contracts), a :class:`Severity`, a human-readable message, and source
attribution (compiled-op index + node id for IR findings, ``file:line`` for
contract findings).  Codes are stable API: tests, CI gates, and downstream
tooling match on them, so a code is never reused for a different condition.

:class:`AnalysisReport` bundles the diagnostics of one ``analyze()`` run
with the pattern's :class:`~repro.analysis.resources.ResourceEstimate` and
offers the gate primitives (``ok``, ``raise_if_errors``) that
``compile_pattern(verify_ir=True)`` and ``repro lint`` are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from repro.mbqc.pattern import PatternError

if TYPE_CHECKING:  # resources imports the IR; keep the runtime graph flat
    from repro.analysis.resources import ResourceEstimate


class Severity(IntEnum):
    """Diagnostic severity: errors gate execution, warnings indicate code
    the compiler should not have produced, infos are advisory."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # noqa: D105 - enum display name
        return self.name.lower()


#: Stable code registry: ``code -> one-line description``.  ``R0xx`` are IR
#: well-formedness findings, ``R1xx`` resource findings, ``C0xx`` repo
#: contract findings.  (Documented in README's diagnostic code table.)
CODES = {
    "R001": "use-after-discard: op references a dead or out-of-range slot",
    "R002": "bad preparation: duplicate node or non-append slot",
    "R003": "entangler targets a slot pair that is not two distinct live slots",
    "R004": "slot/node binding mismatch: op's node is not the node in its slot",
    "R005": "max_live inconsistent with the recomputed peak register width",
    "R006": "out_perm inconsistent with the surviving output slots",
    "R007": "measured_nodes inconsistent with the MeasureOp stream",
    "R008": "duplicate or overlapping input/output node declarations",
    "R009": "malformed measurement basis table",
    "R010": "dangling signal: domain reads an outcome that is never written",
    "R011": "dead correction: empty signal domain can never fire",
    "R012": "dead signal: recorded outcome is never read downstream",
    "R020": "ChannelOp arity does not fit the live register",
    "R021": "Kraus set is not a channel (completeness violated)",
    "R022": "readout flip probability outside [0, 1]",
    "R023": "pauli_probs inconsistent with the channel's Kraus operators",
    "R101": "estimated peak bytes exceed the configured budget",
    "R102": "exact-integration branch bound exceeds the density engine cap",
    "R103": "shard timeout: a supervised shard exceeded its wall-clock budget",
    "R104": "worker death: a supervised shard worker died or errored and was retried",
    "R105": "backend fallback: the degradation chain routed past a failed link",
    "R106": "compiled-pattern cache event (info, hit/miss traffic)",
    "C001": "np.random.default_rng called outside repro.utils.rng",
    "C002": "global numpy.random state used (unseeded, unreproducible)",
    "C003": "scalar RNG draw inside a kernel loop (breaks whole-block draw tables)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding with stable code and attribution."""

    code: str
    severity: Severity
    message: str
    op_index: Optional[int] = None
    """Index into ``CompiledPattern.ops`` for IR findings."""
    node: Optional[int] = None
    """Pattern node id the finding concerns, when one exists."""
    where: Optional[str] = None
    """``file:line`` attribution for repo-contract findings."""

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def format(self) -> str:
        """One display line: ``code severity [attribution] message``."""
        at = ""
        if self.where is not None:
            at = f" [{self.where}]"
        elif self.op_index is not None:
            at = f" [op {self.op_index}"
            if self.node is not None:
                at += f", node {self.node}"
            at += "]"
        elif self.node is not None:
            at = f" [node {self.node}]"
        return f"{self.code} {self.severity}{at}: {self.message}"


def format_diagnostics(diags: Sequence[Diagnostic]) -> str:
    """Multi-line report, most severe first (stable within a severity)."""
    ordered = sorted(
        enumerate(diags), key=lambda pair: (-int(pair[1].severity), pair[0])
    )
    return "\n".join(d.format() for _, d in ordered)


@dataclass(frozen=True)
class AnalysisReport:
    """The result of one ``analyze(compiled)`` run.

    ``diagnostics`` holds every verifier finding; ``resources`` the static
    resource estimate (always present — estimation needs no validity).
    """

    diagnostics: Tuple[Diagnostic, ...]
    resources: Optional["ResourceEstimate"] = None

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True iff no error-severity diagnostic was produced."""
        return not self.errors

    def codes(self) -> Tuple[str, ...]:
        return tuple(d.code for d in self.diagnostics)

    def raise_if_errors(self) -> None:
        """Raise :class:`~repro.mbqc.pattern.PatternError` listing every
        error-severity diagnostic (the ``verify_ir=True`` gate)."""
        errs = self.errors
        if errs:
            raise PatternError(
                "compiled pattern failed IR verification:\n"
                + format_diagnostics(errs)
            )

    def format(self, budget: int = 1 << 26) -> str:
        """Human-readable report: diagnostics block + resource estimate
        (``budget`` feeds the chunk-size row of the resource report)."""
        lines: List[str] = []
        if self.diagnostics:
            lines.append(format_diagnostics(self.diagnostics))
        else:
            lines.append("no diagnostics")
        lines.append(
            f"({len(self.errors)} errors, {len(self.warnings)} warnings, "
            f"{len(self.diagnostics) - len(self.errors) - len(self.warnings)} infos)"
        )
        if self.resources is not None:
            lines.append("")
            lines.append(self.resources.format(budget))
        return "\n".join(lines)
