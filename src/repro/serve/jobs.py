"""Job specifications and results for the serving layer.

A job arrives as one JSON object (one line over the socket / stdin):

.. code-block:: json

    {"id": "j1", "kind": "run", "problem": "ring:8", "p": 1,
     "gammas": [0.4], "betas": [0.7], "noise": 0.01,
     "shots": 512, "seed": 7, "block_shots": 256, "backend": "auto"}

``kind`` is one of:

* ``"run"`` — compile a QAOA pattern for ``problem`` (a CLI-style
  ``kind:args`` spec) at explicit ``gammas``/``betas`` and sample
  ``shots`` records.
* ``"sample"`` — like ``run``, but the program arrives directly as a
  serialized pattern dict (``"pattern"``, the
  :func:`~repro.mbqc.serialize.pattern_to_dict` form).
* ``"verify"`` — branch-exhaustive determinism check of the program
  (no sampling; returns the verdict in the ``done`` event).

``noise`` is a single float (the CLI's uniform
``p_prep = p_ent = p_meas`` bag), a ``{"p_prep":…, "p_ent":…,
"p_meas":…}`` dict, or a full serialized channel model
(:func:`~repro.mbqc.serialize.noise_model_from_dict` form).

Sampling jobs follow the checkpoint contract exactly: ``shots`` is split
by :func:`repro.exec.checkpoint.plan_blocks`, block ``i`` runs under the
``i``-th child of ``SeedSequence(seed)`` — so a job's final
``records_sha256`` receipt equals the digest of the same standalone
:func:`~repro.exec.checkpoint.run_checkpointed` or ``sample_batch``
run, whether or not the server coalesced its blocks with other jobs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mbqc.channels import ChannelNoiseModel
from repro.mbqc.noise import NoiseModel
from repro.mbqc.pattern import Pattern, PatternError
from repro.mbqc.serialize import noise_model_from_dict, pattern_from_dict

JOB_KINDS = ("run", "sample", "verify")

#: Default shots per serving block — smaller than the checkpoint default
#: so several queued jobs can interleave into one fused batch.
DEFAULT_BLOCK_SHOTS = 256


@dataclass(frozen=True)
class JobSpec:
    """One validated job request."""

    job_id: str
    kind: str
    shots: int
    seed: int
    block_shots: int
    backend: str = "auto"
    problem: Optional[str] = None
    gammas: Tuple[float, ...] = ()
    betas: Tuple[float, ...] = ()
    pattern_data: Optional[dict] = None
    noise: Optional[object] = None

    @classmethod
    def from_dict(cls, data: dict, *, default_id: str) -> "JobSpec":
        """Validate one JSON job object into a spec; raises
        :class:`~repro.mbqc.pattern.PatternError` with an actionable
        message on anything malformed."""
        if not isinstance(data, dict):
            raise PatternError(f"job must be a JSON object, got {type(data).__name__}")
        kind = data.get("kind", "run")
        if kind not in JOB_KINDS:
            raise PatternError(
                f"unknown job kind {kind!r}; expected one of {', '.join(JOB_KINDS)}"
            )
        job_id = str(data.get("id", default_id))
        shots = int(data.get("shots", 0))
        if kind != "verify" and shots < 1:
            raise PatternError(f"job {job_id!r} needs shots >= 1, got {shots}")
        seed = data.get("seed")
        if seed is None:
            # Fresh-but-recorded entropy, like the checkpoint manifest:
            # the receipt is only meaningful with a concrete seed.
            seed = int(np.random.SeedSequence().entropy) % (2**63)
        block_shots = int(data.get("block_shots", DEFAULT_BLOCK_SHOTS))
        if block_shots < 1:
            raise PatternError(
                f"job {job_id!r} needs block_shots >= 1, got {block_shots}"
            )
        pattern_data = data.get("pattern")
        problem = data.get("problem")
        if kind == "run" and not problem:
            raise PatternError(f"run job {job_id!r} needs a problem spec")
        if kind == "sample" and pattern_data is None:
            raise PatternError(f"sample job {job_id!r} needs a pattern dict")
        if kind == "verify" and pattern_data is None and not problem:
            raise PatternError(f"verify job {job_id!r} needs a pattern or problem")
        gammas = tuple(float(g) for g in data.get("gammas", ()) or ())
        betas = tuple(float(b) for b in data.get("betas", ()) or ())
        if problem and kind != "verify" and (not gammas or len(gammas) != len(betas)):
            raise PatternError(
                f"job {job_id!r} needs equal-length non-empty gammas/betas "
                f"(got {len(gammas)}/{len(betas)}); the server never runs "
                f"the parameter optimizer"
            )
        return cls(
            job_id=job_id,
            kind=kind,
            shots=shots,
            seed=int(seed),
            block_shots=block_shots,
            backend=str(data.get("backend", "auto")),
            problem=problem,
            gammas=gammas,
            betas=betas,
            pattern_data=pattern_data,
            noise=parse_noise(data.get("noise"), job_id=job_id),
        )

    def angles(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """The effective ``(gammas, betas)``: a verify job given none
        runs at the defaults ``(0.4,)``/``(0.7,)``."""
        return self.gammas or (0.4,), self.betas or (0.7,)

    def build_pattern(self) -> Pattern:
        """The measurement pattern this job executes, built fresh (the
        serve cache calls this only on a miss)."""
        if self.pattern_data is not None:
            return pattern_from_dict(self.pattern_data)
        # Deferred: the CLI sits above the serving layer in the module
        # graph; importing it lazily keeps `repro.serve` importable alone.
        from repro.cli import parse_problem
        from repro.core.compiler import compile_qaoa_pattern

        _, qubo, _ = parse_problem(self.problem or "")
        gammas, betas = self.angles()
        return compile_qaoa_pattern(qubo, list(gammas), list(betas)).pattern


def parse_noise(raw: object, *, job_id: str) -> Optional[object]:
    """Coerce a job's ``noise`` field to a noise-model object (or None)."""
    if raw is None:
        return None
    if isinstance(raw, (int, float)):
        p = float(raw)
        if p == 0.0:
            return None
        return NoiseModel(p_prep=p, p_ent=p, p_meas=p)
    if isinstance(raw, dict):
        if "version" in raw:
            return noise_model_from_dict(raw)
        return NoiseModel(
            p_prep=float(raw.get("p_prep", 0.0)),
            p_ent=float(raw.get("p_ent", 0.0)),
            p_meas=float(raw.get("p_meas", 0.0)),
        )
    if isinstance(raw, (NoiseModel, ChannelNoiseModel)):
        return raw
    raise PatternError(
        f"job {job_id!r} has an uninterpretable noise field "
        f"({type(raw).__name__}); pass a float, a p_prep/p_ent/p_meas "
        f"dict, or a serialized channel model"
    )


def records_sha256(outcomes: np.ndarray) -> str:
    """SHA-256 of an outcome-record block — byte-compatible with
    :func:`repro.exec.checkpoint.records_digest`, so serve receipts and
    checkpoint receipts compare directly."""
    return hashlib.sha256(
        np.ascontiguousarray(outcomes, dtype=np.int8).tobytes()
    ).hexdigest()


@dataclass
class JobState:
    """Mutable per-job progress the server tracks until the receipt."""

    spec: JobSpec
    digest: str
    backend: str
    cache_status: str  # "hit" | "miss"
    n_blocks: int
    pieces: List[Optional[np.ndarray]] = field(default_factory=list)
    done_blocks: int = 0
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.pieces:
            self.pieces = [None] * self.n_blocks

    @property
    def complete(self) -> bool:
        return self.error is not None or self.done_blocks >= self.n_blocks

    def merged_outcomes(self) -> np.ndarray:
        missing = [i for i, piece in enumerate(self.pieces) if piece is None]
        if missing:
            raise PatternError(
                f"job {self.spec.job_id!r} is missing blocks {missing}"
            )
        if not self.pieces:
            return np.zeros((0, 0), dtype=np.int8)
        return np.concatenate(self.pieces, axis=0)


@dataclass(frozen=True)
class JobResult:
    """The final, receipt-bearing outcome of one job."""

    job_id: str
    kind: str
    records_sha256: Optional[str]
    shots: int
    backend: str
    digest: str
    cache_status: str
    deterministic: Optional[bool] = None
    outcomes: Optional[np.ndarray] = None

    def as_event(self) -> Dict[str, object]:
        event: Dict[str, object] = {
            "event": "done",
            "job": self.job_id,
            "kind": self.kind,
            "shots": self.shots,
            "backend": self.backend,
            "digest": self.digest,
            "cache": self.cache_status,
        }
        if self.records_sha256 is not None:
            event["records_sha256"] = self.records_sha256
        if self.deterministic is not None:
            event["deterministic"] = self.deterministic
        return event
