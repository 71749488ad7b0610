"""In-process compiled-program cache, keyed by the job's program.

A served job's program is fully determined by its spec: the QUBO
(``problem``) and the effective angles, or an explicit ``pattern``, plus
the noise model.  :class:`PatternCache` keys on the canonical JSON of
exactly those fields (noise is ``None`` for ``verify`` jobs, which
inspect the noiseless program), so a hit builds no pattern at all; a
miss runs ``build_pattern → compile_pattern → lower_noise``.  The
reported digest is the SHA-256 of the key — the server's fusion key and
the ``digest`` field of its events.

One lock-guarded LRU of at most :data:`MAX_ENTRIES` live
:class:`~repro.mbqc.compile.CompiledPattern` objects (frozen, so sharing
them is safe).  Nothing is persisted: loading a serialised Python
object from a shared directory runs code, and a stored entry goes stale
after a compiler change, while recompiling costs a millisecond or two.
Hit/miss traffic accumulates in :class:`CacheStats`, rendered as R106
diagnostics (see
:func:`repro.analysis.resources.cache_diagnostics`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.mbqc.channels import as_channel_model
from repro.mbqc.compile import CompiledPattern, compile_pattern, lower_noise
from repro.mbqc.noise import NoiseModel
from repro.mbqc.serialize import canonical_json, noise_model_to_dict
from repro.serve.jobs import JobSpec

#: Bound on live entries; the least recently used one is evicted first.
MAX_ENTRIES = 256


def _noise_key(noise: Optional[object]) -> Optional[dict]:
    if noise is None:
        return None
    if isinstance(noise, NoiseModel):
        # The probability bag determines its lowering; serialising the
        # lowered Kraus channels would cost ~10x more per submit.
        return {"p_prep": noise.p_prep, "p_ent": noise.p_ent, "p_meas": noise.p_meas}
    return noise_model_to_dict(as_channel_model(noise))


def _program_key(spec: JobSpec) -> str:
    """Canonical JSON of the spec fields that determine the program."""
    gammas, betas = spec.angles()
    return canonical_json(
        {
            "problem": spec.problem,
            "gammas": list(gammas),
            "betas": list(betas),
            "pattern": spec.pattern_data,
            "noise": None if spec.kind == "verify" else _noise_key(spec.noise),
        }
    )


@dataclass
class CacheStats:
    """Counters for one cache's lifetime, surfaced as R106 diagnostics."""

    hits: int = 0
    misses: int = 0

    def diagnostics(self):
        """R106 rows for this cache — see
        :func:`repro.analysis.resources.cache_diagnostics`."""
        from repro.analysis.resources import cache_diagnostics

        return cache_diagnostics(self)


class PatternCache:
    """LRU of compiled, noise-lowered programs keyed by job spec."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, CompiledPattern]" = OrderedDict()
        self._lock = threading.Lock()

    def get_or_compile_status(
        self, spec: JobSpec
    ) -> Tuple[CompiledPattern, str, str]:
        """``(compiled, digest, status)`` for ``spec``'s program, with
        status ``"hit"`` or ``"miss"``."""
        key = _program_key(spec)
        digest = hashlib.sha256(key.encode()).hexdigest()
        with self._lock:
            compiled = self._entries.get(key)
            if compiled is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return compiled, digest, "hit"
            self.stats.misses += 1
        compiled = compile_pattern(spec.build_pattern())
        if spec.kind != "verify" and spec.noise is not None:
            compiled = lower_noise(compiled, spec.noise)
        with self._lock:
            self._entries[key] = compiled
            while len(self._entries) > MAX_ENTRIES:
                self._entries.popitem(last=False)
        return compiled, digest, "miss"
