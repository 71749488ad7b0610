"""In-process compiled-program cache (`repro.serve.cache`).

The certification claims: the key (and its digest) is a pure function of
the fields that determine the program — stable across process restarts,
independent of dict ordering, blind to a verify job's noise and to
whether its default angles were spelled out; a hit builds no pattern and
yields records bit-identical to a fresh compile on every engine; the
bound evicts the least recently used entry, also under concurrent
threads; and nothing touches disk.
"""

import dataclasses
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.mbqc import Pattern, compile_pattern, get_backend
from repro.mbqc.compile import ChannelOp, lower_noise
from repro.mbqc.noise import NoiseModel
from repro.mbqc.serialize import pattern_to_dict
from repro.serve import CacheStats, JobSpec, PatternCache
from repro.utils.rng import ensure_rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def j_chain(alphas):
    p = Pattern(input_nodes=[0], output_nodes=[len(alphas)])
    for i, a in enumerate(alphas):
        p.n(i + 1).e(i, i + 1).m(i, "XY", -a, s_domain=set())
        p.x(i + 1, {i})
    return p


def spec(**over):
    data = {"kind": "run", "problem": "ring:4", "gammas": [0.3],
            "betas": [0.6], "shots": 8, "noise": 0.02, **over}
    return JobSpec.from_dict(data, default_id="j")


def digest_of(cache, s):
    return cache.get_or_compile_status(s)[1]


@pytest.fixture
def clifford_pattern():
    """Clifford angles so the stabilizer engine can run it too."""
    return j_chain([0.0, np.pi / 2, np.pi, np.pi / 2])


class TestDigest:
    def test_deterministic_in_process(self):
        assert digest_of(PatternCache(), spec()) == digest_of(PatternCache(), spec())

    def test_sensitive_to_inputs(self):
        cache = PatternCache()
        base = digest_of(cache, spec())
        for other in (
            spec(noise=0.03),
            spec(noise={"p_prep": 0.02}),
            spec(gammas=[0.31]),
            spec(betas=[0.61]),
            spec(problem="ring:5"),
        ):
            _, digest, status = cache.get_or_compile_status(other)
            assert status == "miss" and digest != base
        assert cache.stats.hits == 0

    def test_noise_none_vs_trivial_model_distinct_from_noisy(self):
        cache = PatternCache()
        noisy = digest_of(cache, spec())
        assert digest_of(cache, spec(noise=None)) != noisy
        assert digest_of(cache, spec(noise={"p_prep": 0.0})) != noisy

    def test_stable_across_process_restarts(self):
        """The key survives interpreter restarts (no PYTHONHASHSEED /
        id() / dict-order leakage)."""
        script = (
            "from repro.serve import JobSpec, PatternCache\n"
            "s = JobSpec.from_dict({'kind': 'run', 'problem': 'ring:4',"
            " 'gammas': [0.3], 'betas': [0.6], 'shots': 8, 'noise': 0.02},"
            " default_id='j')\n"
            "print(PatternCache().get_or_compile_status(s)[1])\n"
        )
        digests = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC + os.pathsep + ROOT
            env["PYTHONHASHSEED"] = hashseed
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env, cwd=ROOT,
            )
            digests.add(out.stdout.strip())
        digests.add(digest_of(PatternCache(), spec()))
        assert len(digests) == 1


class TestKey:
    def test_reordered_pattern_dict_hits(self):
        data = pattern_to_dict(j_chain([0.3, 0.7]))
        reordered = dict(reversed(list(data.items())))
        reordered["commands"] = [
            dict(reversed(list(cmd.items()))) for cmd in data["commands"]
        ]
        cache = PatternCache()
        first = cache.get_or_compile_status(spec(kind="sample", pattern=data))
        second = cache.get_or_compile_status(spec(kind="sample", pattern=reordered))
        assert second[2] == "hit" and second[0] is first[0]
        assert second[1] == first[1]

    def test_verify_job_ignores_noise(self):
        cache = PatternCache()
        _, quiet, _ = cache.get_or_compile_status(spec(kind="verify", noise=None))
        compiled, noisy, status = cache.get_or_compile_status(
            spec(kind="verify", noise=0.05)
        )
        assert status == "hit" and noisy == quiet
        assert not any(isinstance(op, ChannelOp) for op in compiled.ops)

    def test_verify_default_angles_share_entry(self):
        cache = PatternCache()
        implicit = cache.get_or_compile_status(
            spec(kind="verify", gammas=[], betas=[])
        )
        explicit = cache.get_or_compile_status(
            spec(kind="verify", gammas=[0.4], betas=[0.7])
        )
        assert explicit[2] == "hit" and explicit[1] == implicit[1]

    def test_hit_builds_no_pattern(self, monkeypatch):
        cache = PatternCache()
        cache.get_or_compile_status(spec())
        builds = []
        original = JobSpec.build_pattern
        monkeypatch.setattr(
            JobSpec, "build_pattern",
            lambda self: builds.append(1) or original(self),
        )
        assert cache.get_or_compile_status(spec())[2] == "hit"
        assert builds == []


class TestHitIdentity:
    @pytest.mark.parametrize(
        "backend", ["statevector", "stabilizer", "density", "mps"]
    )
    def test_cache_hit_records_bit_identical(self, clifford_pattern, backend):
        """A hit samples bit-identically to a fresh compile on every
        engine."""
        noise = NoiseModel(p_prep=0.02, p_ent=0.02, p_meas=0.02)
        job = spec(kind="sample", pattern=pattern_to_dict(clifford_pattern),
                   noise={"p_prep": 0.02, "p_ent": 0.02, "p_meas": 0.02})
        cache = PatternCache()
        cache.get_or_compile_status(job)
        compiled_hit, _, status = cache.get_or_compile_status(job)
        assert status == "hit"
        compiled_fresh = lower_noise(compile_pattern(clifford_pattern), noise)

        engine = get_backend(backend)
        a = engine.sample_batch(compiled_fresh, 64, ensure_rng(7))
        b = engine.sample_batch(compiled_hit, 64, ensure_rng(7))
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_memory_tier_hit(self):
        cache = PatternCache()
        first = cache.get_or_compile_status(spec())
        second = cache.get_or_compile_status(spec())
        assert second[0] is first[0] and second[2] == "hit"
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_memory_only_cache(self, tmp_path, monkeypatch):
        """No disk tier: no constructor options, and a miss plus a hit
        leave the working directory untouched."""
        with pytest.raises(TypeError):
            PatternCache(str(tmp_path))
        monkeypatch.chdir(tmp_path)
        cache = PatternCache()
        cache.get_or_compile_status(spec())
        cache.get_or_compile_status(spec())
        assert os.listdir(tmp_path) == []

    def test_lru_keeps_hot_entry(self, monkeypatch):
        """A recently hit entry survives eviction; FIFO would drop it."""
        monkeypatch.setattr("repro.serve.cache.MAX_ENTRIES", 2)
        cache = PatternCache()
        a, b, c = spec(gammas=[0.1]), spec(gammas=[0.2]), spec(gammas=[0.3])
        cache.get_or_compile_status(a)
        cache.get_or_compile_status(b)
        assert cache.get_or_compile_status(a)[2] == "hit"
        cache.get_or_compile_status(c)  # evicts b, the least recently used
        assert len(cache._entries) == 2
        assert cache.get_or_compile_status(a)[2] == "hit"
        assert cache.get_or_compile_status(b)[2] == "miss"


class TestConcurrentWriters:
    def test_parallel_writers_never_tear(self, monkeypatch):
        """Threads hitting, missing and evicting at once: no lookup
        fails, every lookup is counted once, the LRU stays within its
        bound, and every program handed out samples like a fresh compile
        of its spec."""
        monkeypatch.setattr("repro.serve.cache.MAX_ENTRIES", 2)
        cache = PatternCache()
        patterns = [j_chain([a, 0.5]) for a in (0.1, 0.2, 0.3)]
        specs = [
            spec(kind="sample", pattern=pattern_to_dict(p), noise=None)
            for p in patterns
        ]
        seen = [{} for _ in specs]
        errors = []

        def hammer(offset):
            try:
                for i in range(600):
                    k = (i + offset) % len(specs)
                    compiled, _, _ = cache.get_or_compile_status(specs[k])
                    seen[k][id(compiled)] = compiled
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave as finely as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert cache.stats.hits + cache.stats.misses == 4 * 600
        assert len(cache._entries) <= 2
        engine = get_backend("statevector")
        for pattern, programs in zip(patterns, seen):
            ref = engine.sample_batch(compile_pattern(pattern), 8, ensure_rng(5))
            for program in programs.values():
                out = engine.sample_batch(program, 8, ensure_rng(5))
                assert np.array_equal(out.outcomes, ref.outcomes)


class TestStatsAndDiagnostics:
    def test_stats_dict(self):
        stats = CacheStats(hits=2, misses=3)
        assert dataclasses.asdict(stats) == {"hits": 2, "misses": 3}

    def test_r106_rows(self):
        cache = PatternCache()
        assert cache.stats.diagnostics() == ()
        cache.get_or_compile_status(spec())
        cache.get_or_compile_status(spec())
        rows = cache.stats.diagnostics()
        assert [(d.code, d.severity.name.lower()) for d in rows] == [
            ("R106", "info")
        ]
        assert "1/2 hits" in rows[0].message
