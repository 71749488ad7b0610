"""E27 — serving-layer cache latency and coalescing bit-identity.

The serving layer's two claims, certified together:

* **Repeat-traffic latency.**  A warm cache hit answers a job's
  compile request at least 5x faster than a cold compile (pattern build,
  compile and noise lowering) — the whole point of compile-once /
  serve-many — and a same-program job stream through the server
  compiles once.
* **Coalescing bit-identity.**  Jobs fused into one shared
  ``sample_batch`` call produce receipts byte-equal to their standalone
  checkpointed runs — batching changes wall-clock, never records.

Emits ``BENCH_E27.json`` in the working directory.  Set
``REPRO_BENCH_QUICK=1`` for the trimmed CI smoke variant.
"""

import dataclasses
import json
import os
import tempfile
import time

from repro.core import compile_qaoa_pattern
from repro.exec import records_digest, run_checkpointed
from repro.mbqc.compile import (
    _basis_block,
    _basis_table,
    _clifford_words,
    _pauli_table,
)
from repro.mbqc.noise import NoiseModel
from repro.problems import MaxCut
from repro.serve import JobServer, JobSpec, PatternCache

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

# The latency experiment wants a pattern big enough that compilation is
# worth caching; the sampling experiments want one cheap enough that the
# statevector engine isn't the bottleneck being measured.
RING = 8 if QUICK else 14
DEPTH = 2 if QUICK else 3
SAMPLE_RING = 6 if QUICK else 8
SAMPLE_DEPTH = 1 if QUICK else 2
REPEATS = 3 if QUICK else 5
SHOTS = 120 if QUICK else 480
BLOCK_SHOTS = 60 if QUICK else 120
WARM_SPEEDUP_BOUND = 5.0

_RESULTS = {}


def qaoa_spec(n=RING, p=DEPTH):
    angles = [0.37 + 0.11 * i for i in range(p)]
    return JobSpec.from_dict(
        {"kind": "run", "problem": f"ring:{n}", "gammas": angles,
         "betas": angles[::-1], "shots": 1, "noise": 0.01},
        default_id="e27",
    )


def _clear_compile_memos():
    """Drop the compiler's in-process memo tables so a 'cold' compile
    pays the full lowering cost, as a fresh process would."""
    _clifford_words.cache_clear()
    _basis_table.cache_clear()
    _basis_block.cache_clear()
    _pauli_table.cache_clear()


def test_e27_cache_latency():
    print("\nE27 — compiled-program cache: cold compile vs warm hit")
    spec = qaoa_spec()
    cold, warm = [], []
    for _ in range(REPEATS):
        _clear_compile_memos()
        cache = PatternCache()
        t0 = time.perf_counter()
        cache.get_or_compile_status(spec)
        cold.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        cache.get_or_compile_status(spec)
        warm.append(time.perf_counter() - t0)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    t_cold, t_warm = min(cold), min(warm)
    ratio = t_cold / max(t_warm, 1e-9)
    _RESULTS["cache_latency"] = {
        "ring": RING,
        "depth": DEPTH,
        "cold_compile_s": t_cold,
        "warm_hit_s": t_warm,
        "warm_speedup": ratio,
    }
    print(f"  cold {1e3 * t_cold:8.2f} ms   warm hit {1e6 * t_warm:8.1f} us "
          f"({ratio:5.1f}x)")
    assert ratio >= WARM_SPEEDUP_BOUND, ratio


def test_e27_repeat_traffic_through_server():
    print("\nE27 — repeat same-pattern traffic through the job server")
    with JobServer(executor="inline") as srv:
        base = {
            "kind": "run", "problem": f"ring:{SAMPLE_RING}",
            "gammas": [0.4] * SAMPLE_DEPTH, "betas": [0.7] * SAMPLE_DEPTH,
            "shots": SHOTS, "block_shots": BLOCK_SHOTS,
            "noise": 0.02, "backend": "statevector",
        }
        latencies = []
        for i in range(REPEATS + 1):
            t0 = time.perf_counter()
            srv.submit({**base, "id": f"j{i}", "seed": 100 + i})
            srv.result(f"j{i}", timeout=300)
            latencies.append(time.perf_counter() - t0)
        stats = dataclasses.asdict(srv.cache.stats)
    _RESULTS["repeat_traffic"] = {
        "jobs": REPEATS + 1,
        "first_job_s": latencies[0],
        "best_repeat_s": min(latencies[1:]),
        "cache_stats": stats,
    }
    print(f"  first job {1e3 * latencies[0]:8.1f} ms   "
          f"best repeat {1e3 * min(latencies[1:]):8.1f} ms   "
          f"hits {stats['hits']}/{REPEATS + 1}")
    assert stats["misses"] == 1
    assert stats["hits"] == REPEATS


def test_e27_coalescing_bit_identity():
    print("\nE27 — coalesced receipts equal standalone checkpointed runs")
    seeds = (7, 11, 13)
    base = {
        "kind": "run", "problem": f"ring:{SAMPLE_RING}",
        "gammas": [0.4] * SAMPLE_DEPTH, "betas": [0.7] * SAMPLE_DEPTH,
        "shots": SHOTS, "block_shots": BLOCK_SHOTS,
        "noise": 0.02, "backend": "statevector",
    }
    with tempfile.TemporaryDirectory() as tmp:
        with JobServer(executor="inline") as srv:
            sub = srv.subscribe()
            srv.pause()
            for s in seeds:
                srv.submit({**base, "id": f"s{s}", "seed": s})
            srv.resume()
            receipts = {
                s: srv.result(f"s{s}", timeout=300).records_sha256
                for s in seeds
            }
            events = []
            while not sub.empty():
                events.append(sub.get())
        blocks = [e for e in events if e.get("event") == "block"]
        fused = [e for e in blocks if e.get("coalesced")]

        compiled = compile_qaoa_pattern(
            MaxCut.ring(SAMPLE_RING).to_qubo(),
            [0.4] * SAMPLE_DEPTH, [0.7] * SAMPLE_DEPTH,
        ).executable()
        noise = NoiseModel(p_prep=0.02, p_ent=0.02, p_meas=0.02)
        identical = True
        for s in seeds:
            ref = run_checkpointed(
                compiled, SHOTS, job_dir=os.path.join(tmp, f"ref{s}"),
                seed=s, backend="statevector", block_shots=BLOCK_SHOTS,
                noise=noise,
            )
            identical = identical and (records_digest(ref.run) == receipts[s])
    _RESULTS["coalescing"] = {
        "jobs": len(seeds),
        "blocks": len(blocks),
        "coalesced_blocks": len(fused),
        "receipts_bit_identical": identical,
    }
    print(f"  {len(fused)}/{len(blocks)} blocks coalesced   receipts "
          f"{'same' if identical else 'DIFFER'}")
    assert fused, "no blocks coalesced — pause/resume fusion regressed"
    assert identical


def test_e27_emit_json():
    with open("BENCH_E27.json", "w") as fh:
        json.dump(_RESULTS, fh, indent=2)
    print("  wrote BENCH_E27.json")
