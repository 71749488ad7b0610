"""``serve`` workload: an in-process ``JobServer`` fed in two phases.

- ``steady``: an open-loop Poisson schedule at a fixed ``RATE``, a
  small fraction of what the server completes in a burst, so that
  queueing stays short and the percentiles repeat from run to run.
  Latency runs from each job's scheduled send time to its ``done``
  event, so a stalled generator shows as latency; how late the
  generator sent is reported in the traced run.
- ``burst``: ``BURSTS`` blocks of ``BURST_JOBS`` jobs, each submitted at
  once.  The queue grows while the workers are busy, so blocks of jobs
  with the same program fuse into one ``sample_batch`` call.  How deep
  they fuse depends on thread timing, so the rates pool several bursts.

Jobs are mostly ring-8 p = 1 statevector jobs with noise 0.02 (two
blocks each), plus a fixed share of Clifford ring-24 jobs that dispatch
routes to the stabilizer engine.  Most statevector jobs reuse a small
pool of specs (cache hits, fusable); a fixed share carry fresh angles
(cache misses and writes).  Small jobs keep the per-call overhead that
fusion removes visible.

Oracles: every job ends with a ``records_sha256`` receipt, and a seeded
subset of receipts equals a standalone ``run_checkpointed`` of the same
spec.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.cli import parse_problem
from repro.core.compiler import compile_qaoa_pattern
from repro.exec.checkpoint import records_digest, run_checkpointed
from repro.mbqc.compile import compile_pattern, lower_noise
from repro.mbqc.noise import NoiseModel
from repro.serve.server import JobServer

import common

NOISE = 0.02
SV = {"problem": "ring:8", "shots": 16, "block_shots": 8}
STAB = {"problem": "ring:24", "shots": 64, "block_shots": 64}
CLIFFORD_ANGLES = (0.0, np.pi / 2, np.pi)
POOL_SV = 6
STAB_SHARE = 0.2
UNIQUE_SHARE = 0.2  # of the statevector jobs
RATE = 5.0  # steady jobs per second, for --seconds
BURST_JOBS = 64
BURSTS = 5
ORACLE_JOBS = 4
DRAIN_TIMEOUT_S = 120.0


def workers() -> int:
    return len(os.sched_getaffinity(0))


def _spec(base: dict, gammas, betas) -> dict:
    return {**base, "gammas": [float(g) for g in gammas],
            "betas": [float(b) for b in betas], "noise": NOISE}


def spec_pool(seed: int) -> List[dict]:
    """The repeated specs: ``POOL_SV`` statevector specs at seeded angles,
    then one stabilizer spec per Clifford angle pair (the stabilizer
    engine's cost depends on the pair, so every seed gets them all)."""
    rng = np.random.default_rng([seed, 0])
    pool = [_spec(SV, rng.uniform(-np.pi, np.pi, 1), rng.uniform(-np.pi / 2, np.pi / 2, 1))
            for _ in range(POOL_SV)]
    pool += [_spec(STAB, [g], [b])
             for g, b in itertools.product(CLIFFORD_ANGLES, repeat=2)]
    return pool


def phase_jobs(seed: int, phase: str, count: int, quick: bool) -> List[dict]:
    """``count`` jobs with fixed shares of stabilizer, unique and pooled
    statevector specs, in seeded order, each with a ``due`` offset
    (seconds) on a Poisson schedule at ``RATE``."""
    pool = spec_pool(seed)
    rng = np.random.default_rng([seed, 1, *phase.encode()])
    n_stab = round(STAB_SHARE * count)
    n_unique = round(UNIQUE_SHARE * (count - n_stab))
    # Stratified order: the i-th of a kind's m jobs lands at a random
    # point of the i-th m-quantile of the sequence, so each kind is spread
    # evenly and no seed bunches the heavy stabilizer jobs together.
    keyed = []
    for kind, m in (("stab", n_stab), ("unique", n_unique),
                    ("pool", count - n_stab - n_unique)):
        keyed += [((i + rng.random()) / m, kind) for i in range(m)]
    kinds = [kind for _, kind in sorted(keyed)]
    # A Poisson process conditioned on its count: the arrival times are
    # sorted uniform draws over count / RATE seconds, so every seed
    # offers the same mean rate.
    dues = np.sort(rng.uniform(0.0, count / RATE, count))
    # Pooled specs are taken in turn from a seeded permutation, so every
    # seed runs each of them equally often.
    stab_order = POOL_SV + rng.permutation(len(pool) - POOL_SV)
    sv_order = rng.permutation(POOL_SV)
    taken = {"stab": 0, "pool": 0}
    jobs = []
    for i, (kind, due) in enumerate(zip(kinds, dues)):
        if kind in taken:
            order = stab_order if kind == "stab" else sv_order
            spec = pool[order[taken[kind] % len(order)]]
            taken[kind] += 1
        else:
            spec = _spec(SV, rng.uniform(-np.pi, np.pi, 1), rng.uniform(-np.pi / 2, np.pi / 2, 1))
        job = {**spec, "id": f"{phase}-{i}", "seed": int(rng.integers(2**62)),
               "due": float(due)}
        if quick:
            job["shots"] //= 4
            job["block_shots"] //= 4
        jobs.append(job)
    return jobs


def _request(job: dict) -> dict:
    return {k: v for k, v in job.items() if k != "due"}


class Events:
    """Every server event with the time it was emitted."""

    def __init__(self, server: JobServer) -> None:
        self.server = server
        self.log: list = []
        self.queue = server.subscribe()
        # _emit calls put() on the emitting thread: stamp it there.
        self.queue.put = lambda event, *a, **k: self.log.append((time.perf_counter(), event))

    def close(self) -> None:
        self.server.unsubscribe(self.queue)

    def first(self, kind: str) -> Dict[str, float]:
        """job id -> time of its first ``kind`` event."""
        out: Dict[str, float] = {}
        for t, event in list(self.log):
            if event.get("event") == kind and "job" in event:
                out.setdefault(event["job"], t)
        return out

    def receipts(self) -> Dict[str, str]:
        return {e["job"]: e["records_sha256"] for _, e in list(self.log)
                if e.get("event") == "done" and "records_sha256" in e}


def setup(seed: int, quick: bool) -> dict:
    """Start the server and compile, dispatch and run a small job for
    every pooled spec, so measured pool jobs hit a warm cache."""
    server = JobServer(executor="thread", workers=workers())
    try:
        for i, spec in enumerate(spec_pool(seed)):
            server.submit({**spec, "id": f"warmup-{i}", "seed": i,
                           "shots": spec["block_shots"] // 8})
        server.drain(timeout=DRAIN_TIMEOUT_S)
    except BaseException:
        server.close()
        raise
    return {"server": server}


def close(state: dict) -> None:
    state["server"].close()


def _submit_all(server, jobs, tally, recorder, paced: bool) -> Dict[str, dict]:
    """Send ``jobs`` (paced on their ``due`` offsets, or all at once);
    returns per job id its due, sent and submit-return times."""
    sent: Dict[str, dict] = {}
    t0 = time.perf_counter() + (0.05 if paced else 0.0)
    for job in jobs:
        due = t0 + job["due"] if paced else t0
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        start = time.perf_counter()
        tally.attempted += 1
        if recorder is None:
            ok = tally.guard(job["id"], server.submit, _request(job))
        else:
            with recorder.span("serve.submit", rid=job["id"]):
                ok = tally.guard(job["id"], server.submit, _request(job))
        if ok is not None:
            sent[job["id"]] = {"due": due, "start": start, "returned": time.perf_counter()}
    try:
        server.drain(timeout=DRAIN_TIMEOUT_S)
    except TimeoutError as exc:
        tally.fail(f"drain: {exc}")
    return sent


def _burst(server, jobs, events, tally, recorder=None) -> dict:
    """Submit ``jobs`` at once; completed jobs and records, and the
    makespan."""
    start = time.perf_counter()
    _submit_all(server, jobs, tally, recorder, paced=False)
    done = events.first("done")
    ends = [done[j["id"]] for j in jobs if j["id"] in done]
    makespan = (max(ends) if ends else time.perf_counter()) - start
    shots = sum(j["shots"] for j in jobs if j["id"] in done)
    return {"jobs": len(ends), "shots": shots, "wall_s": makespan}


def _steady(server, jobs, events, tally, recorder=None) -> dict:
    start = time.perf_counter()
    sent = _submit_all(server, jobs, tally, recorder, paced=True)
    wall = time.perf_counter() - start
    done = events.first("done")
    blocks = events.first("block")
    ids = [j["id"] for j in jobs if j["id"] in sent and j["id"] in done]
    return {
        "latency_s": [done[i] - sent[i]["due"] for i in ids],
        "first_block_s": [blocks[i] - sent[i]["returned"] for i in ids if i in blocks],
        "late_s": [s["start"] - s["due"] for s in sent.values()],
        "wall_s": wall,
    }


def _standalone_digest(job: dict, workdir: str) -> str:
    _, qubo, _ = parse_problem(job["problem"])
    pattern = compile_qaoa_pattern(qubo, job["gammas"], job["betas"]).pattern
    program = lower_noise(compile_pattern(pattern), NoiseModel(NOISE, NOISE, NOISE))
    with tempfile.TemporaryDirectory(dir=workdir) as job_dir:
        result = run_checkpointed(program, job["shots"], job_dir=job_dir,
                                  seed=job["seed"], block_shots=job["block_shots"])
    return records_digest(result.run)


def check_receipts(jobs, events, seed: int, workdir: str, tally) -> None:
    receipts = events.receipts()
    for job in jobs:
        if job["id"] not in receipts:
            tally.fail(f"{job['id']}: no receipt")
    rng = np.random.default_rng([seed, 2])
    done = [j for j in jobs if j["id"] in receipts]
    for k in rng.choice(len(done), size=min(ORACLE_JOBS, len(done)), replace=False):
        job = done[int(k)]
        digest = tally.guard(job["id"], _standalone_digest, job, workdir)
        if digest is not None and digest != receipts[job["id"]]:
            tally.fail(f"{job['id']}: receipt differs from a standalone run")


def _rate(bursts, key: str) -> float:
    """Completed ``key`` per second over the bursts' summed makespans (a
    rate over the whole run; see wl_sample.measure)."""
    return sum(b[key] for b in bursts) / sum(b["wall_s"] for b in bursts)


def _cache_counts(server) -> Tuple[int, int]:
    stats = server.cache.stats
    return stats.hits, stats.misses


def measure(
    state, seed: int, seconds: float, quick: bool, tally, recorder=None
) -> Dict[str, float]:
    """Untraced: steady, then ``BURSTS`` bursts.  Traced: steady, then
    bursts alternating untraced and traced, with the recorder installed
    only for the traced phases."""
    server = state["server"]
    n_steady = max(common.P90_MIN_SAMPLES, round(RATE * seconds))
    jobs = {"steady": phase_jobs(seed, "steady", n_steady, quick)}
    for k in range(BURSTS):
        jobs[f"burst{k}"] = phase_jobs(seed, f"burst{k}", BURST_JOBS, quick)
        if recorder is not None:
            jobs[f"traced{k}"] = phase_jobs(seed, f"traced{k}", BURST_JOBS, quick)
    events = Events(server)
    cache = [0, 0]

    def run(phase_fn, phase, traced):
        if not traced:
            return phase_fn(server, jobs[phase], events, tally)
        hits0, misses0 = _cache_counts(server)
        with recorder.installed(server):
            out = phase_fn(server, jobs[phase], events, tally, recorder)
        hits1, misses1 = _cache_counts(server)
        cache[0] += hits1 - hits0
        cache[1] += misses1 - misses0
        return out

    try:
        steady = run(_steady, "steady", recorder is not None)
        if recorder is None:
            bursts = [run(_burst, f"burst{k}", False) for k in range(BURSTS)]
        else:
            base, bursts = [], []
            for k in range(BURSTS):
                base.append(run(_burst, f"burst{k}", False))
                bursts.append(run(_burst, f"traced{k}", True))
    finally:
        events.close()
    check_receipts([j for phase in jobs.values() for j in phase], events, seed,
                   str(common.OUT_DIR), tally)
    if recorder is None:
        return {
            "shots_per_s": _rate(bursts, "shots"),
            "ops_per_s": _rate(bursts, "jobs"),
            "latency_p50_ms": 1e3 * common.percentile(steady["latency_s"], 50),
            "latency_p90_ms": 1e3 * common.percentile(steady["latency_s"], 90),
        }
    hits, misses = cache
    busy = sum(end - start for _, name, start, end, *_ in recorder.spans
               if name == "serve.exec")
    traced_wall = steady["wall_s"] + sum(b["wall_s"] for b in bursts)
    return {
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.first_block_p50_ms": 1e3 * common.percentile(steady["first_block_s"], 50),
        "serve.worker_busy_share": busy / (workers() * traced_wall),
        "loadgen.late_p90_ms": 1e3 * common.percentile(steady["late_s"], 90),
        "trace.overhead_pct": 100.0 * (_rate(base, "jobs") / _rate(bursts, "jobs") - 1.0),
    }
