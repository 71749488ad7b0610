"""``sample`` workload: offline trajectory sampling on all four engines.

One round is a fixed list of jobs.  Each job builds a QAOA pattern for a
seeded MaxCut instance, compiles it, lowers its noise, lets automatic
dispatch pick the engine, samples shots and digests the records:

- statevector: ring and 3-regular graphs, n = 10, p = 1-2, noiseless and
  under Pauli noise;
- mps: ring-24 p = 1, past the dense engine's reach;
- stabilizer: ring-48 at Clifford angles under Pauli noise, sized so that
  sampling (not dispatch) dominates the job;
- density: ring-5/6 under amplitude damping plus readout flips.

Shot counts give each engine a comparable share of the round and each
job other than the stabilizer one a comparable duration, so job latency
percentiles are not set by one engine alone.

Oracles: every job's records have shape ``(shots, measured nodes)`` and
hold only 0/1; each noiseless statevector trajectory's output
distribution equals the gate-model QAOA state's; the sampled cost mean,
pooled over the run's noiseless jobs, lies within 4 sigma of
``repro.qaoa.qaoa_expectation``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core import compiler
from repro.exec import checkpoint
from repro.mbqc import backend as mbqc_backend
from repro.mbqc import compile as mbqc_compile
from repro.mbqc.channels import Channel, ChannelNoiseModel
from repro.mbqc.noise import NoiseModel
from repro.problems import MaxCut
from repro.qaoa import qaoa_expectation, qaoa_state

import common

PAULI = NoiseModel(p_prep=0.01, p_ent=0.01, p_meas=0.01)
DAMPING = ChannelNoiseModel(
    prep=Channel.amplitude_damping(0.02),
    ent=Channel.amplitude_damping(0.02),
    meas_flip=0.02,
)
NOISE = {"none": None, "pauli": PAULI, "damping": DAMPING}
CLIFFORD_ANGLES = (0.0, np.pi / 2, np.pi)
WARMUP_ROUND = 1 << 20  # a round index no measured run reaches
SIGMA_LIMIT = 4.0


@dataclass(frozen=True)
class Case:
    label: str
    graph: str  # "ring" or "3reg"
    n: int
    p: int
    noise: str
    shots: int
    clifford: bool = False

    @property
    def oracle(self) -> bool:
        """Noiseless dense-reach cases have an exact gate-model answer."""
        return self.noise == "none" and self.n <= 12


#: One round, ordered by job duration.  Shot counts give the four engines
#: comparable shares of a round (~0.7 s each on a 2-core x86 box) and
#: the twelve non-stabilizer jobs durations ~15% apart, so a latency
#: percentile sits inside one job's level instead of on a boundary
#: between engines: of 13 levels, the p50 is the 7th and the p90 the
#: 12th.  Job types whose cost varies most with the seeded angles (mps)
#: sit away from those two levels.
ROUND = (
    Case("mps-ring24-p1", "ring", 24, 1, "none", 2),
    Case("sv-ring10-p1", "ring", 10, 1, "none", 34),
    Case("density-ring5-damping", "ring", 5, 1, "damping", 33),
    Case("mps-ring24-p1", "ring", 24, 1, "none", 4),
    Case("sv-3reg10-p1-pauli", "3reg", 10, 1, "pauli", 45),
    Case("density-ring6-damping", "ring", 6, 1, "damping", 11),
    Case("density-ring5-damping", "ring", 5, 1, "damping", 60),
    Case("sv-ring10-p2-pauli", "ring", 10, 2, "pauli", 35),
    Case("mps-ring24-p1", "ring", 24, 1, "none", 8),
    Case("density-ring6-damping", "ring", 6, 1, "damping", 19),
    Case("mps-ring24-p1", "ring", 24, 1, "none", 11),
    Case("sv-3reg10-p2", "3reg", 10, 2, "none", 60),
    Case("stab-ring48-clifford-pauli", "ring", 48, 1, "pauli", 65536, True),
)
QUICK_DIVISOR = 8


@dataclass
class Job:
    label: str
    case: Case
    mc: MaxCut
    gammas: List[float]
    betas: List[float]
    shots: int
    seed: int


def round_jobs(seed: int, index: int, quick: bool) -> List[Job]:
    """The jobs of round ``index``: a pure function of ``(seed, index)``."""
    rng = np.random.default_rng([seed, index])
    jobs = []
    for k, case in enumerate(ROUND):
        if case.graph == "ring":
            mc = MaxCut.ring(case.n)
        else:
            mc = MaxCut.random_regular(3, case.n, seed=int(rng.integers(2**31)))
        if case.clifford:
            gammas = [float(rng.choice(CLIFFORD_ANGLES)) for _ in range(case.p)]
            betas = [float(rng.choice(CLIFFORD_ANGLES)) for _ in range(case.p)]
        else:
            gammas = [float(g) for g in rng.uniform(-np.pi, np.pi, case.p)]
            betas = [float(b) for b in rng.uniform(-np.pi / 2, np.pi / 2, case.p)]
        shots = max(2, case.shots // QUICK_DIVISOR) if quick else case.shots
        jobs.append(
            Job(f"r{index}.{k}.{case.label}", case, mc, gammas, betas, shots,
                int(rng.integers(2**63)))
        )
    return jobs


def run_job(job: Job):
    """The measured pipeline: build, compile, lower, dispatch, sample,
    digest.  Calls go through module attributes so a traced run sees them."""
    built = compiler.compile_qaoa_pattern(job.mc.to_qubo(), job.gammas, job.betas)
    program = mbqc_compile.lower_noise(built.executable(), NOISE[job.case.noise])
    engine = mbqc_backend.select_backend(program)
    run = engine.sample_batch(
        program, job.shots, np.random.default_rng(job.seed), keep_raw=job.case.oracle
    )
    return program, run, checkpoint.records_digest(run)


class Pooled:
    """Sampled-cost deviations from the exact QAOA mean, pooled over jobs."""

    def __init__(self) -> None:
        self.dev = 0.0
        self.var = 0.0

    @property
    def sigmas(self) -> float:
        return abs(self.dev) / np.sqrt(self.var) if self.var > 0 else 0.0


def check_job(job: Job, program, run, pooled: Pooled, tally: common.Tally) -> None:
    shape = (job.shots, len(program.measured_nodes))
    if run.outcomes.shape != shape or not np.isin(run.outcomes, (0, 1)).all():
        tally.fail(f"{job.label}: records of shape {run.outcomes.shape}, want {shape}")
        return
    if not job.case.oracle:
        return
    cost = job.mc.to_qubo().cost_vector()
    exact = np.abs(qaoa_state(cost, job.gammas, job.betas)) ** 2
    rows = run.probability_rows()
    if rows.shape != (job.shots, exact.size) or np.abs(rows - exact).max() > 1e-9:
        tally.fail(f"{job.label}: output distribution differs from the QAOA state")
        return
    rng = np.random.default_rng([job.seed, 1])
    picks = np.array([rng.choice(exact.size, p=row / row.sum()) for row in rows])
    mean = qaoa_expectation(cost, job.gammas, job.betas)
    pooled.dev += float(cost[picks].sum() - job.shots * mean)
    pooled.var += job.shots * float(exact @ (cost - mean) ** 2)


def setup(seed: int, quick: bool) -> dict:
    """Warm-up: one small job per distinct case."""
    seen = set()
    for job in round_jobs(seed, WARMUP_ROUND, quick):
        if job.case.label not in seen:
            seen.add(job.case.label)
            job.shots = 2
            run_job(job)
    return {}


def close(state: dict) -> None:
    pass


def _run_round(jobs, tally, pooled, recorder=None) -> tuple:
    """Run one round; returns per-job seconds and digests."""
    times, digests = [], []
    for job in jobs:
        tally.attempted += 1
        start = time.perf_counter()
        if recorder is None:
            out = tally.guard(job.label, run_job, job)
        else:
            with recorder.span("job", rid=job.label):
                out = tally.guard(job.label, run_job, job)
        times.append(time.perf_counter() - start)
        digests.append(out[2] if out else None)
        if out:
            check_job(job, out[0], out[1], pooled, tally)
    return times, digests


def measure(
    state, seed: int, seconds: float, quick: bool, tally, recorder=None
) -> Dict[str, float]:
    """Untraced: rounds until ``seconds`` have passed and the job count
    supports a p90.  Traced: each round runs untraced, then traced on the
    same inputs, and the traced spans give the per-layer table."""
    min_jobs = common.P90_MIN_SAMPLES if recorder is None else 0
    pooled = Pooled()
    round_s: List[float] = []
    traced_s: List[float] = []
    job_s: List[float] = []
    round_shots: List[int] = []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or len(job_s) < min_jobs:
        jobs = round_jobs(seed, index, quick)
        index += 1
        times, digests = _run_round(jobs, tally, pooled)
        job_s.extend(times)
        round_s.append(sum(times))
        round_shots.append(sum(job.shots for job in jobs))
        if recorder is not None:
            with recorder.installed():
                again, digests2 = _run_round(jobs, tally, Pooled(), recorder)
            traced_s.append(sum(again))
            for job, a, b in zip(jobs, digests, digests2):
                if a != b:
                    tally.fail(f"{job.label}: traced rerun changed the records")
    tally.attempted += 1
    if pooled.var > 0 and pooled.sigmas > SIGMA_LIMIT:
        tally.fail(f"sampled cost mean {pooled.sigmas:.2f} sigma from exact")
    if recorder is not None:
        return {"trace.overhead_pct": 100.0 * (sum(traced_s) / sum(round_s) - 1.0)}
    # Rates over the whole run, not medians over rounds: on a host whose
    # speed flips between states, a median jumps with whichever state
    # holds most rounds, while the ratio of sums moves smoothly.
    return {
        "shots_per_s": sum(round_shots) / sum(round_s),
        "ops_per_s": len(job_s) / sum(round_s),
        "latency_p50_ms": 1e3 * common.percentile(job_s, 50),
        "latency_p90_ms": 1e3 * common.percentile(job_s, 90),
    }
