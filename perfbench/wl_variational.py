"""``variational`` workload: the paper's closed loop.

``MBQCQAOASolver(...).solve()`` under Pauli noise with
``runs_per_batch = 8`` on seeded MaxCut instances, in cycles of two
3-regular n = 8 p = 1 solves and one ring-8 p = 2 solve.  Every COBYLA
evaluation builds, compiles, lowers and dispatches a fresh pattern and
then samples only 8 trajectories, so compile-side costs show here and
not in ``sample``.  The 2:1 cycle puts the evaluation p50 inside the
p = 1 evaluations and the p90 inside the p = 2 ones.

Oracle: each solve's ``best_cost`` equals the brute-force optimum.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.core.solver import MBQCQAOASolver
from repro.mbqc.noise import NoiseModel
from repro.problems import MaxCut

import common

PAULI = NoiseModel(p_prep=0.01, p_ent=0.01, p_meas=0.01)
CYCLE = (("3reg8", 1), ("3reg8", 1), ("ring8", 2))
RUNS_PER_BATCH = 8
SHOTS = 256
MAXITER = 20  # COBYLA uses all 20 here, so every cycle has the same mix
WARMUP_CYCLE = 1 << 20  # a cycle index no measured run reaches


def cycle_solves(seed: int, index: int, quick: bool) -> List[dict]:
    """The solves of cycle ``index``: a pure function of ``(seed, index)``."""
    rng = np.random.default_rng([seed, index])
    solves = []
    for k, (graph, p) in enumerate(CYCLE):
        if graph == "ring8":
            mc = MaxCut.ring(8)
        else:
            mc = MaxCut.random_regular(3, 8, seed=int(rng.integers(2**31)))
        solves.append(
            {
                "label": f"c{index}.{k}.{graph}-p{p}",
                "qubo": mc.to_qubo(),
                "p": p,
                "seed": int(rng.integers(2**63)),
                "shots": SHOTS // 4 if quick else SHOTS,
                "maxiter": MAXITER // 2 if quick else MAXITER,
            }
        )
    return solves


def _solver(spec: dict) -> MBQCQAOASolver:
    return MBQCQAOASolver(
        spec["qubo"],
        p=spec["p"],
        shots=spec["shots"],
        runs_per_batch=RUNS_PER_BATCH,
        noise=PAULI,
        seed=spec["seed"],
    )


def setup(seed: int, quick: bool) -> dict:
    """Warm-up: one evaluation per distinct program shape."""
    for spec in cycle_solves(seed, WARMUP_CYCLE, quick)[1:]:
        solver = _solver(spec)
        solver.sample([0.3] * spec["p"], [0.2] * spec["p"])
    return {}


def close(state: dict) -> None:
    pass


def run_solve(spec: dict, eval_s: List[float], recorder=None):
    """One solve; appends each evaluation's seconds to ``eval_s``."""
    solver = _solver(spec)
    inner = solver.sample

    def timed_sample(gammas, betas):
        start = time.perf_counter()
        try:
            if recorder is None:
                return inner(gammas, betas)
            with recorder.span("eval"):
                return inner(gammas, betas)
        finally:
            eval_s.append(time.perf_counter() - start)

    solver.sample = timed_sample
    if recorder is None:
        return solver.solve(restarts=1, maxiter=spec["maxiter"])
    with recorder.span("solve", rid=spec["label"]):
        return solver.solve(restarts=1, maxiter=spec["maxiter"])


def _check(spec: dict, result, tally) -> None:
    optimum = float(spec["qubo"].cost_vector().min())
    if result is None:
        return
    if not np.isclose(result.best_cost, optimum, rtol=0.0, atol=1e-9):
        tally.fail(f"{spec['label']}: best_cost {result.best_cost} != optimum {optimum}")


def measure(
    state, seed: int, seconds: float, quick: bool, tally, recorder=None
) -> Dict[str, float]:
    """Untraced: cycles until ``seconds`` have passed and the evaluation
    count supports a p90.  Traced: each solve runs untraced, then traced
    with the same seed (identical work), and must find the same result."""
    eval_s: List[float] = []
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    index = 0
    while (time.perf_counter() - start < seconds
           or len(eval_s) < common.P90_MIN_SAMPLES):
        for spec in cycle_solves(seed, index, quick):
            tally.attempted += 1
            result, dt = common.timed(tally.guard, spec["label"], run_solve, spec, eval_s)
            untraced_s += dt
            _check(spec, result, tally)
            if recorder is not None:
                with recorder.installed():
                    again, dt2 = common.timed(
                        tally.guard, spec["label"], run_solve, spec, [], recorder
                    )
                traced_s += dt2
                same = (result is not None and again is not None
                        and again.best_cost == result.best_cost
                        and again.evaluations == result.evaluations)
                if not same:
                    tally.fail(f"{spec['label']}: traced rerun changed the result")
        index += 1
    if recorder is not None:
        return {"trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0)}
    # A rate over the whole run (see wl_sample.measure).
    evals_per_s = len(eval_s) / untraced_s
    return {
        "shots_per_s": RUNS_PER_BATCH * evals_per_s,
        "ops_per_s": evals_per_s,
        "latency_p50_ms": 1e3 * common.percentile(eval_s, 50),
        "latency_p90_ms": 1e3 * common.percentile(eval_s, 90),
    }
