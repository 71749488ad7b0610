"""The benchmark's own tests.

Run from the root of a checkout (not part of the tier-1 suite, whose
glob this file name does not match):

    python -m pytest perfbench/bench_selftest.py -q
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import common  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import wl_sample  # noqa: E402
import wl_serve  # noqa: E402
import wl_variational  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- contract ------------------------------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == common.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_quick_run_emits_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    assert "blas_threads=1" in lines[-2]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr[-3000:]
    assert result["attempted"] >= 1
    expected = common.PER_LAYER if trace else common.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    assert not multiprocessing.active_children()


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("sample", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


# -- leftover check --------------------------------------------------------------


def test_leftovers_reports_a_live_non_daemon_thread():
    release = threading.Event()
    worker = threading.Thread(target=release.wait, name="bench-leftover")
    worker.start()
    try:
        assert any("bench-leftover" in item for item in run.leftovers())
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert not any("bench-leftover" in item for item in run.leftovers())


def test_leftovers_reports_a_live_child_process():
    child = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,))
    child.start()
    try:
        assert any(f"child process {child.pid}" == item for item in run.leftovers())
    finally:
        child.terminate()
        child.join(timeout=10)
    assert not child.is_alive()
    assert run.leftovers() == []


def test_leftovers_ignores_daemon_threads():
    release = threading.Event()
    worker = threading.Thread(target=release.wait, daemon=True)
    worker.start()
    try:
        assert run.leftovers() == []
    finally:
        release.set()
        worker.join(timeout=10)


# -- inputs are a function of the seed -------------------------------------------


def _sample_inputs(seed):
    return [(j.label, j.mc.edges, j.gammas, j.betas, j.shots, j.seed)
            for j in wl_sample.round_jobs(seed, 3, quick=False)]


def _variational_inputs(seed):
    return [(s["label"], s["qubo"].cost_vector().tolist(), s["seed"])
            for s in wl_variational.cycle_solves(seed, 3, quick=False)]


def _serve_inputs(seed):
    return wl_serve.spec_pool(seed), wl_serve.phase_jobs(seed, "steady", 50, quick=False)


@pytest.mark.parametrize("inputs", (_sample_inputs, _variational_inputs, _serve_inputs))
def test_same_seed_same_inputs_other_seed_other_inputs(inputs):
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_serve_job_mix_has_fixed_shares():
    jobs = wl_serve.phase_jobs(3, "steady", 100, quick=False)
    stab = [j for j in jobs if j["problem"] == "ring:24"]
    pool = wl_serve.spec_pool(3)
    unique = [j for j in jobs if j["problem"] == "ring:8"
              and not any(j["gammas"] == p["gammas"] and j["betas"] == p["betas"]
                          for p in pool)]
    assert len(stab) == 20 and len(unique) == 16


# -- recorder ----------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    rec = tracing.Recorder()
    with rec.span("outer", rid="r1"):
        time.sleep(0.02)
        with rec.span("inner", n=5):
            time.sleep(0.03)
    layers = rec.layers()
    assert layers["inner"]["n"] == 5
    assert layers["outer"]["self_s"] == pytest.approx(
        layers["outer"]["total_s"] - layers["inner"]["total_s"]
    )
    assert 0.015 < layers["outer"]["self_s"] < 0.03
    inner = next(s for s in rec.spans if s[1] == "inner")
    assert inner[5] == "r1"  # request id inherited from the parent


def test_install_wraps_and_uninstall_restores_every_binding():
    import importlib

    from repro.mbqc import backend

    before = {(m, a): getattr(importlib.import_module(m), a)
              for m, a, _ in tracing.PATCHES}
    engines = {name: backend.get_backend(name) for name in backend.available_backends()}
    rec = tracing.Recorder()
    with rec.installed():
        for (m, a), fn in before.items():
            assert getattr(importlib.import_module(m), a).__wrapped__ is fn
        assert all("sample_batch" in vars(e) for e in engines.values())
    for (m, a), fn in before.items():
        assert getattr(importlib.import_module(m), a) is fn
    assert not any("sample_batch" in vars(e) for e in engines.values())
    assert "__wrapped__" not in vars(backend.SampleRun.sample_bitstrings)


def test_percentile_needs_ten_samples_beyond():
    assert common.percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        common.percentile(list(range(99)), 90)
