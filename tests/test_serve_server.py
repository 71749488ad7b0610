"""Async job server and coalescing mux (`repro.serve`).

The certification claims: a served job's receipt is bit-identical to
the same job run standalone through `run_checkpointed` (the server adds
no randomness); jobs coalesced into one fused `sample_batch` call demux
to exactly the records each would have produced alone (the
`MuxedGenerator` concatenation property); the mux refuses — and the
server falls back to standalone execution — on any draw outside the
whole-block schedule; and every frontend (Python API, stdin-JSON,
socket) reports the same receipts.
"""

import io
import json
import threading

import numpy as np
import pytest

from repro.exec import plan_blocks, records_digest, run_checkpointed
from repro.mbqc import get_backend
from repro.mbqc.noise import NoiseModel
from repro.mbqc.pattern import PatternError
from repro.serve import (
    BlockTask,
    JobServer,
    JobSpec,
    MuxedGenerator,
    MuxScheduleError,
    pack_tasks,
    records_sha256,
    request_jobs,
    run_coalesced,
    serve_socket,
    serve_stdin,
)
from repro.serve.jobs import parse_noise
from repro.utils.rng import ensure_rng, spawn_seeds

BASE_JOB = {
    "kind": "run",
    "problem": "ring:6",
    "gammas": [0.4],
    "betas": [0.7],
    "shots": 120,
    "block_shots": 60,
    "noise": 0.02,
    "backend": "statevector",
}


def job(**over):
    return {**BASE_JOB, **over}


def standalone_digest(spec_dict, tmp_path, tag):
    """The receipt the checkpoint layer produces for the same job."""
    spec = JobSpec.from_dict(dict(spec_dict), default_id=tag)
    compiled = __import__(
        "repro.mbqc.compile", fromlist=["compile_pattern"]
    ).compile_pattern(spec.build_pattern())
    result = run_checkpointed(
        compiled,
        spec.shots,
        job_dir=str(tmp_path / f"standalone-{tag}"),
        seed=spec.seed,
        block_shots=spec.block_shots,
        backend=spec.backend if spec.backend != "auto" else "statevector",
        noise=parse_noise(spec_dict.get("noise"), job_id=tag),
    )
    return records_digest(result.run)


class TestMuxedGenerator:
    def test_concat_demux_bit_exact(self):
        sizes = (5, 3, 7)
        seeds = [11, 12, 13]
        parts = [ensure_rng(s) for s in seeds]
        mux = MuxedGenerator(parts, sizes)
        fused = mux.random(sum(sizes))
        refs = [ensure_rng(s).random(n) for s, n in zip(seeds, sizes)]
        assert np.array_equal(fused, np.concatenate(refs))

    def test_integers_demux(self):
        sizes = (4, 6)
        mux = MuxedGenerator([ensure_rng(1), ensure_rng(2)], sizes)
        fused = mux.integers(3, size=10)
        refs = [ensure_rng(1).integers(3, size=4), ensure_rng(2).integers(3, size=6)]
        assert np.array_equal(fused, np.concatenate(refs))

    def test_wrong_size_draw_refused(self):
        mux = MuxedGenerator([ensure_rng(1), ensure_rng(2)], (4, 6))
        with pytest.raises(MuxScheduleError):
            mux.random(7)
        with pytest.raises(MuxScheduleError):
            mux.random()  # scalar draw is never whole-block

    def test_off_schedule_methods_refused(self):
        mux = MuxedGenerator([ensure_rng(1)], (4,))
        with pytest.raises(MuxScheduleError):
            mux.standard_normal(4)
        with pytest.raises(MuxScheduleError):
            mux.shuffle(np.arange(4))

    def test_is_a_generator_for_ensure_rng(self):
        mux = MuxedGenerator([ensure_rng(1)], (4,))
        assert ensure_rng(mux) is mux


class TestPackTasks:
    def _task(self, i, shots):
        return BlockTask(f"j{i}", 0, 0, shots, seed=i)

    def test_greedy_packing(self):
        tasks = [self._task(i, 40) for i in range(5)]
        packs = pack_tasks(tasks, max_batch_shots=100)
        assert [len(p) for p in packs] == [2, 2, 1]
        assert [t.job_id for p in packs for t in p] == [t.job_id for t in tasks]

    def test_oversize_task_gets_own_batch(self):
        tasks = [self._task(0, 500), self._task(1, 10)]
        packs = pack_tasks(tasks, max_batch_shots=100)
        assert [len(p) for p in packs] == [1, 1]


class TestRunCoalesced:
    def test_fused_equals_standalone(self, tmp_path):
        from repro.mbqc.compile import compile_pattern, lower_noise

        spec = JobSpec.from_dict(job(), default_id="a")
        compiled = lower_noise(
            compile_pattern(spec.build_pattern()),
            NoiseModel(p_prep=0.02, p_ent=0.02, p_meas=0.02),
        )
        engine = get_backend("statevector")
        tasks = [
            BlockTask("a", 0, 0, 50, seed=spawn_seeds(np.random.SeedSequence(5), 1)[0]),
            BlockTask("b", 0, 0, 70, seed=spawn_seeds(np.random.SeedSequence(9), 1)[0]),
        ]
        fused = run_coalesced(compiled, engine, tasks)
        for task, outcomes in zip(tasks, fused):
            direct = engine.sample_batch(compiled, task.shots, ensure_rng(task.seed))
            assert np.array_equal(outcomes, direct.outcomes)

    def test_off_schedule_engine_falls_back(self):
        """An engine drawing off-schedule trips MuxScheduleError and the
        coalescer silently reruns each task standalone."""
        from repro.mbqc.compile import compile_pattern

        spec = JobSpec.from_dict(job(), default_id="a")
        compiled = compile_pattern(spec.build_pattern())

        class OffScheduleEngine:
            def __init__(self):
                self.inner = get_backend("statevector")
                self.calls = 0

            def sample_batch(self, compiled, n_shots, rng=None, **kw):
                self.calls += 1
                rng = ensure_rng(rng)
                rng.random()  # scalar draw: violates the whole-block schedule
                return self.inner.sample_batch(compiled, n_shots, rng, **kw)

        engine = OffScheduleEngine()
        tasks = [
            BlockTask("a", 0, 0, 8, seed=3),
            BlockTask("b", 0, 0, 8, seed=4),
        ]
        outs = run_coalesced(compiled, engine, tasks)
        assert engine.calls == 3  # 1 refused fused call + 2 standalone
        for task, outcomes in zip(tasks, outs):
            ref_rng = ensure_rng(task.seed)
            ref_rng.random()
            direct = engine.inner.sample_batch(compiled, task.shots, ref_rng)
            assert np.array_equal(outcomes, direct.outcomes)


class TestJobSpec:
    def test_run_requires_problem_and_angles(self):
        with pytest.raises(PatternError, match="problem"):
            JobSpec.from_dict({"kind": "run", "shots": 8}, default_id="x")
        with pytest.raises(PatternError, match="gammas"):
            JobSpec.from_dict(
                {"kind": "run", "problem": "ring:4", "shots": 8,
                 "gammas": [0.1], "betas": []},
                default_id="x",
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(PatternError, match="kind"):
            JobSpec.from_dict({"kind": "dance", "shots": 8}, default_id="x")

    def test_missing_seed_gets_fresh_entropy(self):
        a = JobSpec.from_dict(job(), default_id="a")
        b = JobSpec.from_dict(job(), default_id="b")
        assert a.seed != b.seed  # vanishingly unlikely to collide

    def test_noise_forms(self):
        assert parse_noise(None, job_id="x") is None
        assert parse_noise(0.0, job_id="x") is None
        model = parse_noise(0.05, job_id="x")
        assert model.p_prep == model.p_ent == model.p_meas == 0.05
        model = parse_noise({"p_prep": 0.1}, job_id="x")
        assert model.p_prep == 0.1 and model.p_ent == 0.0
        with pytest.raises(PatternError):
            parse_noise("lots", job_id="x")


class TestServerReceipts:
    def test_served_equals_standalone_checkpoint(self, tmp_path):
        with JobServer(executor="inline") as srv:
            spec = job(id="a", seed=7)
            srv.submit(spec)
            result = srv.result("a", timeout=60)
        assert result.records_sha256 == standalone_digest(spec, tmp_path, "a")

    def test_sample_job_with_explicit_pattern(self, tmp_path):
        from repro.mbqc.serialize import pattern_to_dict
        from tests.test_serve_cache import j_chain

        pattern = j_chain([0.3, 0.7])
        with JobServer(executor="inline") as srv:
            srv.submit({
                "kind": "sample", "id": "s", "seed": 3, "shots": 32,
                "block_shots": 16, "pattern": pattern_to_dict(pattern),
                "backend": "statevector",
            })
            result = srv.result("s", timeout=60)
        from repro.mbqc.compile import compile_pattern

        compiled = compile_pattern(pattern)
        engine = get_backend("statevector")
        seeds = spawn_seeds(np.random.SeedSequence(3), 2)
        pieces = [
            engine.sample_batch(compiled, 16, ensure_rng(s)).outcomes
            for s in seeds
        ]
        assert result.records_sha256 == records_sha256(np.concatenate(pieces))

    def test_coalesced_jobs_bit_identical(self, tmp_path):
        """Same-digest jobs submitted while paused fuse into shared
        batches — and still produce their standalone receipts."""
        events = []
        with JobServer(executor="inline") as srv:
            sub = srv.subscribe()
            srv.pause()
            specs = [job(id="a", seed=7), job(id="b", seed=11)]
            for spec in specs:
                srv.submit(spec)
            srv.resume()
            results = {jid: srv.result(jid, timeout=60) for jid in ("a", "b")}
            while not sub.empty():
                events.append(sub.get())
        blocks = [e for e in events if e.get("event") == "block"]
        assert blocks and all(e["coalesced"] for e in blocks)
        for spec in specs:
            jid = spec["id"]
            assert results[jid].records_sha256 == standalone_digest(
                spec, tmp_path, jid
            )

    def test_no_coalesce_same_receipts(self, tmp_path):
        with JobServer(executor="inline", coalesce=False) as srv:
            sub = srv.subscribe()
            srv.pause()
            srv.submit(job(id="a", seed=7))
            srv.submit(job(id="b", seed=11))
            srv.resume()
            ra = srv.result("a", timeout=60)
            rb = srv.result("b", timeout=60)
            events = []
            while not sub.empty():
                events.append(sub.get())
        blocks = [e for e in events if e.get("event") == "block"]
        assert blocks and not any(e["coalesced"] for e in blocks)
        assert ra.records_sha256 == standalone_digest(job(id="a", seed=7), tmp_path, "a")
        assert rb.records_sha256 == standalone_digest(job(id="b", seed=11), tmp_path, "b")

    def test_receipt_matches_block_plan(self, tmp_path):
        with JobServer(executor="inline") as srv:
            srv.submit(job(id="a", seed=7, shots=130, block_shots=60))
            result = srv.result("a", timeout=60)
        assert result.shots == 130
        assert len(plan_blocks(130, 60)) == 3

    def test_cache_status_reported(self, tmp_path):
        with JobServer(executor="inline") as srv:
            srv.submit(job(id="a", seed=7))
            srv.submit(job(id="b", seed=11))
            ra = srv.result("a", timeout=60)
            rb = srv.result("b", timeout=60)
        assert ra.cache_status == "miss"
        assert rb.cache_status == "hit"
        assert ra.digest == rb.digest

    def test_evicted_entry_still_runs_queued_job(self, tmp_path, monkeypatch):
        """A queued block carries its own compiled program: evicting the
        cache entry before the scheduler drains cannot strand the job."""
        monkeypatch.setattr("repro.serve.cache.MAX_ENTRIES", 1)
        with JobServer(executor="inline") as srv:
            srv.pause()
            srv.submit(job(id="a", seed=7))
            srv.submit(job(id="c", seed=3, problem="ring:5"))  # evicts a's entry
            assert len(srv.cache._entries) == 1
            srv.resume()
            ra = srv.result("a", timeout=60)
            rc = srv.result("c", timeout=60)
        assert ra.records_sha256 == standalone_digest(
            job(id="a", seed=7), tmp_path, "a"
        )
        assert rc.records_sha256 == standalone_digest(
            job(id="c", seed=3, problem="ring:5"), tmp_path, "c"
        )

    def test_duplicate_id_race_accepts_exactly_one(self, tmp_path):
        """Two submits of one id: the second arrives while the first is
        inside its cache call, and must be refused — not overwrite the
        first job's state."""
        entered, release = threading.Event(), threading.Event()
        with JobServer(executor="inline") as srv:
            lookup = srv.cache.get_or_compile_status

            def held_lookup(spec):
                if not entered.is_set():
                    entered.set()
                    assert release.wait(timeout=60)
                return lookup(spec)

            srv.cache.get_or_compile_status = held_lookup
            outcomes = []

            def first():
                try:
                    outcomes.append(srv.submit(job(id="dup", seed=7)))
                except PatternError as exc:
                    outcomes.append(exc)

            thread = threading.Thread(target=first)
            thread.start()
            assert entered.wait(timeout=60)
            try:
                srv.submit(job(id="dup", seed=11))
            except PatternError as exc:
                outcomes.append(exc)
            else:
                outcomes.append("dup")
            release.set()
            thread.join(timeout=60)
            result = srv.result("dup", timeout=60)
        accepted = [o for o in outcomes if o == "dup"]
        refused = [o for o in outcomes if isinstance(o, PatternError)]
        assert len(accepted) == 1 and len(refused) == 1
        assert "duplicate job id" in str(refused[0])
        assert result.records_sha256 == standalone_digest(
            job(id="dup", seed=7), tmp_path, "dup"
        )

    def test_thread_pool_executor(self, tmp_path):
        with JobServer(executor="thread", workers=2) as srv:
            srv.submit(job(id="a", seed=7))
            result = srv.result("a", timeout=60)
        assert result.records_sha256 == standalone_digest(
            job(id="a", seed=7), tmp_path, "a"
        )

    def test_verify_job(self):
        with JobServer(executor="inline") as srv:
            srv.submit({"kind": "verify", "id": "v", "problem": "ring:4",
                        "gammas": [0.3], "betas": [0.5]})
            result = srv.result("v", timeout=60)
        assert result.kind == "verify"

    def test_verify_jobs_build_pattern_once(self, monkeypatch):
        """Verify runs on the cached program: three identical jobs build
        the pattern once (the cache miss), not once more per job."""
        builds = []
        original = JobSpec.build_pattern
        monkeypatch.setattr(
            JobSpec, "build_pattern",
            lambda self: builds.append(1) or original(self),
        )
        with JobServer(executor="inline") as srv:
            for name in ("v1", "v2", "v3"):
                srv.submit({"kind": "verify", "id": name, "problem": "ring:4"})
            results = [srv.result(name, timeout=60) for name in ("v1", "v2", "v3")]
        assert [r.deterministic for r in results] == [True] * 3
        assert len(builds) == 1

    def test_bad_spec_is_error_event_not_crash(self):
        with JobServer(executor="inline") as srv:
            sub = srv.subscribe()
            with pytest.raises(PatternError):
                srv.submit({"kind": "run", "id": "bad", "shots": 8})
            srv.submit(job(id="ok", seed=1))
            srv.result("ok", timeout=60)
            events = []
            while not sub.empty():
                events.append(sub.get())
        assert any(e.get("event") == "done" and e.get("job") == "ok" for e in events)


class TestFrontends:
    def test_stdin_round_trip(self, tmp_path):
        srv = JobServer(executor="inline")
        lines = [
            json.dumps(job(id="a", seed=7)),
            "# a comment line",
            "",
            "this is not json",
            json.dumps({"kind": "run", "id": "bad"}),  # no problem: rejected
            json.dumps(job(id="b", seed=11)),
        ]
        out = io.StringIO()
        failures = serve_stdin(srv, lines, out)
        srv.close()
        assert failures == 2  # bad JSON + bad spec
        events = [json.loads(line) for line in out.getvalue().splitlines()]
        done = {e["job"]: e for e in events if e.get("event") == "done"}
        assert set(done) == {"a", "b"}
        assert done["a"]["records_sha256"] == standalone_digest(
            job(id="a", seed=7), tmp_path, "a"
        )

    def test_socket_round_trip(self, tmp_path):
        srv = JobServer(executor="thread", workers=2)
        tcp = serve_socket(srv)
        host, port = tcp.server_address[:2]
        try:
            events = request_jobs(
                host, port,
                [job(id="a", seed=7), job(id="b", seed=11)],
                timeout=60,
            )
        finally:
            tcp.shutdown()
            srv.close()
        done = {e["job"]: e for e in events if e.get("event") == "done"}
        assert set(done) == {"a", "b"}
        assert done["b"]["records_sha256"] == standalone_digest(
            job(id="b", seed=11), tmp_path, "b"
        )
