"""The async job server: queueing, worker pool, coalescing, frontends.

:class:`JobServer` accepts run/verify/sample jobs (see
:mod:`repro.serve.jobs`), compiles each job's program through the
in-process :class:`~repro.serve.cache.PatternCache` (keyed by the job's
program spec), splits
sampling jobs into seeded shot blocks with the checkpoint machinery
(:func:`~repro.exec.checkpoint.plan_blocks` +
``SeedSequence(seed).spawn``), and dispatches blocks to a worker pool.
A scheduler thread drains the queue, fuses queued blocks that share a
compiled-pattern digest into one ``sample_batch`` call
(:func:`~repro.serve.batching.run_coalesced` — per-job records stay
bit-identical to standalone runs), and enforces backpressure: while all
workers are busy the queue keeps accumulating, so the next drain fuses
*more* blocks per call — batch size adapts to load with no tuning.

Events stream per block as they finish, ending with a ``done`` event
carrying the job's ``records_sha256`` receipt (byte-compatible with
:func:`repro.exec.checkpoint.records_digest`).  Two frontends wrap the
server: :func:`serve_stdin` (one JSON job per stdin line, JSON events on
stdout — what ``repro serve`` uses by default) and :func:`serve_socket`
(the same line protocol over a local TCP socket, one client per
connection thread).
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from queue import Empty, Queue
from typing import Dict, IO, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec.checkpoint import plan_blocks
from repro.mbqc.backend import get_backend, select_backend
from repro.mbqc.compile import CompiledPattern
from repro.mbqc.pattern import PatternError
from repro.serve.batching import BlockTask, pack_tasks, run_coalesced
from repro.serve.cache import PatternCache
from repro.serve.jobs import (
    JobResult,
    JobSpec,
    JobState,
    records_sha256,
)
from repro.utils.rng import spawn_seeds

#: Default ceiling on one fused batch (shots); oversized single blocks
#: still run alone.
DEFAULT_MAX_BATCH_SHOTS = 4096


# -- worker-side entry points (top-level, so a process pool can ship them) --


def _execute_batch(
    compiled: CompiledPattern,
    backend_name: str,
    sizes: Sequence[int],
    seeds: Sequence[np.random.SeedSequence],
) -> List[np.ndarray]:
    engine = get_backend(backend_name)
    tasks = [
        BlockTask(job_id="", block_index=i, lo=0, hi=n, seed=seed)
        for i, (n, seed) in enumerate(zip(sizes, seeds))
    ]
    return run_coalesced(compiled, engine, tasks)


def _execute_verify(
    compiled: CompiledPattern,
    backend_name: str,
    max_branches: Optional[int],
    seed: int,
) -> bool:
    from repro.core.verify import check_pattern_determinism

    return check_pattern_determinism(
        None,
        max_branches=max_branches,
        seed=seed,
        backend=get_backend(backend_name),
        compiled=compiled,
    )


@dataclass(frozen=True)
class _PendingBlock:
    """One queued block, its fusion key (digest, engine) and the compiled
    program it runs — held here, so a cache eviction before dispatch
    cannot strand it."""

    task: BlockTask
    digest: str
    backend: str
    compiled: CompiledPattern


class JobServer:
    """Queue, cache, coalesce, execute, stream.

    ``executor`` selects the worker pool: ``"process"`` (the default —
    real parallelism, compiled patterns are serialised per dispatch),
    ``"thread"`` (cheaper dispatch, numpy releases the GIL for the heavy
    kernels), or ``"inline"`` (run batches on the scheduler thread —
    deterministic scheduling for tests).  ``coalesce=False`` disables
    fusion (every block runs standalone) without changing any receipt —
    bit-identity between the two modes is the serving layer's core
    contract.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        max_batch_shots: int = DEFAULT_MAX_BATCH_SHOTS,
        coalesce: bool = True,
        executor: str = "process",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_batch_shots < 1:
            raise ValueError(
                f"max_batch_shots must be positive, got {max_batch_shots}"
            )
        self.cache = PatternCache()
        self.coalesce = coalesce
        self.max_batch_shots = int(max_batch_shots)
        self._workers = int(workers)
        self._executor_kind = executor
        self._pool: Optional[Executor] = None
        self._max_inflight = self._workers * 2
        self._inflight = 0
        self._queue: deque = deque()
        self._jobs: Dict[str, JobState] = {}
        self._results: Dict[str, JobResult] = {}
        # Ids between the duplicate check and their JobState insert.
        self._submitting: set = set()
        self._subscribers: List[Queue] = []
        # Reentrant: _finish_batch holds the lock while emitting events.
        self._cond = threading.Condition(threading.RLock())
        self._closed = False
        self._paused = False
        self._job_counter = 0
        self._scheduler = threading.Thread(
            target=self._schedule_loop, name="repro-serve-scheduler", daemon=True
        )
        self._scheduler.start()

    # -- executor ------------------------------------------------------------
    def _ensure_pool(self) -> Optional[Executor]:
        if self._executor_kind == "inline":
            return None
        if self._pool is None:
            if self._executor_kind == "process":
                self._pool = ProcessPoolExecutor(max_workers=self._workers)
            elif self._executor_kind == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self._workers)
            else:
                raise ValueError(
                    f"unknown executor kind {self._executor_kind!r}; "
                    f"expected process, thread, or inline"
                )
        return self._pool

    # -- event plumbing ------------------------------------------------------
    def subscribe(self) -> Queue:
        """A queue receiving every event the server emits from now on."""
        q: Queue = Queue()
        with self._cond:
            self._subscribers.append(q)
        return q

    def unsubscribe(self, q: Queue) -> None:
        with self._cond:
            if q in self._subscribers:
                self._subscribers.remove(q)

    def _emit(self, event: dict) -> None:
        with self._cond:
            subscribers = list(self._subscribers)
        for q in subscribers:
            q.put(event)

    # -- submission ----------------------------------------------------------
    def submit(self, data: dict) -> str:
        """Validate and enqueue one JSON job object; returns the job id.
        Raises :class:`~repro.mbqc.pattern.PatternError` on a malformed
        spec (frontends catch and emit an ``error`` event instead)."""
        with self._cond:
            self._job_counter += 1
            default_id = f"job-{self._job_counter}"
        return self.submit_spec(JobSpec.from_dict(data, default_id=default_id))

    def submit_spec(self, spec: JobSpec) -> str:
        with self._cond:
            if self._closed:
                raise PatternError("the job server is closed")
            if spec.job_id in self._jobs or spec.job_id in self._submitting:
                raise PatternError(f"duplicate job id {spec.job_id!r}")
            self._submitting.add(spec.job_id)
        try:
            return self._accept(spec)
        finally:
            with self._cond:
                self._submitting.discard(spec.job_id)

    def _accept(self, spec: JobSpec) -> str:
        compiled, digest, cache_status = self.cache.get_or_compile_status(spec)

        backend_name = (
            select_backend(compiled).name
            if spec.backend == "auto"
            else get_backend(spec.backend).name
        )

        if spec.kind == "verify":
            state = JobState(
                spec=spec,
                digest=digest,
                backend=backend_name,
                cache_status=cache_status,
                n_blocks=0,
            )
            with self._cond:
                self._jobs[spec.job_id] = state
            self._emit(
                {
                    "event": "accepted",
                    "job": spec.job_id,
                    "kind": spec.kind,
                    "digest": digest,
                    "cache": cache_status,
                    "blocks": 0,
                }
            )
            self._dispatch_verify(state, compiled)
            return spec.job_id

        plans = plan_blocks(spec.shots, spec.block_shots)
        seeds = spawn_seeds(np.random.SeedSequence(spec.seed), len(plans))
        state = JobState(
            spec=spec,
            digest=digest,
            backend=backend_name,
            cache_status=cache_status,
            n_blocks=len(plans),
        )
        with self._cond:
            self._jobs[spec.job_id] = state
            for plan in plans:
                self._queue.append(
                    _PendingBlock(
                        task=BlockTask(
                            job_id=spec.job_id,
                            block_index=plan.index,
                            lo=plan.lo,
                            hi=plan.hi,
                            seed=seeds[plan.index],
                        ),
                        digest=digest,
                        backend=backend_name,
                        compiled=compiled,
                    )
                )
            self._cond.notify_all()
        self._emit(
            {
                "event": "accepted",
                "job": spec.job_id,
                "kind": spec.kind,
                "digest": digest,
                "cache": cache_status,
                "blocks": len(plans),
            }
        )
        return spec.job_id

    # -- scheduling ----------------------------------------------------------
    def pause(self) -> None:
        """Hold the scheduler: submitted blocks accumulate in the queue
        (so :meth:`resume` coalesces them together) — the deterministic
        way to exercise fusion in tests and benchmarks."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def _schedule_loop(self) -> None:
        while True:
            with self._cond:
                while (not self._queue or self._paused) and not self._closed:
                    self._cond.wait()
                if self._closed and not self._queue:
                    return
                pending = list(self._queue)
                self._queue.clear()

            # Equal digests mean equal programs, so each group runs the
            # compiled program of its first block.
            groups: "Dict[Tuple[str, str], List[_PendingBlock]]" = {}
            for item in pending:
                groups.setdefault((item.digest, item.backend), []).append(item)

            for items in groups.values():
                tasks = [item.task for item in items]
                if self.coalesce:
                    batches = pack_tasks(tasks, self.max_batch_shots)
                else:
                    batches = [(t,) for t in tasks]
                for batch in batches:
                    self._dispatch_batch(
                        items[0].compiled, items[0].backend, batch
                    )

    def _dispatch_batch(
        self,
        compiled: CompiledPattern,
        backend_name: str,
        batch: Tuple[BlockTask, ...],
    ) -> None:
        sizes = [t.shots for t in batch]
        seeds = [t.seed for t in batch]
        pool = self._ensure_pool()
        if pool is None:
            try:
                pieces = _execute_batch(compiled, backend_name, sizes, seeds)
            except Exception as exc:  # noqa: BLE001 - routed to job errors
                self._finish_batch(batch, None, error=str(exc))
                return
            self._finish_batch(batch, pieces)
            return
        with self._cond:
            while self._inflight >= self._max_inflight and not self._closed:
                self._cond.wait()
            if self._closed:
                return
            self._inflight += 1
        future = pool.submit(_execute_batch, compiled, backend_name, sizes, seeds)

        def _done(fut) -> None:
            with self._cond:
                self._inflight -= 1
                self._cond.notify_all()
            try:
                pieces = fut.result()
            except Exception as exc:  # noqa: BLE001 - routed to job errors
                self._finish_batch(batch, None, error=str(exc))
                return
            self._finish_batch(batch, pieces)

        future.add_done_callback(_done)

    def _dispatch_verify(self, state: JobState, compiled: CompiledPattern) -> None:
        spec = state.spec
        args = (compiled, state.backend, None, spec.seed)
        pool = self._ensure_pool()

        def _complete(ok: Optional[bool], error: Optional[str]) -> None:
            if error is not None:
                state.error = error
                self._emit({"event": "error", "job": spec.job_id, "error": error})
                with self._cond:
                    self._cond.notify_all()
                return
            result = JobResult(
                job_id=spec.job_id,
                kind=spec.kind,
                records_sha256=None,
                shots=0,
                backend=state.backend,
                digest=state.digest,
                cache_status=state.cache_status,
                deterministic=ok,
            )
            with self._cond:
                self._results[spec.job_id] = result
                self._cond.notify_all()
            self._emit(result.as_event())

        if pool is None:
            try:
                _complete(_execute_verify(*args), None)
            except Exception as exc:  # noqa: BLE001
                _complete(None, str(exc))
            return
        future = pool.submit(_execute_verify, *args)

        def _done(fut) -> None:
            try:
                _complete(fut.result(), None)
            except Exception as exc:  # noqa: BLE001
                _complete(None, str(exc))

        future.add_done_callback(_done)

    def _finish_batch(
        self,
        batch: Tuple[BlockTask, ...],
        pieces: Optional[List[np.ndarray]],
        error: Optional[str] = None,
    ) -> None:
        batch_shots = sum(t.shots for t in batch)
        with self._cond:
            for i, task in enumerate(batch):
                state = self._jobs[task.job_id]
                if error is not None:
                    if state.error is None:
                        state.error = error
                        self._emit(
                            {"event": "error", "job": task.job_id, "error": error}
                        )
                    continue
                assert pieces is not None
                piece = pieces[i]
                state.pieces[task.block_index] = piece
                state.done_blocks += 1
                self._emit(
                    {
                        "event": "block",
                        "job": task.job_id,
                        "index": task.block_index,
                        "lo": task.lo,
                        "hi": task.hi,
                        "sha256": records_sha256(piece),
                        "coalesced": len(batch) > 1,
                        "batch_shots": batch_shots,
                    }
                )
                if state.done_blocks >= state.n_blocks:
                    merged = state.merged_outcomes()
                    result = JobResult(
                        job_id=task.job_id,
                        kind=state.spec.kind,
                        records_sha256=records_sha256(merged),
                        shots=state.spec.shots,
                        backend=state.backend,
                        digest=state.digest,
                        cache_status=state.cache_status,
                        outcomes=merged,
                    )
                    self._results[task.job_id] = result
                    self._emit(result.as_event())
            self._cond.notify_all()

    # -- completion / lifecycle ----------------------------------------------
    def result(self, job_id: str, timeout: Optional[float] = None) -> JobResult:
        """Block until ``job_id`` finishes; raises on job error/timeout."""
        with self._cond:
            deadline = time.monotonic() + timeout if timeout is not None else None
            while True:
                if job_id in self._results:
                    return self._results[job_id]
                state = self._jobs.get(job_id)
                if state is None:
                    raise PatternError(f"unknown job id {job_id!r}")
                if state.error is not None:
                    raise PatternError(
                        f"job {job_id!r} failed: {state.error}"
                    )
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"job {job_id!r} did not finish in {timeout}s"
                        )
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted job has a result or an error."""
        with self._cond:
            deadline = time.monotonic() + timeout if timeout is not None else None
            while True:
                outstanding = [
                    jid
                    for jid, state in self._jobs.items()
                    if jid not in self._results and state.error is None
                ]
                if not outstanding:
                    return
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"jobs still outstanding: {outstanding}"
                        )
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()

    def close(self) -> None:
        """Stop the scheduler (after the queue drains) and the pool."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._scheduler.join(timeout=30)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "JobServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- frontends ----------------------------------------------------------------


def serve_stdin(
    server: JobServer, lines: Iterable[str], out: IO[str]
) -> int:
    """The ``repro serve`` stdin frontend: one JSON job per input line,
    JSON events streamed to ``out``, returns the number of failed jobs."""
    sub = server.subscribe()
    job_ids: List[str] = []
    failures = 0
    try:
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                failures += 1
                out.write(
                    json.dumps({"event": "error", "error": f"bad JSON: {exc}"})
                    + "\n"
                )
                continue
            try:
                job_ids.append(server.submit(data))
            except (PatternError, ValueError) as exc:
                failures += 1
                out.write(
                    json.dumps(
                        {
                            "event": "error",
                            "job": str(data.get("id", "?")),
                            "error": str(exc),
                        }
                    )
                    + "\n"
                )
        done: set = set()
        while len(done) < len(job_ids):
            event = sub.get()
            if event.get("job") not in job_ids:
                continue
            out.write(json.dumps(event) + "\n")
            out.flush()
            if event.get("event") in ("done", "error"):
                done.add(event["job"])
                if event.get("event") == "error":
                    failures += 1
    finally:
        server.unsubscribe(sub)
    return failures


class _ServeHandler(socketserver.StreamRequestHandler):
    """One client connection: JSON job lines in, event lines out.

    The client half-closing its write side (or sending an empty line)
    marks the end of submissions; the handler streams this connection's
    events until all its jobs finish."""

    def handle(self) -> None:  # noqa: D102 - socketserver hook
        server: JobServer = self.server.job_server  # type: ignore[attr-defined]
        sub = server.subscribe()
        job_ids: List[str] = []
        try:
            for raw in self.rfile:
                line = raw.decode().strip()
                if not line:
                    break
                try:
                    job_ids.append(server.submit(json.loads(line)))
                except (PatternError, ValueError, json.JSONDecodeError) as exc:
                    self._send({"event": "error", "error": str(exc)})
            done: set = set()
            while len(done) < len(job_ids):
                try:
                    event = sub.get(timeout=600)
                except Empty:
                    self._send({"event": "error", "error": "server idle timeout"})
                    return
                if event.get("job") not in job_ids:
                    continue
                self._send(event)
                if event.get("event") in ("done", "error"):
                    done.add(event["job"])
        except (BrokenPipeError, ConnectionResetError):
            pass
        finally:
            server.unsubscribe(sub)

    def _send(self, event: dict) -> None:
        self.wfile.write(json.dumps(event).encode() + b"\n")
        self.wfile.flush()


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def serve_socket(
    server: JobServer, host: str = "127.0.0.1", port: int = 0
) -> "_ThreadingTCPServer":
    """Start the TCP frontend (a thread per connection) and return the
    listening ``socketserver`` (its ``server_address`` carries the bound
    port; call ``.shutdown()`` to stop)."""
    tcp = _ThreadingTCPServer((host, port), _ServeHandler)
    tcp.job_server = server  # type: ignore[attr-defined]
    thread = threading.Thread(
        target=tcp.serve_forever, name="repro-serve-tcp", daemon=True
    )
    thread.start()
    return tcp


def request_jobs(
    host: str, port: int, jobs: Sequence[dict], timeout: float = 300.0
) -> List[dict]:
    """A minimal client for the socket frontend: submit ``jobs``, collect
    events until every job is done, return the events in arrival order."""
    events: List[dict] = []
    with socket.create_connection((host, port), timeout=timeout) as conn:
        payload = b"".join(json.dumps(j).encode() + b"\n" for j in jobs) + b"\n"
        conn.sendall(payload)
        buf = b""
        done = 0
        while done < len(jobs):
            chunk = conn.recv(65536)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if not line.strip():
                    continue
                event = json.loads(line.decode())
                events.append(event)
                if event.get("event") in ("done", "error"):
                    done += 1
    return events
