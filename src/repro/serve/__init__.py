"""The serving layer (``repro.serve``).

Compile-once / serve-many execution for the pattern engines: an
in-process compiled-program cache keyed by the job's program spec
(:mod:`~repro.serve.cache`),
an async job server with a worker pool and per-block streaming
(:mod:`~repro.serve.server`), and backpressure-aware batching that
fuses queued jobs on the same compiled-pattern digest into one
``sample_batch`` call while keeping every job's records bit-identical
to its standalone seeded run (:mod:`~repro.serve.batching`).  Job and
receipt formats live in :mod:`~repro.serve.jobs`; the CLI entry point
is ``repro serve``.
"""

from repro.serve.batching import (
    BlockTask,
    MuxedGenerator,
    MuxScheduleError,
    pack_tasks,
    run_coalesced,
)
from repro.serve.cache import CacheStats, PatternCache
from repro.serve.jobs import JobResult, JobSpec, records_sha256
from repro.serve.server import (
    DEFAULT_MAX_BATCH_SHOTS,
    JobServer,
    request_jobs,
    serve_socket,
    serve_stdin,
)

__all__ = [
    "BlockTask",
    "MuxedGenerator",
    "MuxScheduleError",
    "pack_tasks",
    "run_coalesced",
    "CacheStats",
    "PatternCache",
    "JobResult",
    "JobSpec",
    "records_sha256",
    "DEFAULT_MAX_BATCH_SHOTS",
    "JobServer",
    "request_jobs",
    "serve_socket",
    "serve_stdin",
]
