"""In-memory span recorder for the traced benchmark run.

A span is ``(id, name, start, end, parent, rid, n)``: ``parent`` is the
enclosing span on the same thread, ``rid`` the request it belongs to
(inherited from the parent when not given), ``n`` a work count (shots
for an engine call, fused blocks for a serve batch).  Spans stay in
memory until :meth:`Recorder.write`.

The recorder observes the program from outside: :meth:`Recorder.install`
swaps the module-level bindings the program calls through (table
``PATCHES``), ``sample_batch`` on every registered engine instance and
``SampleRun.sample_bitstrings`` for wrappers that open a span around
the original call; :meth:`Recorder.uninstall` puts the originals back.
The untraced run installs nothing.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute, span name).  Each binding the program resolves at
#: call time: the solver's and the cache's own imports, and the modules
#: that lazy imports (``CompiledQAOA.executable``,
#: ``JobSpec.build_pattern``) read.  ``select_backend`` in
#: ``repro.mbqc.backend`` also catches the solver's ``resolve_backend``.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.compiler", "compile_qaoa_pattern", "build"),
    ("repro.core.solver", "compile_qaoa_pattern", "build"),
    ("repro.mbqc.compile", "compile_pattern", "compile"),
    ("repro.serve.cache", "compile_pattern", "compile"),
    ("repro.mbqc.compile", "lower_noise", "lower"),
    ("repro.core.solver", "lower_noise", "lower"),
    ("repro.serve.cache", "lower_noise", "lower"),
    ("repro.mbqc.backend", "select_backend", "dispatch"),
    ("repro.serve.server", "select_backend", "dispatch"),
    ("repro.exec.checkpoint", "records_digest", "digest"),
    ("repro.serve.server", "run_coalesced", "serve.exec"),
)

Span = Tuple[int, str, float, float, Optional[int], Optional[str], int]


def _shots_of(args, kwargs) -> int:
    return int(kwargs.get("n_shots", args[1] if len(args) > 1 else 0))


def _blocks_of(args, kwargs) -> int:
    return len(kwargs.get("tasks", args[2] if len(args) > 2 else ()))


def _jobs_of(args, kwargs) -> Optional[str]:
    tasks = kwargs.get("tasks", args[2] if len(args) > 2 else ())
    return "+".join(t.job_id for t in tasks) or None


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None, n: int = 0):
        stack = self._stack()
        parent, parent_rid = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        rid = rid if rid is not None else parent_rid
        stack.append((sid, rid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, rid, n))

    def wrap(self, fn, name: str, count=None, rid_of=None):
        """``fn`` with a span around every call."""

        def traced(*args, **kwargs):
            n = count(args, kwargs) if count is not None else 0
            rid = rid_of(args, kwargs) if rid_of is not None else None
            with self.span(name, rid=rid, n=n):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------
    def _swap(self, owner, attr: str, replacement, *, instance: bool) -> None:
        original = owner.__dict__[attr] if not instance else None
        setattr(owner, attr, replacement)
        if instance:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, original))

    def install(self, server=None) -> None:
        """Wrap the program's layer boundaries (and ``server``'s cache)."""
        if self._undo:
            raise RuntimeError("recorder already installed")
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            count = _blocks_of if name == "serve.exec" else None
            rid_of = _jobs_of if name == "serve.exec" else None
            wrapped = self.wrap(getattr(module, attr), name, count, rid_of)
            self._swap(module, attr, wrapped, instance=False)
        from repro.mbqc import backend as backend_mod

        for engine_name in backend_mod.available_backends():
            engine = backend_mod.get_backend(engine_name)
            wrapped = self.wrap(
                engine.sample_batch, f"engine.{engine_name}", count=_shots_of
            )
            self._swap(engine, "sample_batch", wrapped, instance=True)
        run_cls = backend_mod.SampleRun
        self._swap(
            run_cls,
            "sample_bitstrings",
            self.wrap(run_cls.sample_bitstrings, "resample"),
            instance=False,
        )
        if server is not None:
            cache = server.cache
            wrapped = self.wrap(cache.get_or_compile_status, "cache")
            self._swap(cache, "get_or_compile_status", wrapped, instance=True)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextmanager
    def installed(self, server=None):
        try:
            self.install(server)
            yield self
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> its duration minus the time its child spans cover
        (children run on the parent's thread, so they never overlap)."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return {
            sid: (end - start) - child_time.get(sid, 0.0)
            for sid, _, start, end, _, _, _ in self.spans
        }

    def layers(self) -> Dict[str, dict]:
        """Per span name: calls, total and self seconds, summed work."""
        selfs = self.self_times()
        out: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0}
        )
        for sid, name, start, end, _, _, n in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += selfs[sid]
            row["n"] += n
        return dict(out)

    def write(self, path) -> None:
        """Dump every span as one JSON line."""
        keys = ("id", "name", "start", "end", "parent", "rid", "n")
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
