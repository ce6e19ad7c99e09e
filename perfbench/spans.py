"""Outside-in span recorder for the traced benchmark run.

:class:`SpanRecorder` replaces public entry points of the program with
wrappers that record one span per call (name, start, end, parent span,
request id) and counts ``Machine.can_execute`` calls without timing
them.  Spans stay in memory and are written out as JSON lines when the
run ends.  Nothing is installed until :meth:`SpanRecorder.install`, and
:meth:`SpanRecorder.uninstall` restores every original, so untraced
runs execute the program untouched.

The program's own ``Tracer`` is never enabled: its matrix-delta work
would distort the layer times.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from benchlib import Span

#: Request id of the operation being traced (shared by its spans).
REQUEST_ID: contextvars.ContextVar[str] = contextvars.ContextVar("rid", default="")

#: Span name of the benchmark's own probe work (matrix occupancy); kept
#: apart so it counts neither as a layer nor as residual.
PROBE = "perfbench.probe"

#: Module-level functions wrapped at each module that imported them:
#: (module, attribute, span name).
FUNCTION_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.kernels", "build_region_index", "core.kernels.region_index"),
    ("repro.harness.experiment", "simulate", "sim.simulate"),
    ("repro.sim", "simulate", "sim.simulate"),
    ("repro.sim.simulator", "simulate", "sim.simulate"),
    ("repro.verify", "verify_ddg", "verify.verify"),
    ("repro.verify", "verify_schedule", "verify.verify"),
    ("repro.serve.server", "parse_request", "serve.parse"),
    ("repro.serve.wire", "parse_request", "serve.parse"),
    ("repro.serve.wire", "schedule_key", "engine.fingerprint"),
    ("repro.engine.pool", "schedule_key", "engine.fingerprint"),
    ("repro.engine.fingerprint", "schedule_key", "engine.fingerprint"),
) + tuple(
    (module, "feasible_clusters", "schedulers.feasible_clusters")
    for module in (
        "repro.schedulers.list_scheduler",
        "repro.core.convergent",
        "repro.core.kernels",
        "repro.core.passes.basic",
        "repro.sim.simulator",
        "repro.schedulers.anneal",
        "repro.schedulers.rawcc",
        "repro.schedulers.pcc",
        "repro.schedulers.single",
        "repro.schedulers.cars",
    )
)

#: Methods wrapped on their class: (module, class, method, span name).
METHOD_SITES: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.guard", "PassGuard", "run", "core.guard"),
    ("repro.core.weights", "PreferenceMatrix", "normalize", "core.weights.normalize"),
    ("repro.core.weights", "PreferenceMatrix", "checkpoint", "core.weights.checkpoint"),
    ("repro.core.convergent", "ConvergentScheduler", "schedule", "core.schedule"),
    ("repro.schedulers.list_scheduler", "ListScheduler", "schedule",
     "schedulers.list_schedule"),
    ("repro.engine.cache", "ScheduleCache", "get", "engine.cache_get"),
    ("repro.engine.cache", "ScheduleCache", "put", "engine.cache_put"),
)


def _rid_of_parse(data: Any, *_: Any, **__: Any) -> str:
    """Request id of a ``parse_request`` call: regions, machine, seed."""
    try:
        names = ",".join(r["name"] for r in data["program"]["regions"])
        return f"{names}@{data['machine']}#{data.get('seed')}"
    except (KeyError, TypeError):
        return ""


def _rid_of_key(region: Any, machine: Any, scheduler: Any, *_: Any, **__: Any) -> str:
    """Request id of a ``schedule_key`` call, in the format of
    :func:`_rid_of_parse` for single-region programs."""
    return f"{region.name}@{machine.name}#{getattr(scheduler, 'seed', None)}"


class SpanRecorder:
    """Records spans from wrappers around the program's entry points.

    Args:
        dump_dir: Where :meth:`dump` and forked children write spans.
    """

    def __init__(self, dump_dir: Optional[Path] = None) -> None:
        self.dump_dir = dump_dir
        self.spans: List[Span] = []
        self.can_execute_calls = 0
        self.matrix_cells = 0
        self.matrix_nonzero = 0
        self.matrix_max_bytes = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------

    def _stack(self) -> List[int]:
        """This thread's open span ids."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, rid_of: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records one span called ``name``.

        Args:
            name: Span name.
            fn: The original callable.
            rid_of: Derives a request id from the call's arguments; used
                only when no request id is set yet.
        """
        ids, perf = self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = None
            if rid_of is not None and not REQUEST_ID.get():
                token = REQUEST_ID.set(rid_of(*args, **kwargs))
            stack = self._stack()
            parent = stack[-1] if stack else -1
            span_id = next(ids)
            stack.append(span_id)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                self.spans.append(
                    Span(span_id, name, start, end, parent, REQUEST_ID.get(), self._pid)
                )
                if token is not None:
                    REQUEST_ID.reset(token)

        return wrapper

    @contextlib.contextmanager
    def op(self, rid: str) -> Iterator[None]:
        """One benchmark operation, recorded as a root span ``op`` whose
        request id every nested span shares."""
        token = REQUEST_ID.set(rid)
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, "op", start, end, parent, rid, self._pid))
            REQUEST_ID.reset(token)

    # -- installation --------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        """Replace ``owner.attr``, remembering the original."""
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Install every wrapper (idempotent per install/uninstall pair)."""
        if self._saved:
            return
        originals: Dict[int, Callable] = {}
        for module_name, attr, name in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            if attr not in module.__dict__:
                continue
            fn = module.__dict__[attr]
            rid_of = {"serve.parse": _rid_of_parse,
                      "engine.fingerprint": _rid_of_key}.get(name)
            wrapped = originals.setdefault(id(fn), self.span(name, fn, rid_of))
            self._patch(module, attr, wrapped)
        for module_name, cls_name, attr, name in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, self.span(name, cls.__dict__[attr]))
        self._install_passes()
        self._install_extract()
        self._install_can_execute()

    def _install_passes(self) -> None:
        """Wrap ``apply`` of every registered pass class."""
        from repro.core.passes import PASS_REGISTRY

        for pass_name, cls in PASS_REGISTRY.items():
            self._patch(cls, "apply",
                        self.span(f"core.passes.{pass_name}", cls.__dict__["apply"]))

    def _install_extract(self) -> None:
        """Wrap the static ``extract_assignment``; probe the converged
        matrix's size and occupancy first, in a span of its own."""
        import numpy as np
        from repro.core.convergent import ConvergentScheduler

        original = ConvergentScheduler.__dict__["extract_assignment"].__func__
        timed = self.span("core.extract", original)

        def probe(matrix: Any) -> None:
            data = matrix.data
            self.matrix_cells += data.size
            self.matrix_nonzero += int(np.count_nonzero(data))
            self.matrix_max_bytes = max(self.matrix_max_bytes, data.nbytes)

        probed = self.span(PROBE, probe)

        def extract(matrix: Any, region: Any, machine: Any) -> Any:
            probed(matrix)
            return timed(matrix, region, machine)

        self._patch(ConvergentScheduler, "extract_assignment", staticmethod(extract))

    def _install_can_execute(self) -> None:
        """Count ``Machine.can_execute`` calls (no span: too hot)."""
        from repro.machine.machine import Machine

        original = Machine.__dict__["can_execute"]

        def can_execute(machine: Any, cluster: int, func_class: Any) -> bool:
            self.can_execute_calls += 1
            return original(machine, cluster, func_class)

        self._patch(Machine, "can_execute", can_execute)

    def uninstall(self) -> None:
        """Restore every original, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- forked workers and output --------------------------------------

    def follow_forks(self) -> None:
        """Make forked pool workers record into a fresh buffer and write
        it to :attr:`dump_dir` when they exit."""
        multiprocessing.util.register_after_fork(self, SpanRecorder._after_fork)

    def _after_fork(self) -> None:
        """In a forked child: start empty, dump at process exit."""
        self.spans = []
        self.can_execute_calls = self.matrix_cells = self.matrix_nonzero = 0
        self.matrix_max_bytes = 0
        self._local = threading.local()
        self._pid = os.getpid()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def counters(self) -> Dict[str, int]:
        """The non-span measurements."""
        return {
            "can_execute_calls": self.can_execute_calls,
            "matrix_cells": self.matrix_cells,
            "matrix_nonzero": self.matrix_nonzero,
            "matrix_max_bytes": self.matrix_max_bytes,
        }

    def dump(self, path: Optional[Path] = None) -> Path:
        """Write spans and counters as JSON lines (counters first)."""
        if path is None:
            if self.dump_dir is None:
                raise ValueError("no path and no dump_dir to write spans to")
            path = self.dump_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "w") as out:
            out.write(json.dumps({"counters": self.counters()}) + "\n")
            for s in self.spans:
                out.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.rid, s.pid]))
                out.write("\n")
        return path


def load(path: Path) -> Tuple[List[Span], Dict[str, int]]:
    """Read one file written by :meth:`SpanRecorder.dump`."""
    spans: List[Span] = []
    counters: Dict[str, int] = {}
    with open(path) as source:
        for line in source:
            row = json.loads(line)
            if isinstance(row, dict):
                counters = row["counters"]
            else:
                spans.append(Span(*row))
    return spans, counters
