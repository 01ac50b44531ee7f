"""Caller-side span tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: :func:`install` swaps
the public entry points that ``repro.solver``, ``repro.runtime`` and
``repro.service`` call for thin timing wrappers, and :func:`uninstall`
puts the originals back. Nothing under ``src/`` is edited. Inside worker
processes the only source is the program's own ``RuntimeMetrics``; the
wrappers record nothing in a process other than the one that installed
them (forked workers inherit the patched modules but never call them).

A span is ``(name, start, end, parent, request id, thread, phase)``.
Spans live in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections import defaultdict

#: Layer groups reported as self time, in pipeline order. A span's layer
#: is the part of its name before the first dot; ``op`` spans are the
#: benchmark's own per-request roots.
LAYERS = (
    "ordering", "symbolic", "blocks", "fanout", "mapping", "sim",
    "numeric", "runtime", "service",
)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class NullTracer:
    """Tracing off: every hook is a no-op."""

    phase = "loop"

    def span(self, name, rid=None):
        return _NULL


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, rid: str | None = None):
        if os.getpid() != self.pid:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent["id"] if parent else None,
            "rid": rid if rid is not None else (
                parent["rid"] if parent else None
            ),
            "thread": threading.get_ident(),
            "phase": self.phase,
        }
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            stack.pop()
            rec["end"] = time.perf_counter()

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, static: bool = False):
        """Replace ``owner.attr`` with a timing wrapper (a function,
        class, method, or, with ``static``, a staticmethod)."""
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        self._patch(owner, attr, staticmethod(traced) if static else traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"pid": self.pid, "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points where the solver, runtime
    and service modules look them up."""
    import repro.blocks
    import repro.fanout
    import repro.runtime
    import repro.runtime.engine
    import repro.service.service
    import repro.solver
    import repro.symbolic
    from repro.runtime.pool import WorkerPool
    from repro.solver import SparseCholesky

    wrap = tracer.wrap
    # ordering: both the solver and the service's cold path resolve the
    # fill-reducing order through this one call.
    wrap(SparseCholesky, "_resolve_ordering", "ordering.order", static=True)
    for mod in (repro.solver, repro.symbolic):
        wrap(mod, "symbolic_factor", "symbolic.factor")
    for mod in (repro.solver, repro.blocks):
        wrap(mod, "make_partition", "blocks.partition")
        wrap(mod, "BlockStructure", "blocks.partition")
        wrap(mod, "WorkModel", "blocks.partition")
    for mod in (repro.solver, repro.fanout):
        wrap(mod, "TaskGraph", "fanout.taskgraph")
    wrap(repro.runtime, "plan_owners", "mapping.plan")
    wrap(repro.runtime.engine, "plan_owners", "mapping.plan")
    for attr in ("cyclic_map", "heuristic_map", "assign_domains",
                 "block_owners", "overall_balance_from_owners"):
        wrap(repro.solver, attr, "mapping.plan")
    wrap(repro.solver, "run_fanout", "sim.run")
    wrap(repro.solver, "solve_with_factor", "numeric.solve")
    base = repro.solver.BlockCholesky

    class TracedBlockCholesky(base):
        def factor(self):
            with tracer.span("numeric.factor"):
                return base.factor(self)

    tracer._patch(repro.solver, "BlockCholesky", TracedBlockCholesky)
    wrap(repro.runtime, "run_mp_fanout", "runtime.call")
    wrap(WorkerPool, "run_batch", "runtime.pool_batch")
    wrap(repro.service.service, "_assemble", "service.assemble")


def overhead_per_span_s(n: int = 20000) -> float:
    """Measured cost of one span around a no-op call."""
    t = Tracer()
    t.phase = "calibration"

    def noop():
        return None

    start = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n):
        with t.span("calibration"):
            noop()
    return max(0.0, (time.perf_counter() - start - bare) / n)


def self_times(spans: list[dict], phase: str = "loop") -> dict:
    """Per-layer self time (span duration minus the part its child spans
    in the same thread cover), plus the ``op`` roots' own remainder."""
    chosen = [s for s in spans if s["phase"] == phase and s["end"]]
    child_time: dict[int, float] = defaultdict(float)
    for s in chosen:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    for s in chosen:
        layer = s["name"].split(".", 1)[0]
        dur = s["end"] - s["start"]
        out[layer] += dur - child_time.get(s["id"], 0.0)
        total[s["name"]] += dur
    return {"self": dict(out), "total": dict(total), "count": len(chosen)}
