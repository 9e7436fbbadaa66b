"""In-memory span tracer installed around ``repro`` callables from outside ``src/``.

Every wrapped callable records one span (name, start, end, parent span,
trial or job id) per call.  Spans stay in memory and are written once,
when the run ends.  A span's *self time* is its duration minus the
durations of its child spans; the per-layer metrics are self times
summed by span name, so they partition the traced wall time and the
remainder is reported as ``unattributed_s``.

Names are wrapped where they are bound: ``from x import f`` copies ``f``
into the importing module, so e.g. ``parse`` is replaced in
``repro.core.backend``, not in ``repro.hdl``.  Pool workers are forked
from the traced process and inherit the wrappers; a fork hook turns
tracing off in the child, and worker-side time is taken from the
``CandidateResult`` fields the parent receives instead.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Any, Callable


class Span:
    """One timed call of a wrapped callable."""

    __slots__ = ("name", "parent", "trial", "thread", "start", "end")

    def __init__(self, name: str, parent: "Span | None", trial: str) -> None:
        self.name = name
        self.parent = parent
        self.trial = trial
        self.thread = threading.get_ident()
        self.start = 0.0
        self.end = 0.0


class Tracer:
    """Span recorder with one span stack per thread.

    A thread whose stack is empty parents its spans on ``adopt`` — the
    client-side span of the request being served — so the daemon's loop
    and job threads nest under the request that caused their work.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.active = False
        #: Trial or job id stamped on new spans (set by the workload).
        self.trial = ""
        self.adopt: Span | None = None
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        observe: "Callable[[tuple, Any], None] | None" = None,
        adopt: bool = False,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call while tracing is on.

        ``observe(args, result)`` runs after the span closes, to count
        work the call reports (events, hits).  ``adopt`` makes the span
        the parent of other threads' top-level spans while it is open.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else tracer.adopt, tracer.trial)
            tracer.spans.append(span)
            stack.append(span)
            if adopt:
                tracer.adopt = span
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if adopt:
                    tracer.adopt = None
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Replace ``owner.attr`` with its traced version."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(raw.__func__, name, **options)))
        elif isinstance(owner, (type, types.ModuleType)):
            setattr(owner, attr, self.wrap(raw, name, **options))
        else:
            # Frozen dataclass instances (the synth templates).
            object.__setattr__(owner, attr, self.wrap(raw, name, **options))

    def self_times(self, trial_prefix: str = "") -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts by span name, over matching trials."""
        spans = [s for s in self.spans if s.trial.startswith(trial_prefix)]
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.end - span.start
        seconds: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for span in spans:
            seconds[span.name] += span.end - span.start - child_time[id(span)]
            calls[span.name] += 1
        return dict(seconds), dict(calls)

    def durations(self, name: str) -> list[tuple[str, float]]:
        """``(trial, duration)`` of every span called ``name``."""
        return [(s.trial, s.end - s.start) for s in self.spans if s.name == name]

    def write(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = min((s.start for s in self.spans), default=0.0)
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": span.name,
                    "start": round(span.start - origin, 7),
                    "end": round(span.end - origin, 7),
                    "parent": index.get(id(span.parent)),
                    "trial": span.trial,
                    "thread": span.thread,
                }
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every ``repro`` layer the workloads use."""
    from repro import api
    from repro.cache.store import PersistentEvalCache
    from repro.core import backend, harness
    from repro.core.backend import EvalCache, ProcessPoolBackend, SerialBackend
    from repro.core.harness import EngineHarness
    from repro.core.patch import Patch
    from repro.instrument.trace import SimulationTrace
    from repro.service.client import ServiceClient
    from repro.service.journal import JobJournal
    from repro.sim.simulator import Simulator
    from repro.synth import engine as synth_engine
    from repro.synth.templates import TEMPLATES

    # ``repro.core.repair`` the module is shadowed by ``repro.core.repair``
    # the function, so attribute access cannot reach it.
    repair_module = sys.modules["repro.core.repair"]
    count = tracer.counters

    def on_sim_run(args: tuple, result: Any) -> None:
        count["sim.events"] += result.events_executed

    def on_cache_get(args: tuple, result: Any) -> None:
        count["backend_cache_lookups"] += 1
        count["backend_cache_hits"] += result is not None

    def on_cache_put(args: tuple, result: Any) -> None:
        # The pool's cache receives every result a worker computed; the
        # serial backend's results were already seen by the sim wrappers.
        cache, _text, computed = args
        if cache.keep_traces or computed.failure is not None:
            return
        count["worker_busy_s"] += computed.eval_seconds
        count["worker_parse_s"] += computed.parse_seconds
        count["worker_sim_s"] += computed.sim_seconds
        count["worker_results"] += 1
        if computed.compiled:
            count["worker_sim_runs"] += 1
            count["sim.events"] += computed.sim_events

    def on_store_get(args: tuple, result: Any) -> None:
        count["store_lookups"] += 1
        count["store_hits"] += result is not None

    wrap = tracer.patch
    wrap(EngineHarness, "run", "core.engine")
    wrap(EngineHarness, "evaluate", "core.harness.evaluate")
    wrap(EngineHarness, "fault_localization", "core.faultloc")
    wrap(Patch, "apply", "core.patch.apply")
    wrap(harness, "generate", "hdl.codegen")
    wrap(harness, "lint_tree", "lint.gate")
    wrap(harness, "minimize_patch", "core.minimize")
    wrap(harness, "make_backend", "core.backend.lifecycle")
    wrap(repair_module, "make_backend", "core.backend.lifecycle")
    wrap(synth_engine, "make_backend", "core.backend.lifecycle")
    wrap(ProcessPoolBackend, "close", "core.backend.lifecycle")
    for name in ("mutate", "crossover", "apply_fix_pattern"):
        wrap(repair_module, name, "core.operators")
    for name in ("tournament_select", "elite"):
        wrap(repair_module, name, "core.selection")
    for module in (harness, backend):
        wrap(module, "evaluate_design_text", "core.evaluate")
    wrap(SerialBackend, "evaluate_batch", "core.backend.batch")
    wrap(ProcessPoolBackend, "evaluate_batch", "core.backend.batch")
    wrap(EvalCache, "get", "core.backend.cache", observe=on_cache_get)
    wrap(EvalCache, "put", "core.backend.cache", observe=on_cache_put)
    wrap(PersistentEvalCache, "get", "cache.store.get", observe=on_store_get)
    wrap(PersistentEvalCache, "put", "cache.store.put")
    wrap(backend, "parse", "hdl.parse")
    wrap(Simulator, "__init__", "sim.elaborate")
    wrap(Simulator, "run", "sim.run", observe=on_sim_run)
    wrap(SimulationTrace, "from_records", "instrument.trace")
    wrap(backend, "evaluate_fitness", "core.fitness")
    for name in ("mine_literals", "fault_scope_ids"):
        wrap(synth_engine, name, "synth.search")
    for template in TEMPLATES:
        wrap(template, "instantiate", "synth.search")
    wrap(ServiceClient, "submit", "service.submit", adopt=True)
    wrap(api, "run_request", "service.run_request")
    wrap(api, "materialize_request", "service.materialize")
    for name in ("record_admitted", "record_started", "record_completed", "save_checkpoint"):
        wrap(JobJournal, name, "service.journal")
