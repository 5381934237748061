"""Spans and counts at acokit's layer boundaries, recorded from outside.

:meth:`Tracer.install` replaces each named function with a wrapper and
patches every loaded ``acokit`` module that binds the same object (a
``from .iteration import run_async`` binding included), so calls between
modules are seen too.  A name that no longer exists is recorded in
``absent`` instead of failing.

Spans are ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1, kept in memory up to a cap and written out at the
end.  Calls, inclusive time and self time (inclusive minus the time of
child spans) are summed for every call, cap or not.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

MAX_SPANS = 100_000  # spans kept in full; calls past it are still summed

SPANNED = (
    "iteration.sample_schedule",
    "iteration.check_admissible_prefix",
    "iteration.run_async",
    "iteration.run_sync",
    "routing.sigma_step",
    "routing.solve",
    "routing.verify_strict_contraction",
    "logic.immediate_consequence",
    "logic.find_stratification",
    "logic.compute_perfect_model",
    "logic.classify_tp_contraction",
    "aco.search_box_sequence",
    "aco.search_ultrametric",
    "aco.certify_aco",
    "aco.equivalence_census",
    "ultrametric.classify_contraction",
    "cli.main",
)
# Called per activation, so a span each would swamp the run: count only.
COUNTED = ("iteration.DecomposedOperator.apply",)

# The per-layer metrics a traced run reports (see README for what each
# should move), as (name, unit, better).
LAYER_METRICS = (
    ("iteration.sample_schedule.ms", "ms", "lower"),
    ("iteration.sample_schedule.calls", "count", "lower"),
    ("iteration.check_admissible_prefix.ms", "ms", "lower"),
    ("iteration.run_async.self_ms", "ms", "lower"),
    ("iteration.run_async.calls", "count", "lower"),
    ("iteration.ticks_drawn", "count", "lower"),
    ("iteration.ticks_used", "count", "lower"),
    ("iteration.ticks_used_per_drawn", "ratio", "higher"),
    ("iteration.apply.calls", "count", "lower"),
    ("routing.sigma_step.calls", "count", "lower"),
    ("routing.sigma_step.ms", "ms", "lower"),
    ("logic.immediate_consequence.calls", "count", "lower"),
    ("logic.immediate_consequence.ms", "ms", "lower"),
    ("aco.search_ultrametric.ms", "ms", "lower"),
    ("aco.search_box_sequence.ms", "ms", "lower"),
    ("routing.verify_strict_contraction.ms", "ms", "lower"),
    ("logic.classify_tp_contraction.ms", "ms", "lower"),
    ("ultrametric.classify_contraction.ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("logic.find_stratification.ms", "ms", "lower"),
    ("cli.invocation_ms.p50", "ms", "lower"),
    ("trace.untraced_throughput_per_s", "1/s", "higher"),
    ("trace.traced_throughput_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.absent_names", "count", "lower"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.ticks_drawn = 0
        self.ticks_used = 0
        self.absent: list[str] = []
        # Times are summed multiplied by this (see calibrate.py); spans
        # keep raw clock readings.
        self.scale = 1.0
        self._stack: list = []
        self._undo: list = []

    # -- patching -----------------------------------------------------------

    def install(self):
        for name in SPANNED:
            self._patch(name, self._spanned)
        for name in COUNTED:
            self._patch(name, self._counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, name, make):
        module_name, *path = name.split(".")
        try:
            owner = importlib.import_module(f"acokit.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        wrapper = make(name, original)
        if isinstance(owner, type):
            self._undo.append((owner, path[-1], original))
            setattr(owner, path[-1], wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "acokit" and not mod_name.startswith("acokit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name, fn):
        tracer = self
        is_run_async = name == "iteration.run_async"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            if index < MAX_SPANS:
                tracer.spans.append([name, 0.0, 0.0, parent])
            else:
                index = -1
            frame = [index, 0.0]  # span index, time spent in child spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                tracer.calls[name] += 1
                tracer.total[name] += elapsed * tracer.scale
                tracer.self_time[name] += (elapsed - frame[1]) * tracer.scale
                if stack:
                    stack[-1][1] += elapsed
                if index >= 0:
                    tracer.spans[index][1:3] = [start, end]
            if is_run_async:
                tracer._count_ticks(args, kwargs, result)
            return result
        return wrapper

    def _count_ticks(self, args, kwargs, trajectory):
        schedule = kwargs.get("schedule", args[2] if len(args) > 2 else None)
        drawn = getattr(schedule, "horizon", None)
        states = getattr(trajectory, "states", None)
        if drawn is None or states is None:
            return
        self.ticks_drawn += drawn
        self.ticks_used += len(states) - 1

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "ticks_drawn": self.ticks_drawn,
            "ticks_used": self.ticks_used,
            "absent": sorted(self.absent),
        }

    def merge(self, summary: dict):
        """Add a summary written by another process (a traced CLI child),
        its times multiplied by ``scale``."""
        for key in ("calls", "total", "self_time"):
            into = getattr(self, key)
            factor = 1 if key == "calls" else self.scale
            for name, value in summary[key].items():
                into[name] += value * factor
        self.ticks_drawn += summary["ticks_drawn"]
        self.ticks_used += summary["ticks_used"]
        for name in summary["absent"]:
            if name not in self.absent:
                self.absent.append(name)

    def span_durations(self, name) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]
