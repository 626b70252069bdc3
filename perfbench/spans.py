"""Spans and counters around kodsim's public functions, installed from outside.

A :class:`Tracer` replaces every public function defined in the instrumented
modules with a wrapper, wherever a kodsim module binds it (a name imported
with ``from .records import stream`` is rebound in the importing module too).
The wrapper always counts calls; with ``spans=True`` it also records one
span per call, kept in memory in ``Tracer.spans`` for the caller to write
out after the run.

A span is ``(id, parent, root, name, thread, t0_ns, t1_ns, cpu_s)``.  ``root``
is the id of the outermost span of the call tree (one ``cli.main`` call), so
spans of one CLI invocation share it.  A span opened on a worker thread with
no open span of its own takes the innermost open span of the main thread as
its parent: kodsim starts threads only inside ``run_*_ensemble``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
import types

LAYERS = ("records", "photodetector", "heterodyne", "verify", "cli")


def _bound(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _ensemble_work(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    return {
        "traj": int(a["n_traj"]),
        "traj_steps": int(a["n_traj"]) * int(a["p"].n_steps),
        "threads": int(a["n_threads"]),
    }


def _photo_work(fn, args, kwargs, result) -> dict:
    work = _ensemble_work(fn, args, kwargs, result)
    work["jumps"] = int(result.sum())
    return work


def _diffusion_work(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    side = 2 * round(a["extent"] / a["h"]) + 1
    return {"cells": side * side * int(a["steps"])}


def _checks_work(fn, args, kwargs, result) -> dict:
    return {"checks": len(result.checks)}


# Extra counters taken from a call's arguments or result: name -> hook.
WORK_HOOKS = {
    "photodetector.run_photo_ensemble": _photo_work,
    "heterodyne.run_het_ensemble": _ensemble_work,
    "heterodyne.evolve_kod_diffusion": _diffusion_work,
    "cli.run": _checks_work,
}
# Spans that also read the process CPU clock (all threads), for parallel
# efficiency.
CPU_SPANS = {"heterodyne.run_het_ensemble"}


class Tracer:
    """Counts calls of kodsim's public functions and, optionally, spans them."""

    def __init__(self, spans: bool):
        self.record_spans = spans
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[tuple[int, int]] = []
        self._main_ident = threading.main_thread().ident

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s layer modules."""
        modules = {
            name: mod
            for name, mod in vars(package).items()
            if isinstance(mod, types.ModuleType)
            and mod.__name__.startswith(package.__name__ + ".")
        }
        wrapped: dict[object, object] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def _account(self, name, hook, fn, args, kwargs, result) -> None:
        # A hook that no longer fits kodsim's signatures or results must not
        # fail the call it counts: it is counted as ``<name>:hook_error``,
        # and the exact counter it feeds then reads 0.
        try:
            extra = hook(fn, args, kwargs, result) if hook is not None else {}
        except Exception:  # noqa: BLE001
            extra = {"hook_error": 1}
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1
            for key, value in extra.items():
                self.counts[f"{name}:{key}"] = self.counts.get(f"{name}:{key}", 0) + value

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        hook = WORK_HOOKS.get(name)
        cpu = name in CPU_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.record_spans:
                result = fn(*args, **kwargs)
                tracer._account(name, hook, fn, args, kwargs, result)
                return result
            stack = tracer._stack()
            if stack:
                parent, root = stack[-1]
            elif tracer._main_stack and stack is not tracer._main_stack:
                parent, root = tracer._main_stack[-1]
            else:
                parent = root = 0
            span_id = next(tracer._ids)
            stack.append((span_id, root or span_id))
            cpu0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                cpu_s = time.process_time() - cpu0 if cpu else 0.0
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, root or span_id, name, threading.get_ident(),
                     t0, t1, cpu_s)
                )
            tracer._account(name, hook, fn, args, kwargs, result)
            return result

        return wrapper


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        elif b > end:
            end = b
    if end is not None:
        total += end - start
    return total


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> self time in ns: its interval minus the union of its
    children's intervals (clipped to the parent's interval)."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[1] in by_id:
            p = by_id[s[1]]
            children.setdefault(s[1], []).append((max(s[5], p[5]), min(s[6], p[6])))
    return {
        s[0]: (s[6] - s[5]) - _union_ns([c for c in children.get(s[0], []) if c[1] > c[0]])
        for s in spans
    }


def aggregate(spans: list[tuple]) -> dict[int, dict[str, dict[str, float]]]:
    """Root id -> span name -> {calls, total_s, self_s, cpu_s}."""
    selfs = self_times(spans)
    out: dict[int, dict[str, dict[str, float]]] = {}
    for s in spans:
        row = out.setdefault(s[2], {}).setdefault(
            s[3], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += (s[6] - s[5]) * 1e-9
        row["self_s"] += selfs[s[0]] * 1e-9
        row["cpu_s"] += s[7]
    return out


def nested_total_s(spans: list[tuple], names: set[str], root: int) -> float:
    """Time in spans named in ``names`` of one call tree, not counting a span
    nested inside another span of the set twice."""
    by_id = {s[0]: s for s in spans}
    total = 0
    for s in spans:
        if s[2] != root or s[3] not in names:
            continue
        parent = by_id.get(s[1])
        while parent is not None and parent[3] not in names:
            parent = by_id.get(parent[1])
        if parent is None:
            total += s[6] - s[5]
    return total * 1e-9
