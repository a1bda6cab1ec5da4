"""Span tracing of fluxcal's public functions, applied from outside the package.

Each public function of a traced module is replaced, in every fluxcal module
namespace that holds it (``convolve`` is bound in both ``signal`` and
``predistort``), by a wrapper that records a span: name, start, end, parent
span and item id.  Spans stay in memory until the run ends.  Size counters
are derived from each call's arguments and result after the span closes.

A span's parent is the innermost open span on the same thread.  Spans opened
on a worker thread of the simulator's delay pool have no parent there and
are kept as roots, so their few microseconds stay inside the parent's self
time.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import threading
import time
from contextlib import contextmanager

TRACED_MODULES = ("simulator", "fitting", "analysis", "predistort", "signal", "models", "serialize")


def _bound(fn):
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def counters_for(name: str, fn):
    """Size counters for one traced function, or None."""
    if name == "simulator.simulate_calibration":
        bind = _bound(fn)

        def window_samples(args, kwargs, result):
            # The work the caller asked for: ceil(4 sigma / dt) steps per
            # delay, times the offsets, independent of the integrator.
            a = bind(args, kwargs)
            schedule, dt = a["schedule"], a["dt_integration_ns"]
            steps = 0
            for delay in a["delays_ns"]:
                sigma = schedule.sigma_fraction * schedule.t_pi_ns(float(delay))
                steps += max(math.ceil(4.0 * sigma / dt), 1)
            return {"window_samples": steps * len(a["offsets"])}

        return window_samples
    if name == "fitting.fit_short_time":
        bind = _bound(fn)

        def starts(args, kwargs, result):
            if isinstance(result, tuple):
                return {"starts": result[1].n_starts}
            # two deterministic log-spaced starts plus the seeded random ones
            return {"starts": 2 + bind(args, kwargs)["n_random_starts"]}

        return starts
    if name == "fitting.read_calibration_csv":
        return lambda args, kwargs, result: {"rows": result.delays_ns.size}
    if name == "fitting.write_calibration_csv":
        return lambda args, kwargs, result: {"rows": args[1].delays_ns.size}
    if name == "analysis.read_decay_csv":
        return lambda args, kwargs, result: {"rows": result[0].size}
    if name in (
        "predistort.full_pipeline",
        "predistort.apply_channel",
        "predistort.reversed_convolution_o2",
        "predistort.spectral_predistort",
        "signal.convolve",
    ):
        return lambda args, kwargs, result: {"samples": len(args[0])}
    if name == "signal.read_waveform_csv":
        return lambda args, kwargs, result: {"rows": len(result), "bytes": os.path.getsize(args[0])}
    if name == "signal.write_waveform_csv":
        return lambda args, kwargs, result: {"rows": len(args[1]), "bytes": os.path.getsize(args[0])}
    if name == "models.step_response_grid":
        return lambda args, kwargs, result: {"samples": len(result)}
    if name == "serialize.dump_json":
        # every caller opens a fresh file, so the position is the size
        return lambda args, kwargs, result: {"bytes": args[1].tell()}
    return None


class Tracer:
    """Records spans around fluxcal's public functions while installed."""

    def __init__(self, package: str = "fluxcal"):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent record, item, counts]
        self.item = None
        self.active = False
        self._local = threading.local()
        self._wrappers: dict = {}  # id(original) -> (original, wrapper)
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.item, None]
        self.spans.append(rec)
        stack.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn):
        count = counters_for(name, fn)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Bind the wrappers in every loaded module of the package."""
        if not self._wrappers:
            for short in TRACED_MODULES:
                module = sys.modules[f"{self.package}.{short}"]
                for attr, value in vars(module).items():
                    if (
                        inspect.isfunction(value)
                        and not attr.startswith("_")
                        and value.__module__ == module.__name__
                    ):
                        self._wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))
        self.active = True

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.active = False

    def records(self) -> list[dict]:
        """Spans as plain dicts with integer ids and parent ids."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        return [
            {
                "id": i,
                "name": rec[0],
                "start": rec[1],
                "end": rec[2],
                "parent": None if rec[3] is None else ids[id(rec[3])],
                "item": rec[4],
                "counts": rec[5] or {},
            }
            for i, rec in enumerate(self.spans)
        ]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(records: list[dict]) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict = {}
    for rec in records:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append((rec["start"], rec["end"]))
    return [
        (rec["end"] - rec["start"])
        - covered(children.get(rec["id"], ()), rec["start"], rec["end"])
        for rec in records
    ]


def layer_totals(records: list[dict]) -> dict:
    """Per span name: calls, summed self time and summed counters."""
    totals: dict = {}
    for rec, own in zip(records, self_times(records)):
        entry = totals.setdefault(rec["name"], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in rec["counts"].items():
            entry[key] = entry.get(key, 0) + value
    return totals
