"""Outside tracer: spans and work counts recorded at the layer boundaries.

The tracer never edits ``src/``.  It replaces each public function *as bound
in the module that calls it* (``casimir_core.polylog_exp_neg``,
``tilt.adaptive_quad``, ``dielectric.kk_transform``, ...) with a wrapper that
opens a span, counts the work it was handed and closes the span.  The
integrand handed to ``adaptive_quad`` is wrapped as well, so the abscissae
are counted and the integrand's own arithmetic is charged to the module that
built it rather than to the quadrature.

Spans live in memory as parallel lists (layer, start, end, parent) and are
written once, when the traced pass ends.  A layer's self time is the sum over
its spans of the span's duration minus the part of that interval covered by
its direct children (the union of the child intervals, so overlapping
children from a worker thread are not subtracted twice).
"""
from __future__ import annotations

import functools
import gzip
import json
import math
import threading
import time
from importlib import import_module

# Arguments Li_s(e^-mu) with mu below this count as "near one".  Fixed here,
# not read from the program, so the share describes the inputs and stays
# comparable when the program moves its own series/expansion crossover.
NEAR_ONE_MU = 0.5

LAYERS = ("specfun", "quadrature", "reflection", "dielectric",
          "casimir_core", "tilt", "edge", "cli")

# (module that calls, attribute as bound there, layer, counter kind)
BINDINGS = (
    ("casimir_core", "polylog_exp_neg", "specfun", "mu"),
    ("casimir_core", "polylog", "specfun", "x"),
    ("tilt", "polylog_exp_neg", "specfun", "mu"),
    ("casimir_core", "adaptive_quad", "quadrature", "quad"),
    ("tilt", "adaptive_quad", "quadrature", "quad"),
    ("casimir_core", "log_r2_pair", "reflection", "v0"),
    ("casimir_core", "zero_frequency_mu_terms", "reflection", "v1"),
    ("tilt", "log_r2_pair", "reflection", "v0"),
    ("tilt", "zero_frequency_mu_terms", "reflection", "v1"),
    ("casimir_core", "eps_imag_axis", "dielectric", "eps"),
    ("casimir_core", "zero_frequency_character", "dielectric", None),
    ("tilt", "zero_frequency_character", "dielectric", None),
    ("dielectric", "kk_transform", "dielectric", "kk"),
    ("cli", "eps_imag_axis", "dielectric", "eps"),
    ("cli", "zero_frequency_character", "dielectric", None),
    ("cli", "load_optical_table", "dielectric", None),
    # entry points the benchmark itself calls through the module attribute
    ("casimir_core", "cylinder_force", "casimir_core", "call"),
    ("casimir_core", "cylinder_force_gradient", "casimir_core", "call"),
    ("casimir_core", "zero_temperature_force", "casimir_core", "call"),
    ("casimir_core", "zero_temperature_gradient", "casimir_core", "call"),
    ("casimir_core", "thermal_correction", "casimir_core", "call"),
    ("casimir_core", "matsubara_reduce", "casimir_core", "reduce"),
    ("casimir_core", "zero_temperature_reduce", "casimir_core", "call"),
    ("tilt", "cylinder_force", "casimir_core", "call"),
    ("tilt", "cylinder_force_gradient", "casimir_core", "call"),
    ("tilt", "matsubara_reduce", "casimir_core", "reduce"),
    ("tilt", "zero_temperature_reduce", "casimir_core", "call"),
    ("cli", "cylinder_force", "casimir_core", "call"),
    ("cli", "cylinder_force_gradient", "casimir_core", "call"),
    ("cli", "high_temperature_force", "casimir_core", "call"),
    ("cli", "high_temperature_gradient", "casimir_core", "call"),
    ("cli", "thermal_correction", "casimir_core", "call"),
    ("edge", "ideal_metal_force_t0", "casimir_core", "call"),
    ("edge", "ideal_metal_gradient_t0", "casimir_core", "call"),
    ("tilt", "tilted_force", "tilt", "call"),
    ("tilt", "tilted_gradient", "tilt", "call"),
    ("tilt", "kappa_nm", "tilt", "call"),
    ("cli", "tilted_force", "tilt", "call"),
    ("cli", "tilted_gradient", "tilt", "call"),
    ("cli", "kappa_nm", "tilt", "call"),
    ("cli", "kappa", "tilt", "call"),
    ("cli", "edge_corrected_force", "edge", "call"),
    ("cli", "total_pfa_error", "edge", "call"),
    ("cli", "overhang_force", "edge", "call"),
    ("cli", "main", "cli", "call"),
)

COUNTERS = ("specfun.calls", "specfun.elements", "specfun.near_one",
            "quadrature.calls", "quadrature.integrand_calls",
            "quadrature.integrand_elements", "quadrature.errors",
            "casimir_core.calls", "casimir_core.matsubara_terms",
            "tilt.calls", "reflection.elements", "dielectric.eps_elements",
            "dielectric.kk_elements", "cli.calls", "edge.calls")


_X_NEAR_ONE = math.exp(-NEAR_ONE_MU)


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


class Tracer:
    """Spans and counters for one traced pass of one process."""

    def __init__(self) -> None:
        self.layer: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> int:
        stack = self._stack()
        with self._lock:
            # a worker thread's top-level span belongs to the span the main
            # thread has open: the caller that submitted the work
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            idx = len(self.layer)
            self.layer.append(layer)
            self.parent.append(parent)
            self.start.append(time.perf_counter())
            self.end.append(math.nan)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    # -- patching -----------------------------------------------------------

    def install(self, package: str = "casimir_cyl") -> None:
        """Wrap every binding in BINDINGS; ``remove`` restores the originals."""
        for mod_name, attr, layer, kind in BINDINGS:
            module = import_module(f"{package}.{mod_name}")
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, kind, mod_name))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, layer: str, kind: str | None, caller: str):
        count = self.count
        calls_key = f"{layer}.calls" if f"{layer}.calls" in self.counts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls_key:
                count(calls_key)
            if kind == "mu":
                count("specfun.elements", _size(args[1]))
                count("specfun.near_one", _count(args[1], lambda a: a < NEAR_ONE_MU))
            elif kind == "x":
                count("specfun.elements", _size(args[1]))
                count("specfun.near_one", _count(args[1], lambda a: a > _X_NEAR_ONE))
            elif kind == "v0":
                count("reflection.elements", _size(args[0]))
            elif kind == "v1":
                count("reflection.elements", _size(args[1]))
            elif kind == "eps":
                count("dielectric.eps_elements", _size(args[1]))
            elif kind == "kk":
                count("dielectric.kk_elements", _size(args[2]))
            elif kind == "quad":
                args = (self._wrap_integrand(args[0], caller),) + args[1:]
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # counted once, where it is raised, not again by outer quadratures
                if (kind == "quad" and type(exc).__name__ == "ConvergenceError"
                        and not getattr(exc, "bench_counted", False)):
                    count("quadrature.errors")
                    exc.bench_counted = True
                raise
            finally:
                self.close(idx)
            if kind == "reduce":
                count("casimir_core.matsubara_terms", int(result[1]))
            return result

        return wrapper

    def _wrap_integrand(self, f, layer: str):
        count = self.count

        def integrand(x):
            count("quadrature.integrand_calls")
            count("quadrature.integrand_elements", _size(x))
            idx = self.open(layer)
            try:
                return f(x)
            finally:
                self.close(idx)

        return integrand

    # -- output -------------------------------------------------------------

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write spans and counters once, gzip-compressed JSON."""
        payload = {"layer": self.layer, "start": self.start, "end": self.end,
                   "parent": self.parent, "counts": self.counts,
                   "extra": extra or {}}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _count(a, test) -> int:
    return int(test(a).sum()) if hasattr(a, "size") else int(test(a))


def load(path: str) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def self_times(layer, start, end, parent) -> dict[str, float]:
    """Per-layer self time: span durations minus the union of child spans."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = dict.fromkeys(LAYERS, 0.0)
    for i, name in enumerate(layer):
        s, e = start[i], end[i]
        covered = 0.0
        kids = sorted((max(start[k], s), min(end[k], e)) for k in children.get(i, ()))
        cur_lo = cur_hi = None
        for lo, hi in kids:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] += (e - s) - covered
    return out
