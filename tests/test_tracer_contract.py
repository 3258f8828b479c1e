"""The engine keeps the names and results the benchmark's outside tracer relies on.

``bench/tracer.py`` wraps engine functions by name in the modules that call
them, and ``bench/workloads.py`` runs points through those module attributes.
A refactor that renames a bound function, or stops calling it through the
bound name, breaks or blinds the benchmark; these tests catch that here,
reading both files without changing them.
"""
import importlib.util
import sys
from importlib import import_module
from pathlib import Path

import pytest

import casimir_cyl

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def test_every_binding_resolves_to_a_callable():
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracer.BINDINGS
               if not callable(getattr(import_module(f"casimir_cyl.{mod}"), attr, None))]
    assert missing == []


@pytest.mark.parametrize("op", ["force", "t0_force"])
def test_traced_point_is_bit_identical_and_counted(op):
    models = workloads.build_models(casimir_cyl, ("drude",))
    point = workloads.Point(op, "drude", 500.0)
    plain = workloads.run_point(casimir_cyl, models, point)
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = workloads.run_point(casimir_cyl, models, point)
    finally:
        trace.remove()
    assert (traced[0].hex(), traced[1], traced[2].hex()) == (
        plain[0].hex(), plain[1], plain[2].hex())
    # l_used is 0 at T = 0, where no Matsubara sum runs
    assert trace.counts["casimir_core.matsubara_terms"] == plain[1]
    assert trace.counts["specfun.calls"] > 0
    assert trace.counts["reflection.elements"] > 0


@pytest.mark.parametrize("model, l0_calls", [("drude", 0), ("plasma", 1)])
def test_l0_term_is_integrated_once_per_key(model, l0_calls):
    # a point at another separation warms the cache; Drude's l = 0 term does
    # not depend on the separation and plasma's does, so only plasma integrates
    # it again (the l >= 1 rows run through adaptive_quad_rows, not counted)
    models = workloads.build_models(casimir_cyl, (model,))
    casimir_cyl.casimir_core._zero_freq_term.cache_clear()
    workloads.run_point(casimir_cyl, models, workloads.Point("force", model, 400.0))
    trace = tracer.Tracer()
    trace.install()
    try:
        _, l_used, _ = workloads.run_point(casimir_cyl, models,
                                           workloads.Point("force", model, 700.0))
    finally:
        trace.remove()
    assert trace.counts["quadrature.calls"] == l0_calls
    assert trace.counts["casimir_core.matsubara_terms"] == l_used
