"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import casimir_cyl as cc  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


# -- generator --------------------------------------------------------------

@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_round_is_a_function_of_seed_and_round(workload):
    first = wl.make_round(workload, 7, 3)
    assert first == wl.make_round(workload, 7, 3)
    assert first != wl.make_round(workload, 8, 3)
    assert first != wl.make_round(workload, 7, 4)


def test_round_make_up_does_not_depend_on_the_seed():
    band = {a: i for i, b in enumerate(wl.FINITE_T_BANDS) for a in b}

    def cells(seed):
        points = wl.make_round("matsubara_sweep", seed, 2)
        return Counter((p.op, p.a_theta, p.model, band[p.a_nm]) for p in points)

    first = cells(1)
    assert len(first) == len(wl.MATSUBARA_VARIANTS) * len(wl.FINITE_T_BANDS)
    assert cells(2) == first
    models = Counter(m for (_, _, m, _) in first)
    assert max(models.values()) - min(models.values()) <= 1


def test_every_drawable_point_has_a_reference():
    ref = json.loads((BENCH / "reference.json").read_text())["points"]
    for workload in ("matsubara_sweep", "zero_t_continuum", "optical_data"):
        for seed in range(5):
            for r in range(-1, 3):
                assert all(p.key in ref for p in wl.make_round(workload, seed, r))
    assert set(ref) == {p.key for p in wl.reference_grid()}


def test_every_cli_command_has_a_golden_output():
    for cmd in wl.cli_commands().values():
        assert (BENCH / "golden" / f"{cmd.name}.out").is_file()
        if cmd.plot:
            assert (BENCH / "golden" / f"{cmd.name}.svg").is_file()


def test_synthetic_table_is_fixed():
    rows = wl.optical_rows()
    assert len(rows) == wl.OPTICAL_ROWS
    assert rows == wl.optical_rows()
    table = cc.OpticalTable(*zip(*rows))
    assert table.omega_min == pytest.approx(0.1)
    assert table.omega_max == pytest.approx(100.0)


# -- correctness check ------------------------------------------------------

def _checked(point, value):
    out = run.Outcome(point.key)
    out.value = value
    ref = json.loads((BENCH / "reference.json").read_text())["points"]
    run.check_point(cc, ref, point, out)
    return out


def test_check_accepts_the_reference_and_rejects_a_perturbed_value():
    point = wl.Point("force", "drude", 149.1)
    ref = json.loads((BENCH / "reference.json").read_text())["points"][point.key]["value"]
    assert _checked(point, ref).ok
    assert not _checked(point, ref * (1.0 + 3.0 * run.GATE)).ok
    assert not _checked(point, math.nan).ok


def test_check_holds_ideal_metal_to_the_closed_form():
    point = wl.Point("t0_force", "ideal", 316.2)
    geom = cc.Geometry(a=316.2e-9, R=100e-6, L=100e-6)
    exact = cc.ideal_metal_force_t0(geom)
    assert _checked(point, exact).ok
    assert not _checked(point, exact * (1.0 + 5.0 * run.CLOSED_FORM_TOL)).ok


def test_delta_t_is_gated_on_absolute_deviation():
    point = wl.Point("delta_t_force", "plasma", 100.0)
    ref = json.loads((BENCH / "reference.json").read_text())["points"][point.key]["value"]
    assert _checked(point, ref + 0.5 * run.GATE).ok
    assert not _checked(point, ref + 2.0 * run.GATE).ok


# -- tracer -----------------------------------------------------------------

def test_self_time_subtracts_the_union_of_child_spans():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap (worker threads),
    # child [6, 7]; grandchild [1.5, 2.5] inside the first child
    layer = ["cli", "casimir_core", "casimir_core", "edge", "specfun"]
    start = [0.0, 1.0, 2.0, 6.0, 1.5]
    end = [10.0, 3.0, 5.0, 7.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    self_s = tr.self_times(layer, start, end, parent)
    assert self_s["cli"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_s["casimir_core"] == pytest.approx((2.0 - 1.0) + 3.0)
    assert self_s["edge"] == pytest.approx(1.0)
    assert self_s["specfun"] == pytest.approx(1.0)


def _trace_t0_drude_500():
    models = wl.build_models(cc, ["drude"])
    tracer = tr.Tracer()
    tracer.install()
    try:
        wl.run_point(cc, models, wl.Point("t0_force", "drude", 500.0))
    finally:
        tracer.remove()
    return tracer


def test_t0_drude_point_counts_and_repeats_exactly():
    first = _trace_t0_drude_500()
    counts = first.counts
    assert 250 <= counts["quadrature.calls"] <= 350
    assert 0.9e5 <= counts["specfun.elements"] <= 1.3e5
    assert counts["quadrature.integrand_elements"] > 0
    assert counts == _trace_t0_drude_500().counts
    assert all(math.isfinite(e) for e in first.end)


def test_remove_restores_every_binding():
    before = {(m, a): getattr(sys.modules[f"casimir_cyl.{m}"], a)
              for m, a, _, _ in tr.BINDINGS if f"casimir_cyl.{m}" in sys.modules}
    tracer = tr.Tracer()
    tracer.install()
    tracer.remove()
    for (m, a), fn in before.items():
        assert getattr(sys.modules[f"casimir_cyl.{m}"], a) is fn


# -- entry point ------------------------------------------------------------

def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "matsubara_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
