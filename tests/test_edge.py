"""Edge corrections, error budget, and the overhang profile integrals."""
import math
import re
import warnings

import numpy as np
import pytest

from casimir_cyl import (EDGE_FORCE_COEFF, EDGE_GRADIENT_COEFF,
                         PFA_FORCE_COEFF, PFA_GRADIENT_COEFF,
                         WORLD_LINE_EDGE_COEFF, EdgeParams,
                         EdgeValidityWarning, Geometry, edge_corrected_force,
                         edge_corrected_gradient, finite_plate_force,
                         ideal_metal_force_t0, ideal_metal_gradient_t0,
                         overhang_force, total_pfa_error)
from casimir_cyl.constants import HBAR_C_J_M
from casimir_cyl.edge import overhang_f1, overhang_f2
from casimir_cyl.quadrature import adaptive_quad
from conftest import geometry_at


def test_coefficients():
    assert WORLD_LINE_EDGE_COEFF == 5.23e-3
    assert EDGE_FORCE_COEFF == pytest.approx(0.610, abs=1e-3)
    assert EDGE_GRADIENT_COEFF == pytest.approx(0.436, abs=1e-3)
    assert EDGE_GRADIENT_COEFF == pytest.approx(5.0 / 7.0 * EDGE_FORCE_COEFF,
                                                rel=1e-15)
    assert PFA_FORCE_COEFF == pytest.approx(0.2886, abs=1e-4)
    assert PFA_GRADIENT_COEFF == pytest.approx(0.2062, abs=1e-4)


def test_finite_plate_no_edge_reduces_to_canonical():
    S, z = 1e-8, 1e-6
    got = finite_plate_force(S, 0.0, z, em=True)
    want = -math.pi**2 * HBAR_C_J_M * S / (240.0 * z**4)
    assert got == pytest.approx(want, rel=1e-15)


def test_finite_plate_edge_to_area_ratio():
    # algebraic rearrangement: edge/area = 480 gamma_a l z / (pi^2 S)
    S, l_edge, z = 2e-8, 4e-4, 0.7e-6
    area_only = finite_plate_force(S, 0.0, z, em=False)
    with_edge = finite_plate_force(S, l_edge, z, em=False)
    ratio = with_edge / area_only - 1.0
    want = 480.0 * WORLD_LINE_EDGE_COEFF * l_edge * z / (math.pi**2 * S)
    assert ratio == pytest.approx(want, rel=1e-12)


def test_finite_plate_em_doubles_scalar():
    S, l_edge, z = 1e-8, 1e-4, 1e-6
    assert finite_plate_force(S, l_edge, z, em=True) == \
        pytest.approx(2.0 * finite_plate_force(S, l_edge, z, em=False),
                      rel=1e-15)


def test_finite_plate_validation():
    with pytest.raises(ValueError):
        finite_plate_force(1e-8, 0.0, 0.0)
    with pytest.raises(ValueError):
        finite_plate_force(-1e-8, 0.0, 1e-6)


def test_edge_correction_magnitude_relation():
    geom = geometry_at(100.0)
    corrected = edge_corrected_force(geom)
    base = ideal_metal_force_t0(geom)
    # corrected force is MORE negative: factor (1 + 0.610 a/L) exactly
    assert corrected / base == pytest.approx(
        1.0 + EDGE_FORCE_COEFF * geom.a / geom.L, rel=1e-15)
    assert abs(corrected) > abs(base)
    assert corrected / base - 1.0 == pytest.approx(6.1e-4, rel=2e-2)


def test_edge_correction_infinite_length_limit():
    geom = Geometry(a=100e-9, R=100e-6, L=10.0)
    assert edge_corrected_force(geom) == pytest.approx(
        ideal_metal_force_t0(geom), rel=1e-7)
    assert edge_corrected_gradient(geom) == pytest.approx(
        ideal_metal_gradient_t0(geom), rel=1e-7)


def test_gradient_edge_factor():
    geom = geometry_at(500.0)
    ratio = edge_corrected_gradient(geom) / ideal_metal_gradient_t0(geom)
    assert ratio == pytest.approx(1.0 + EDGE_GRADIENT_COEFF * geom.a / geom.L,
                                  rel=1e-15)


def test_total_error_reference_points():
    # R = L = 100 um at 100 and 500 nm
    vals = {
        (100.0, "force"): 0.07,
        (500.0, "force"): 0.37,
        (100.0, "gradient"): 0.05,
        (500.0, "gradient"): 0.26,
    }
    for (a_nm, which), printed in vals.items():
        err = 100.0 * total_pfa_error(geometry_at(a_nm), which)
        assert abs(err - printed) <= 0.01, (a_nm, which, err)


def test_total_error_bounded_by_sum_and_continuous():
    for a_nm in np.linspace(50.0, 2000.0, 24):
        geom = geometry_at(a_nm)
        err = total_pfa_error(geom, "force")
        plain_sum = (PFA_FORCE_COEFF * geom.a / geom.R
                     + EDGE_FORCE_COEFF * geom.a / geom.L)
        assert err <= plain_sum + 1e-18
    grid = [100.0 * total_pfa_error(geometry_at(a), "force")
            for a in np.linspace(100.0, 1000.0, 40)]
    assert all(b > a for a, b in zip(grid, grid[1:]))  # monotone here
    with pytest.raises(ValueError):
        total_pfa_error(geometry_at(100.0), "pressure")


# -------------------------------------------------- overhang profile terms


def test_f_endpoints():
    assert overhang_f1(0.0) == pytest.approx(240.0, rel=1e-15)
    assert overhang_f2(0.0) == pytest.approx(8.0, rel=1e-15)
    assert overhang_f1(1.0) == pytest.approx(0.0, abs=1e-12)
    assert overhang_f2(1.0) == pytest.approx(0.0, abs=1e-12)


def test_f_nonnegative_strictly_decreasing():
    z = np.linspace(0.0, 1.0, 100)
    for f in (overhang_f1, overhang_f2):
        vals = f(z)
        assert np.all(vals >= -1e-12)
        assert np.all(np.diff(vals) < 0.0)


@pytest.mark.parametrize("z0", [0.2, 0.5, 0.8])
def test_f_closed_forms_against_quadrature(z0):
    # independent oracle: f1 = 105 z^7 I4, f2 = 5 z^5 I3 with
    # I_k = int_z^1 dx (1 - sqrt(1-x^2))^-k
    def integrand(k):
        return lambda x: (1.0 - np.sqrt(1.0 - x * x)) ** (-k)

    i4, _ = adaptive_quad(integrand(4), z0, 1.0, rel_tol=1e-11)
    i3, _ = adaptive_quad(integrand(3), z0, 1.0, rel_tol=1e-11)
    assert overhang_f1(z0) == pytest.approx(105.0 * z0**7 * i4, rel=1e-9)
    assert overhang_f2(z0) == pytest.approx(5.0 * z0**5 * i3, rel=1e-9)


def test_overhang_reduces_at_full_support():
    geom = geometry_at(100.0)
    edge = EdgeParams(L1=geom.R, R=geom.R)
    assert overhang_force(geom, edge) == pytest.approx(
        edge_corrected_force(geom), rel=1e-9)


def test_overhang_continuity_toward_full_support():
    geom = geometry_at(100.0)
    vals = [overhang_force(geom, EdgeParams(L1=f * geom.R, R=geom.R))
            for f in (0.9, 0.99, 1.0)]
    ref = edge_corrected_force(geom)
    gaps = [abs(v / ref - 1.0) for v in vals]
    assert gaps[0] > gaps[1] > 0.0 or gaps[1] < 1e-12
    assert gaps[2] < 1e-10


def test_overhang_bounds_reference():
    # L1 = 25 um: extra terms below 1e-4% at 100 nm and 0.05% at 500 nm;
    # L1 = 50 um: below 5e-7% and 1.5e-4%.  (H/a = 6.4 at the 25 um/500 nm
    # corner legitimately trips the soft-margin warning.)
    import warnings as _warnings
    bounds = {(25.0, 100.0): 1e-4, (25.0, 500.0): 0.05,
              (50.0, 100.0): 5e-7, (50.0, 500.0): 1.5e-4}
    for (L1_um, a_nm), bound_pct in bounds.items():
        geom = geometry_at(a_nm)
        edge = EdgeParams(L1=L1_um * 1e-6, R=geom.R)
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", EdgeValidityWarning)
            extra = abs(overhang_force(geom, edge)
                        / edge_corrected_force(geom) - 1.0)
        assert 100.0 * extra <= bound_pct, (L1_um, a_nm, 100.0 * extra)


def test_overhang_validation_and_warning():
    geom = geometry_at(100.0)
    with pytest.raises(ValueError):
        EdgeParams(L1=2e-4, R=1e-4)
    with pytest.raises(ValueError):
        EdgeParams(L1=0.0, R=1e-4)
    with pytest.raises(ValueError):
        overhang_force(geom, EdgeParams(L1=25e-6, R=50e-6))
    # L1 below 20a is soft: warn, still compute
    tight = Geometry(a=2e-6, R=100e-6, L=100e-6)
    with pytest.warns(EdgeValidityWarning):
        overhang_force(tight, EdgeParams(L1=30e-6, R=100e-6))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda: finite_plate_force(NAN, 0.0, 1e-7),
    lambda: finite_plate_force(1e-8, NAN, 1e-7),
    lambda: finite_plate_force(1e-8, 0.0, NAN),
    lambda: finite_plate_force(INF, 0.0, 1e-7),
    lambda: finite_plate_force(1e-8, INF, 1e-7),
    lambda: finite_plate_force(1e-8, 0.0, INF),
    lambda: EdgeParams(L1=NAN, R=100e-6),
    lambda: EdgeParams(L1=25e-6, R=INF),
], ids=["S_nan", "edge_nan", "z_nan", "S_inf", "edge_inf", "z_inf",
        "overhang_L1_nan", "overhang_R_inf"])
def test_non_finite_input_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("a", [1e-209, 1e191])
def test_separation_past_the_float_range_raises_naming_it(a):
    # a**3 rounds to 0 or overflows: every closed form raises ValueError naming
    # a, before any warning, where it ended in ZeroDivisionError or OverflowError
    geom = Geometry(a=a, R=100e-6, L=100e-6)
    edge = EdgeParams(L1=25e-6, R=100e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (ideal_metal_force_t0, ideal_metal_gradient_t0, edge_corrected_force,
                   edge_corrected_gradient, lambda g: overhang_force(g, edge)):
            with pytest.raises(ValueError, match=re.escape(f"separation a = {a} m")):
                fn(geom)
