"""Tilt corrections: multiplicative factor, nonmultiplicative ratios, kernels."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_cyl import (Geometry, IdealMetal, PlasmaOscillators, QuadratureSpec,
                         ThermalState, TiltParams, cylinder_force,
                         cylinder_force_gradient, gold_drude, kappa, kappa_nm,
                         multiplicative_force, tilted_force, tilted_gradient)
from casimir_cyl.casimir_core import _li_finite, ideal_metal_force_t0
from conftest import geometry_at

AU = gold_drude()

# closed-form kappa on the reference grid, 4-5 decimals
KAPPA_TABLE = {0.01: 1.00026, 0.05: 1.0066, 0.1: 1.0267, 0.5: 2.1176}


def test_kappa_reference_values():
    for a_theta, want in KAPPA_TABLE.items():
        assert kappa(a_theta) == pytest.approx(want, abs=5e-5)


def test_kappa_parallel_limit_and_series_continuity():
    assert kappa(0.0) == 1.0
    # the Taylor branch must join the closed form smoothly at the switch
    below, above = kappa(0.001 * (1 - 1e-9)), kappa(0.001 * (1 + 1e-9))
    assert below == pytest.approx(above, rel=1e-12)


def test_kappa_domain():
    with pytest.raises(ValueError):
        kappa(1.0)
    with pytest.raises(ValueError):
        kappa(-0.1)


def test_tilt_params():
    geom = geometry_at(100.0)
    tilt = TiltParams.from_angle(1e-6, geom)
    assert tilt.a_theta == pytest.approx(1e-6 * geom.L / (2 * geom.a), rel=1e-15)
    round_trip = TiltParams.from_a_theta(tilt.a_theta, geom)
    assert round_trip.theta == pytest.approx(tilt.theta, rel=1e-15)
    with pytest.raises(ValueError):
        TiltParams.from_a_theta(1.0, geom)
    with pytest.raises(ValueError):
        TiltParams(theta=-1e-6, a_theta=0.1)


def test_tilt_built_for_another_geometry_raises():
    # a_theta = theta L/(2a) belongs to one separation, like ThermalState.tau
    near, far = geometry_at(100.0), geometry_at(200.0)
    tilt = TiltParams.from_angle(2e-4, near)  # a_theta 0.1 at 100 nm, 0.05 at 200 nm
    th = ThermalState.at(300.0, far)
    for fn in (tilted_force, tilted_gradient, kappa_nm, multiplicative_force):
        with pytest.raises(ValueError, match="TiltParams"):
            fn(far, th, AU, tilt)
    assert tilted_force(near, ThermalState.at(300.0, near), AU, tilt).value < 0.0


def test_zero_angle_reduces_exactly():
    geom = geometry_at(300.0)
    th = ThermalState.at(300.0, geom)
    tilt0 = TiltParams.from_a_theta(0.0, geom)
    assert tilted_force(geom, th, AU, tilt0).value == \
        cylinder_force(geom, th, AU).value
    assert tilted_gradient(geom, th, AU, tilt0).value == \
        cylinder_force_gradient(geom, th, AU).value
    assert kappa_nm(geom, th, AU, tilt0) == 1.0
    assert multiplicative_force(geom, th, AU, tilt0).value == \
        cylinder_force(geom, th, AU).value


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.floats(min_value=1e-6, max_value=1e-2))
def test_small_tilt_approaches_parallel(a_theta):
    # kappa - 1 = (21/8) A^2 + O(A^4); 1e-9 covers the quadrature noise at tiny A
    geom = geometry_at(500.0)
    th = ThermalState.at(300.0, geom)
    tilt = TiltParams.from_a_theta(a_theta, geom)
    for model in (IdealMetal(), AU, PlasmaOscillators(omega_p=9.0)):
        ratio = tilted_force(geom, th, model, tilt).value / \
            cylinder_force(geom, th, model).value
        assert abs(ratio - 1.0) <= 3.0 * a_theta**2 + 1e-9, model


def test_ideal_t0_multiplicative_exactness():
    # tilted force for perfect reflectors at T = 0 is exactly kappa * untilted,
    # a closed form that the error estimate must cover up to A = 0.995
    geom = geometry_at(100.0)
    th0 = ThermalState.at(0.0, geom)
    for rel_tol in (1e-9, 1e-12):
        quad = QuadratureSpec(rel_tol=rel_tol)
        for a_theta in (0.1, 0.5, 0.98, 0.99, 0.995):
            tilt = TiltParams.from_a_theta(a_theta, geom)
            tilted = tilted_force(geom, th0, IdealMetal(), tilt, quad)
            want = kappa(a_theta) * ideal_metal_force_t0(geom)
            assert abs(tilted.value / want - 1.0) <= tilted.truncation_estimate <= rel_tol
            # and multiplicative_force agrees with tilted_force identically here
            approx_mult = multiplicative_force(geom, th0, IdealMetal(), tilt, quad).value
            assert tilted.value == pytest.approx(approx_mult, rel=1e-8)


def test_table_reference_points():
    # nonmultiplicative ratios for Drude Au at 300 K
    quad = QuadratureSpec(rel_tol=1e-9)
    geom = geometry_at(100.0)
    th = ThermalState.at(300.0, geom)
    k1 = kappa_nm(geom, th, AU, TiltParams.from_a_theta(0.01, geom), quad)
    assert k1 == pytest.approx(1.00020, abs=1e-3)
    geom5 = geometry_at(500.0)
    th5 = ThermalState.at(300.0, geom5)
    k2 = kappa_nm(geom5, th5, AU, TiltParams.from_a_theta(0.1, geom5), quad)
    assert k2 == pytest.approx(1.0242, abs=2e-3)


def test_multiplicative_minus_nonmultiplicative_gap():
    # kappa - kappa_nm at (100 nm, A = 0.05) is about 0.0015
    geom = geometry_at(100.0)
    th = ThermalState.at(300.0, geom)
    gap = kappa(0.05) - kappa_nm(geom, th, AU,
                                 TiltParams.from_a_theta(0.05, geom))
    assert gap == pytest.approx(0.0015, abs=7e-4)


def test_bracketing_and_monotonicity():
    quad = QuadratureSpec(rel_tol=1e-8)
    ratios = {}
    for a_nm in (100.0, 500.0):
        geom = geometry_at(a_nm)
        th = ThermalState.at(300.0, geom)
        for a_theta in (0.1, 0.5):
            tilt = TiltParams.from_a_theta(a_theta, geom)
            ratios[(a_nm, a_theta)] = kappa_nm(geom, th, AU, tilt, quad)
    for (a_nm, a_theta), val in ratios.items():
        assert 1.0 <= val <= kappa(a_theta) + 1e-9
    # increasing in A at fixed a, increasing in a at fixed A
    assert ratios[(100.0, 0.5)] > ratios[(100.0, 0.1)]
    assert ratios[(500.0, 0.5)] > ratios[(100.0, 0.5)]
    assert ratios[(500.0, 0.1)] > ratios[(100.0, 0.1)]


def test_gradient_positive_and_fd_consistent():
    # derivative taken through the a-dependence of a_theta at fixed angle
    R, L = 100e-6, 100e-6
    theta = 1e-3  # A ~ 0.1 at 500 nm
    a = 500e-9
    h = a * 1e-4
    quad = QuadratureSpec(rel_tol=1e-10)

    def tilted_at(sep):
        g = Geometry(a=sep, R=R, L=L)
        tilt = TiltParams.from_angle(theta, g)
        return tilted_force(g, ThermalState.at(300.0, g), AU, tilt, quad).value

    geom = Geometry(a=a, R=R, L=L)
    tilt = TiltParams.from_angle(theta, geom)
    grad = tilted_gradient(geom, ThermalState.at(300.0, geom), AU, tilt,
                           quad).value
    assert grad > 0.0
    fd = (tilted_at(a + h) - tilted_at(a - h)) / (2.0 * h)
    assert grad == pytest.approx(fd, rel=1e-5)


def test_ideal_t0_gradient_is_derivative_of_kappa_times_force():
    # d/da [kappa(A(a)) F(a)] with A = theta L/(2a); fixed physical angle
    geom = geometry_at(200.0)
    th0 = ThermalState.at(0.0, geom)
    tilt = TiltParams.from_a_theta(0.3, geom)
    grad = tilted_gradient(geom, th0, IdealMetal(), tilt).value
    a, h = geom.a, geom.a * 1e-5

    def f(sep):
        g = Geometry(a=sep, R=geom.R, L=geom.L)
        A = tilt.theta * g.L / (2.0 * sep)
        return kappa(A) * ideal_metal_force_t0(g)

    fd = (f(a + h) - f(a - h)) / (2.0 * h)
    assert grad == pytest.approx(fd, rel=1e-6)


def test_factorized_integrand_matches_naive_sinh_sum():
    # direct Kahan-style n-summation of the literal sinh kernel, where it
    # cannot overflow, must agree with the polylog difference form to 1e-12
    rng = np.random.default_rng(7)
    A = 0.3
    for _ in range(20):
        v = float(rng.uniform(0.5, 8.0))
        zeta = v * float(rng.uniform(0.0, 1.0))
        eps = float(rng.uniform(1.5, 1e4))
        s = math.sqrt(v * v + (eps - 1.0) * zeta * zeta)
        r_tm = (eps * v - s) / (eps * v + s)
        r_te = (v - s) / (v + s)
        total = comp = 0.0
        for n in range(1, 4000):
            term = (math.exp(-n * v) / math.sqrt(n)
                    * (r_tm ** (2 * n) + r_te ** (2 * n))
                    * math.sinh(A * n * v) / (A * n * v))
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            if term < 1e-18 * total:
                break
        naive = v**1.5 * total
        factorized = float(_li_finite(np.array([v]), zeta, eps, 1.5, 0.5, A)[0])
        assert factorized == pytest.approx(naive, rel=1e-12)
