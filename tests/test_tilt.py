"""Tilt corrections: multiplicative factor, nonmultiplicative ratios, kernels."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_cyl import (Dielectric, Geometry, IdealMetal, PlasmaOscillators,
                         QuadratureSpec, ThermalState, TiltParams, cylinder_force,
                         cylinder_force_gradient, gold_drude, kappa, kappa_nm,
                         multiplicative_force, thermal_correction, tilted_force,
                         tilted_gradient)
from casimir_cyl.casimir_core import _li_kernel, ideal_metal_force_t0
from casimir_cyl.quadrature import ConvergenceError, gauss_legendre
from casimir_cyl.reflection import log_r2_pair
from conftest import geometry_at

AU = gold_drude()

# closed-form kappa on the reference grid, 4-5 decimals
KAPPA_TABLE = {0.01: 1.00026, 0.05: 1.0066, 0.1: 1.0267, 0.5: 2.1176}


def test_kappa_reference_values():
    for a_theta, want in KAPPA_TABLE.items():
        assert kappa(a_theta) == pytest.approx(want, abs=5e-5)


def test_kappa_parallel_limit():
    assert kappa(0.0) == 1.0
    assert kappa(5e-324) == 1.0
    # one formula from the smallest A up: kappa - 1 = (21/8) A^2 + (9009/1920) A^4 + O(A^6)
    for a_theta in np.geomspace(1e-12, 1e-3, 30):
        taylor = 1.0 + a_theta**2 * (21.0 / 8.0 + a_theta**2 * 9009.0 / 1920.0)
        assert kappa(a_theta) == pytest.approx(taylor, rel=0.0, abs=4.5e-16), a_theta


def test_kappa_domain():
    with pytest.raises(ValueError):
        kappa(1.0)
    with pytest.raises(ValueError):
        kappa(-0.1)


def test_tilt_params():
    geom = geometry_at(100.0)
    tilt = TiltParams.from_angle(1e-6, geom)
    assert tilt.a_theta == 1e-6 * geom.L / (2.0 * geom.a)
    assert TiltParams.from_a_theta(0.1, geom) == TiltParams(0.1)
    with pytest.raises(ValueError, match="finite"):
        TiltParams(1.0)
    with pytest.raises(ValueError, match="finite"):
        TiltParams(-0.1)
    with pytest.raises(ValueError):
        TiltParams.from_a_theta(1.0, geom)
    with pytest.raises(ValueError, match="theta must be finite and nonnegative"):
        TiltParams.from_angle(-1e-6, geom)
    with pytest.raises(ValueError, match="a_theta"):
        TiltParams.from_angle(1.0, geom)  # a_theta = 500 at 100 nm


# Drude gold at 300 K and a_theta = 0.1, recorded with one ThermalState.at and
# one TiltParams.from_a_theta per separation: cylinder_force,
# cylinder_force_gradient, tilted_force, tilted_gradient, kappa_nm,
# multiplicative_force and thermal_correction, as float.hex; multiplicative_force
# re-recorded when kappa became one expm1/atanh formula (last bits), the 500 nm
# tilted_force, tilted_gradient and kappa_nm when the tilted kernel took
# mu -+ A v for v (1 -+ A) - ln r^2 (last bits), and every tilted_force,
# tilted_gradient and kappa_nm when the tilted rows became a Gauss ladder in w
# (up to 26 ulp)
SWEEP_BITS = {
    100.0: ('-0x1.6fe0bdacc6a24p-29', '0x1.48c0211d600b8p-4', '-0x1.772e208ff5d27p-29',
            '0x1.5361ea9a15dc8p-4', '0x1.0514dfd0390d2p+0', '-0x1.79b5c00088962p-29',
            '-0x1.6761b1b1c682bp-7'),
    500.0: ('-0x1.0c6432851f2c8p-36', '0x1.b587b2199c56bp-14', '-0x1.13263fc60380cp-36',
            '0x1.c6ac20435b9f1p-14', '0x1.06722d4272154p+0', '-0x1.139085dd94eafp-36',
            '-0x1.6308eb14e4ff9p-4'),
    2000.0: ('-0x1.e5917db477ebcp-44', '0x1.a37fbbb139089p-23', '-0x1.f3b564437895bp-44',
             '0x1.b6c28c061c8d4p-23', '0x1.0774795cf8457p+0', '-0x1.f28bbc007226fp-44',
             '-0x1.89ecde0ef849bp-2'),
}


def test_one_record_serves_every_separation():
    # a_theta is the paper's fixed tilt parameter and tau is formed from T and
    # each geometry's a, so one ThermalState and one TiltParams serve a sweep
    th, tilt = ThermalState(300.0), TiltParams(0.1)
    for a_nm, want in SWEEP_BITS.items():
        geom = geometry_at(a_nm)
        got = (cylinder_force(geom, th, AU).value,
               cylinder_force_gradient(geom, th, AU).value,
               tilted_force(geom, th, AU, tilt).value,
               tilted_gradient(geom, th, AU, tilt).value,
               kappa_nm(geom, th, AU, tilt),
               multiplicative_force(geom, th, AU, tilt).value,
               thermal_correction(geom, AU, temperature=th.temperature))
        assert tuple(x.hex() for x in got) == want, a_nm


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


# At these tilts the kernel [Li(e^{-v(1-A)-m}) - Li(e^{-v(1+A)-m})]/(2A)
# cancels, with noise of about eps/A: Drude at 500 nm stalls at the default
# rel_tol instead of returning the parallel force (ROADMAP item 16)
@pytest.mark.xfail(raises=ConvergenceError, strict=True,
                   reason="the tilted kernel cancels at tiny a_theta")
@pytest.mark.parametrize("temperature, a_theta", [(300.0, 1e-8), (0.0, 1e-10)])
def test_tiny_tilt_approaches_parallel(temperature, a_theta):
    geom = geometry_at(500.0)
    th = ThermalState(temperature)
    ratio = tilted_force(geom, th, AU, TiltParams(a_theta)).value / \
        cylinder_force(geom, th, AU).value
    assert abs(ratio - 1.0) <= 3.0 * a_theta**2 + 1e-9


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
    theta = 2.0 * geom.a * tilt.a_theta / geom.L
    grad = tilted_gradient(geom, th0, IdealMetal(), tilt).value
    a, h = geom.a, geom.a * 1e-5

    def f(sep):
        g = Geometry(a=sep, R=geom.R, L=geom.L)
        A = theta * g.L / (2.0 * sep)
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
        vs = np.array([v])
        factorized = float(_li_kernel(vs, vs - log_r2_pair(vs, zeta, eps), 1.5, 0.5, A)[0])
        assert factorized == pytest.approx(naive, rel=1e-12)


@pytest.mark.parametrize("model", [AU, Dielectric(eps0=11.7), IdealMetal(),
                                   PlasmaOscillators(omega_p=9.0)],
                         ids=["drude", "dielectric", "ideal", "plasma"])
@pytest.mark.parametrize("temperature, a_nm, a_theta", [
    (300.0, 150.0, 0.5), (0.0, 150.0, 0.5), (0.0, 1000.0, 0.1)])
@pytest.mark.parametrize("plain, tilted", [
    (cylinder_force, tilted_force), (cylinder_force_gradient, tilted_gradient)],
    ids=["force", "gradient"])
def test_tilt_is_the_length_average_of_parallel_strips(model, temperature, a_nm,
                                                        a_theta, plain, tilted):
    """In PFA a tilted cylinder is the length average of untilted ones at
    a(1 + A t), t in [-1, 1]; a 24-node Gauss-Legendre average of the
    untilted observable checks the sinh factorization, the Li_{s+1} kernel,
    the window span/(1 - A) and the decay tau(1 - A) through code they do
    not share.  Held to rel_tol at T = 0 (worst 6.1e-14 on 48 cases at
    rel_tol 1e-11) and to 10 rel_tol at 300 K (worst 2.0e-11): each Matsubara
    sum stops on three small terms and under-reports its tail, most at
    A = 0.5 and 100-150 nm (ROADMAP item 1b).  Plasma is the one model whose
    l = 0 channel depends on v (TE, asinh(alpha v)): worst 1.3e-11 at 300 K
    and 2.9e-15 at T = 0."""
    quad = QuadratureSpec(rel_tol=1e-11)
    geom = geometry_at(a_nm)
    nodes, weights = gauss_legendre(24)
    average = 0.0
    for t, w in zip(nodes, weights):
        strip = Geometry(a=geom.a * (1.0 + a_theta * t), R=geom.R, L=geom.L)
        average += 0.5 * w * plain(strip, ThermalState.at(temperature, strip),
                                   model, quad).value
    tilt = TiltParams.from_a_theta(a_theta, geom)
    want = tilted(geom, ThermalState.at(temperature, geom), model, tilt, quad).value
    gate = quad.rel_tol * (10.0 if temperature > 0.0 else 1.0)
    assert average == pytest.approx(want, rel=gate, abs=0.0)
