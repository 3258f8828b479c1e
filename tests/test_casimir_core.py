"""Engine tests: closed-form oracles, limits, scaling and determinism."""
import math
import warnings
from collections import deque

import numpy as np
import pytest

from casimir_cyl import (ConvergenceError, Dielectric, Geometry,
                         IdealMetal, Oscillator, PFAValidityWarning, PlasmaOscillators,
                         QuadratureSpec, ThermalState, TiltParams,
                         ZeroFreqDielectric,
                         ZeroFreqDrudeLike, ZeroFreqIdeal, ZeroFreqMixed,
                         ZeroFreqPlasmaLike, cylinder_force,
                         cylinder_force_gradient, gold_drude,
                         high_temperature_force, high_temperature_gradient,
                         ideal_metal_force_t0, ideal_metal_gradient_t0,
                         plate_pressure, thermal_correction,
                         zero_temperature_force, zero_temperature_gradient)
from casimir_cyl.casimir_core import (_CONSECUTIVE_BELOW, _FIRST_BLOCK, _FORCE,
                                     _GRADIENT, _li_finite,
                                     _li_zero_freq, _reduce, _zero_freq_int,
                                     matsubara_reduce)
from casimir_cyl.constants import BOLTZMANN_J_PER_K, HBAR_C_EV_NM, HBAR_C_J_M
from casimir_cyl.dielectric import eps_imag_axis, zero_frequency_character
from casimir_cyl.quadrature import adaptive_quad, adaptive_quad_rows
from casimir_cyl.reflection import log_r2_pair
from casimir_cyl.specfun import ZETA_3, polylog, polylog_exp_neg
from casimir_cyl.tilt import tilted_force, tilted_gradient
from conftest import geometry_at

AU = gold_drude()
PLASMA = PlasmaOscillators(omega_p=9.0)


# ------------------------------------------------------------- types


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(a=0.0, R=1e-4, L=1e-4)
    with pytest.raises(ValueError):
        Geometry(a=1e-7, R=-1e-4, L=1e-4)
    assert geometry_at(100.0).pfa_warning is False
    assert Geometry(a=6e-6, R=100e-6, L=100e-6).pfa_warning is True


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_input_rejected(bad):
    geom = geometry_at(300.0)
    for make in (lambda: Geometry(a=bad, R=1e-4, L=1e-4),
                 lambda: Geometry(a=1e-7, R=bad, L=1e-4),
                 lambda: Geometry(a=1e-7, R=1e-4, L=bad),
                 lambda: ThermalState(temperature=bad, tau=1.0),
                 lambda: ThermalState(temperature=300.0, tau=bad),
                 lambda: ThermalState.at(bad, geom),
                 lambda: TiltParams(theta=bad, a_theta=0.1),
                 lambda: TiltParams(theta=1e-6, a_theta=bad),
                 lambda: TiltParams.from_angle(bad, geom),
                 lambda: plate_pressure(bad, 300.0, IdealMetal()),
                 lambda: plate_pressure(300e-9, bad, IdealMetal()),
                 lambda: high_temperature_force(geom, bad, ZeroFreqIdeal())):
        with pytest.raises(ValueError):
            make()


def test_thermal_state():
    geom = geometry_at(100.0)
    th = ThermalState.at(300.0, geom)
    want = 4.0 * math.pi * BOLTZMANN_J_PER_K * 300.0 * geom.a / (
        1.054571817e-34 * 299792458.0)
    assert th.tau == pytest.approx(want, rel=1e-15)
    assert ThermalState.at(0.0, geom).tau == 0.0
    with pytest.raises(ValueError):
        ThermalState(temperature=300.0, tau=0.0)
    with pytest.raises(ValueError):
        ThermalState(temperature=-1.0, tau=1.0)


def test_mismatched_thermal_state_rejected():
    geom = geometry_at(100.0)
    other = ThermalState.at(300.0, geometry_at(200.0))
    with pytest.raises(ValueError):
        cylinder_force(geom, other, AU)


def test_pfa_warning_emitted():
    geom = Geometry(a=10e-6, R=100e-6, L=100e-6)
    with pytest.warns(PFAValidityWarning):
        cylinder_force(geom, ThermalState.at(300.0, geom), IdealMetal())


# --------------------------------------------------- zero temperature


def test_ideal_t0_force_matches_closed_form():
    for a_nm in (100.0, 1000.0):
        geom = geometry_at(a_nm)
        res = zero_temperature_force(geom, IdealMetal())
        assert res.value == pytest.approx(ideal_metal_force_t0(geom), rel=1e-9)
        assert res.value < 0.0
        assert res.per_length == pytest.approx(res.value / geom.L, rel=1e-15)
        assert res.l_used == 0


def test_ideal_t0_gradient_matches_closed_form():
    geom = geometry_at(300.0)
    res = zero_temperature_gradient(geom, IdealMetal())
    assert res.value == pytest.approx(ideal_metal_gradient_t0(geom), rel=1e-9)
    assert res.value > 0.0


def test_t0_power_law_scaling():
    g1 = geometry_at(200.0)
    g2 = geometry_at(400.0)
    f1 = ideal_metal_force_t0(g1)
    f2 = ideal_metal_force_t0(g2)
    assert f2 / f1 == pytest.approx(2.0**-3.5, rel=1e-12)
    # and the numeric integral obeys the same law
    n1 = zero_temperature_force(g1, IdealMetal()).value
    n2 = zero_temperature_force(g2, IdealMetal()).value
    assert n2 / n1 == pytest.approx(2.0**-3.5, rel=1e-8)


def test_drude_vs_plasma_t0_close():
    # sanity band: at T = 0 the models differ only through relaxation at
    # xi > 0; gamma = 0.035 eV moves eps(i xi) by ~5% near the characteristic
    # frequency of a 150 nm gap, which integrates to a ~1.6% force difference
    geom = geometry_at(150.0)
    fd = zero_temperature_force(geom, AU).value
    fp = zero_temperature_force(geom, PLASMA).value
    assert abs(fd / fp - 1.0) < 3e-2
    assert abs(fd) < abs(fp)  # dissipation can only weaken the reflection


def test_tabulated_model_through_full_engine():
    # synthetic Drude optical data must reproduce the analytic Drude force
    # through the dispersion transform, at finite T and through the
    # vectorized-frequency T = 0 path
    from casimir_cyl import OpticalTable, Tabulated
    import numpy as np
    omega = np.geomspace(0.125, 1.0e4, 500)
    im_eps = 81.0 * 0.035 / (omega * (omega**2 + 0.035**2))
    model = Tabulated(table=OpticalTable(omega, im_eps), tail=AU)
    geom = geometry_at(500.0)
    th = ThermalState.at(300.0, geom)
    quad = QuadratureSpec(rel_tol=1e-7)
    f_tab = cylinder_force(geom, th, model, quad).value
    f_drude = cylinder_force(geom, th, AU, quad).value
    assert f_tab == pytest.approx(f_drude, rel=2e-3)
    f0_tab = zero_temperature_force(geom, model, quad).value
    f0_drude = zero_temperature_force(geom, AU, quad).value
    assert f0_tab == pytest.approx(f0_drude, rel=2e-3)


def test_oscillator_model_through_engine():
    # interband oscillators strengthen the response: force between the
    # simple-plasma and ideal-metal bounds
    from casimir_cyl import Oscillator
    osc_model = PlasmaOscillators(
        omega_p=9.0, oscillators=(Oscillator(g=45.0, omega=4.0, gamma=1.8),))
    geom = geometry_at(300.0)
    th = ThermalState.at(300.0, geom)
    quad = QuadratureSpec(rel_tol=1e-7)
    f_osc = cylinder_force(geom, th, osc_model, quad).value
    f_plain = cylinder_force(geom, th, PLASMA, quad).value
    f_ideal = cylinder_force(geom, th, IdealMetal(), quad).value
    assert abs(f_plain) < abs(f_osc) < abs(f_ideal)


def test_t0_gradient_fd_consistency_real_metal():
    # the T = 0 gradient path against central differences of the T = 0 force
    quad = QuadratureSpec(rel_tol=1e-9)
    a = 400e-9
    h = a * 1e-3

    def f0(sep):
        return zero_temperature_force(Geometry(a=sep, R=100e-6, L=100e-6),
                                      AU, quad).value

    geom = Geometry(a=a, R=100e-6, L=100e-6)
    grad = zero_temperature_gradient(geom, AU, quad).value
    fd = (f0(a + h) - f0(a - h)) / (2.0 * h)
    assert grad == pytest.approx(fd, rel=1e-4)


def test_t0_dispatch_from_cylinder_force():
    geom = geometry_at(250.0)
    th0 = ThermalState.at(0.0, geom)
    a = cylinder_force(geom, th0, AU).value
    b = zero_temperature_force(geom, AU).value
    assert a == b


# --------------------------------------------------- finite temperature


def test_force_attractive_gradient_positive():
    geom = geometry_at(500.0)
    th = ThermalState.at(300.0, geom)
    for model in (IdealMetal(), AU, PLASMA, Dielectric(eps0=3.0)):
        f = cylinder_force(geom, th, model)
        g = cylinder_force_gradient(geom, th, model)
        assert f.value < 0.0, model
        assert g.value > 0.0, model


def test_model_hierarchy():
    geom = geometry_at(500.0)
    th = ThermalState.at(300.0, geom)
    f_ideal = abs(cylinder_force(geom, th, IdealMetal()).value)
    f_plasma = abs(cylinder_force(geom, th, PLASMA).value)
    f_drude = abs(cylinder_force(geom, th, AU).value)
    assert f_ideal >= f_plasma >= f_drude


def test_monotone_decay_in_separation():
    th_geoms = [geometry_at(a) for a in (100.0, 200.0, 400.0, 800.0, 1600.0)]
    vals = [abs(cylinder_force(g, ThermalState.at(300.0, g), AU).value)
            for g in th_geoms]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_linear_in_length():
    g1 = Geometry(a=500e-9, R=100e-6, L=100e-6)
    g2 = Geometry(a=500e-9, R=100e-6, L=200e-6)
    th1 = ThermalState.at(300.0, g1)
    th2 = ThermalState.at(300.0, g2)
    f1 = cylinder_force(g1, th1, AU)
    f2 = cylinder_force(g2, th2, AU)
    assert f2.value == pytest.approx(2.0 * f1.value, rel=1e-12)
    assert f1.per_length == pytest.approx(f2.per_length, rel=1e-12)


def test_gradient_central_difference():
    a = 500e-9
    h = a * 1e-4
    quad = QuadratureSpec(rel_tol=1e-10)
    R, L = 100e-6, 100e-6

    def force_at(sep):
        g = Geometry(a=sep, R=R, L=L)
        return cylinder_force(g, ThermalState.at(300.0, g), AU, quad).value

    geom = Geometry(a=a, R=R, L=L)
    grad = cylinder_force_gradient(geom, ThermalState.at(300.0, geom), AU,
                                   quad).value
    fd = (force_at(a + h) - force_at(a - h)) / (2.0 * h)
    assert grad == pytest.approx(fd, rel=1e-5)


def test_convergence_guard():
    geom = geometry_at(100.0)
    th = ThermalState.at(300.0, geom)
    for max_terms in (1, 2):
        with pytest.raises(ConvergenceError, match=f"after {max_terms} terms"):
            cylinder_force(geom, th, AU, QuadratureSpec(rel_tol=1e-9, max_terms=max_terms))


def test_high_t_matsubara_matches_asymptote():
    # tau > 30 at a = 20 um, 300 K
    geom = Geometry(a=20e-6, R=100e-6, L=100e-6)
    th = ThermalState.at(300.0, geom)
    assert th.tau > 30.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PFAValidityWarning)
        f_num = cylinder_force(geom, th, IdealMetal()).value
        g_num = cylinder_force_gradient(geom, th, IdealMetal()).value
    f_asym = high_temperature_force(geom, 300.0, ZeroFreqIdeal())
    g_asym = high_temperature_gradient(geom, 300.0, ZeroFreqIdeal())
    assert abs(f_num / f_asym - 1.0) < 1e-2
    assert abs(g_num / g_asym - 1.0) < 1e-2


# --------------------------------------------------------- plate pressure


def test_plate_pressure_ideal_t0():
    a = 1e-6
    got = plate_pressure(a, 0.0, IdealMetal())
    want = -math.pi**2 * HBAR_C_J_M / (240.0 * a**4)
    assert got == pytest.approx(want, rel=1e-8)


def test_plate_pressure_ideal_high_t():
    # zero-frequency term summed analytically: -zeta(3) k_B T/(4 pi a^3);
    # both polarizations contribute at l = 0 with the primed half weight
    a, T = 50e-6, 300.0
    got = plate_pressure(a, T, IdealMetal())
    want = -ZETA_3 * BOLTZMANN_J_PER_K * T / (4.0 * math.pi * a**3)
    assert got == pytest.approx(want, rel=1e-6)


def test_plate_pressure_drude_half_ideal_high_t():
    a, T = 50e-6, 300.0
    ratio = plate_pressure(a, T, AU) / plate_pressure(a, T, IdealMetal())
    assert ratio == pytest.approx(0.5, abs=1e-3)


def test_plate_pressure_validation():
    with pytest.raises(ValueError):
        plate_pressure(-1e-6, 300.0, AU)
    with pytest.raises(ValueError):
        plate_pressure(1e-6, -5.0, AU)


# ------------------------------------------------- high-temperature forms


def test_high_t_closed_forms():
    geom = geometry_at(1000.0)
    T = 300.0
    base = -(3.0 * ZETA_3 * BOLTZMANN_J_PER_K * T * geom.L
             / (16.0 * geom.a**2)) * math.sqrt(geom.R / (2.0 * geom.a))
    assert high_temperature_force(geom, T, ZeroFreqIdeal()) == \
        pytest.approx(base, rel=1e-14)
    assert high_temperature_force(geom, T, ZeroFreqDrudeLike()) == \
        pytest.approx(0.5 * base, rel=1e-14)
    # dielectric eps0 = 3: (3 k_B T L/32 a^2) sqrt(R/2a) Li_3(0.25)
    want = 0.5 * base * polylog(3.0, 0.25) / ZETA_3
    assert high_temperature_force(geom, T, ZeroFreqDielectric(r0=0.5)) == \
        pytest.approx(want, rel=1e-12)
    # metal-dielectric cross case replaces r0^2 by r0
    want_mixed = 0.5 * base * polylog(3.0, 0.5) / ZETA_3
    assert high_temperature_force(geom, T, ZeroFreqMixed(r0=0.5)) == \
        pytest.approx(want_mixed, rel=1e-12)


def test_high_t_gradient_forms():
    geom = geometry_at(1000.0)
    T = 300.0
    base = (15.0 * ZETA_3 * BOLTZMANN_J_PER_K * T * geom.L
            / (32.0 * geom.a**3)) * math.sqrt(geom.R / (2.0 * geom.a))
    assert high_temperature_gradient(geom, T, ZeroFreqIdeal()) == \
        pytest.approx(base, rel=1e-14)
    assert high_temperature_gradient(geom, T, ZeroFreqDrudeLike()) == \
        pytest.approx(0.5 * base, rel=1e-14)


def test_plasma_expansion_and_domain():
    geom = geometry_at(1000.0)
    x = 2.0 * ZeroFreqPlasmaLike(alpha=0.01).alpha
    got = high_temperature_force(geom, 300.0, ZeroFreqPlasmaLike(alpha=0.01))
    ideal = high_temperature_force(geom, 300.0, ZeroFreqIdeal())
    assert got / ideal == pytest.approx(1.0 - 2.5 * x + 8.75 * x**2, rel=1e-13)
    with pytest.raises(ValueError):
        high_temperature_force(geom, 300.0, ZeroFreqPlasmaLike(alpha=0.3))
    with pytest.raises(ValueError):
        high_temperature_gradient(geom, 300.0, ZeroFreqPlasmaLike(alpha=0.25))
    for bad in (float("nan"), -0.01):
        with pytest.raises(ValueError):
            high_temperature_force(geom, 300.0, ZeroFreqPlasmaLike(alpha=bad))


# ------------------------------------------------------ thermal correction


def test_thermal_correction_zero_at_t0():
    geom = geometry_at(500.0)
    assert thermal_correction(geom, AU, temperature=0.0) == 0.0


def test_thermal_correction_signs():
    quad = QuadratureSpec(rel_tol=1e-7)
    geom = geometry_at(500.0)
    assert thermal_correction(geom, AU, quad) < 0.0        # Drude: negative
    assert thermal_correction(geom, PLASMA, quad) > 0.0    # plasma: positive


def test_thermal_correction_which_validation():
    with pytest.raises(ValueError):
        thermal_correction(geometry_at(500.0), AU, which="pressure")


# ------------------------------------------------ T = 0 batched quadrature


def _nested_t0(obs: str, model, geom: Geometry) -> float:
    """T = 0 force or gradient with one scalar inner quadrature per outer node.

    The structure the engine batches: the same strip integral
    int_0^1 dt int_0^inf dv v K(v, t v) with v = w**2 and the same
    tolerances, but each inner integral is its own ``adaptive_quad`` call.
    """
    p, s, sign, power = {"force": (1.5, 0.5, -1.0, 3),
                         "gradient": (2.5, -0.5, 1.0, 4)}[obs]
    quad = QuadratureSpec()
    omega_c = HBAR_C_EV_NM / (2.0 * geom.a * 1e9)
    w_hi = math.sqrt(quad.v_span())

    def inner(t: float) -> float:
        def f(w):
            v = w * w
            zeta = t * v
            ln_r2 = log_r2_pair(v, zeta, eps_imag_axis(model, zeta * omega_c))
            kernel = v**p * sum(polylog_exp_neg(s, v - x) for x in ln_r2)
            return 2.0 * w * v * kernel
        return adaptive_quad(f, 0.0, w_hi, rel_tol=quad.rel_tol * 0.1,
                             initial_panels=6)[0]

    total, _ = adaptive_quad(lambda ts: np.array([inner(float(t)) for t in ts]),
                             0.0, 1.0, rel_tol=quad.rel_tol, initial_panels=4)
    a, R, L = geom.a, geom.R, geom.L
    return (sign * HBAR_C_J_M * L / (16.0 * math.pi**1.5 * a**power)
            * math.sqrt(R / (2.0 * a)) * total)


@pytest.mark.parametrize("a_nm", [150.0, 500.0])
@pytest.mark.parametrize("model", [AU, PLASMA], ids=["drude", "plasma"])
def test_t0_batched_matches_nested_quadrature(model, a_nm):
    geom = geometry_at(a_nm)
    for obs, fn in (("force", zero_temperature_force),
                    ("gradient", zero_temperature_gradient)):
        want = _nested_t0(obs, model, geom)
        assert fn(geom, model).value == pytest.approx(want, rel=1e-12, abs=0.0)


# ------------------------------------------------- blocked Matsubara sum


def _term_by_term(obs, model, a: float, tau: float, quad: QuadratureSpec,
                  a_theta: float) -> tuple[float, int, float]:
    """Finite-T reduction with one scalar ``adaptive_quad`` per Matsubara term.

    The loop the engine blocks: same kernels, limits, tolerances and stop
    rule, each term integrated and added on its own in ascending l.
    """
    p, s = obs.v_power, obs.li_order
    omega_c = HBAR_C_EV_NM / (2.0 * (a * 1e9))
    behavior = zero_frequency_character(model, a)
    span = quad.v_span() / (1.0 - a_theta)
    total = 0.5 * _zero_freq_int(
        lambda v: _li_zero_freq(v, behavior, p, s, a_theta), span, quad)
    recent = deque(maxlen=_CONSECUTIVE_BELOW)
    below = 0
    l = 0
    while True:
        l += 1
        if l > quad.max_terms:
            raise ConvergenceError(
                f"Matsubara sum not converged after {quad.max_terms} terms")
        zeta = tau * l
        eps = eps_imag_axis(model, zeta * omega_c)
        term, _ = adaptive_quad(lambda v: _li_finite(v, zeta, eps, p, s, a_theta),
                                zeta, zeta + span, rel_tol=quad.rel_tol * 0.1,
                                initial_panels=4)
        total += term
        recent.append(abs(term))
        below = below + 1 if abs(term) < quad.rel_tol * abs(total) else 0
        if below >= _CONSECUTIVE_BELOW:
            break
    trunc = sum(recent) / abs(total) if total != 0.0 else 0.0
    return total, l, trunc


def _tabulated():
    from casimir_cyl import OpticalTable, Tabulated
    omega = np.geomspace(0.125, 1.0e4, 300)
    im_eps = (81.0 * 0.035 / (omega * (omega**2 + 0.035**2))
              + 4.0 * np.exp(-((omega - 3.0) / 1.5) ** 2))
    return Tabulated(table=OpticalTable(omega, im_eps), tail=AU)


OSC = PlasmaOscillators(omega_p=9.0, oscillators=(Oscillator(g=20.0, omega=3.0, gamma=1.0),))
TAB = _tabulated()
BLOCK_MODELS = {"ideal": IdealMetal(), "drude": AU, "plasma": PLASMA,
                "plasma_osc": OSC, "dielectric": Dielectric(eps0=11.7),
                "tabulated": TAB}


def _bits(result) -> tuple[str, int, str]:
    total, l_used, trunc = result
    return total.hex(), l_used, trunc.hex()


@pytest.mark.parametrize("a_nm", [100.0, 500.0, 2000.0])
@pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
def test_blocked_sum_matches_term_by_term_bits(name, a_nm):
    model = BLOCK_MODELS[name]
    a = a_nm * 1e-9
    tau = ThermalState.at(300.0, geometry_at(a_nm)).tau
    quad = QuadratureSpec()
    for obs in (_FORCE, _GRADIENT):
        for a_theta in (0.0, 0.1, 0.5):
            got = _reduce(obs.v_power, obs.li_order, model, a, tau, quad, a_theta)
            want = _term_by_term(obs, model, a, tau, quad, a_theta)
            assert _bits(got) == _bits(want), (obs, a_theta)


@pytest.mark.parametrize("a_nm", [100.0, 500.0])
def test_max_terms_bound_is_exact(a_nm):
    geom = geometry_at(a_nm)
    th = ThermalState.at(300.0, geom)
    free = cylinder_force(geom, th, AU)
    exact = cylinder_force(geom, th, AU, QuadratureSpec(max_terms=free.l_used))
    assert exact == free
    short = free.l_used - 1
    with pytest.raises(ConvergenceError,
                       match=f"^Matsubara sum not converged after {short} terms$"):
        cylinder_force(geom, th, AU, QuadratureSpec(max_terms=short))


def test_failed_row_past_the_stop_is_not_read():
    # term l integrates 100**-l exp(-v) over [0, 1]; the sum stops at l = 7,
    # inside the first block, whose rows past the stop are NaN
    quad = QuadratureSpec()

    def blocks(nan_from: int):
        def block(l0: int, count: int):
            ls = np.arange(l0, l0 + count)

            def f(v, row):
                return np.where(ls[row] >= nan_from, np.nan,
                                100.0 ** -ls[row] * np.exp(-v))
            return (val for val, _ in adaptive_quad_rows(
                f, np.zeros(count), np.ones(count), rel_tol=quad.rel_tol * 0.1))
        return block

    total, l_used, _ = matsubara_reduce(blocks(10**6), lambda: 2.0, 1.0, quad)
    assert l_used == 7 < _FIRST_BLOCK
    assert matsubara_reduce(blocks(l_used + 1), lambda: 2.0, 1.0, quad)[:2] == (total, l_used)
    with pytest.raises(ConvergenceError, match=f"row {l_used - 1}"):
        matsubara_reduce(blocks(l_used), lambda: 2.0, 1.0, quad)


# Recorded before the Matsubara terms were blocked (one adaptive_quad per
# term); finite-T cases the CLI goldens do not cover.  (value, l_used,
# truncation_estimate) as float.hex.
_PINNED = (
    ("ideal", "force", 300.0, 0.0,
     "-0x1.0c71e6720da1ep-33", 50, "0x1.dacbd299d6b4dp-30"),
    ("ideal", "gradient", 1000.0, 0.0,
     "0x1.a813fc7820272p-18", 19, "0x1.21b6bce75c03ap-31"),
    ("dielectric", "gradient", 300.0, 0.0,
     "0x1.c394cf86345e0p-12", 55, "0x1.697bdd204ca28p-30"),
    ("plasma_osc", "force", 150.0, 0.0,
     "-0x1.bdef378faa599p-31", 79, "0x1.16d5d8b1c1033p-29"),
    ("plasma_osc", "gradient", 500.0, 0.0,
     "0x1.d774dea43d28cp-14", 32, "0x1.57f9c4e29aa07p-30"),
    ("tabulated", "force", 500.0, 0.0,
     "-0x1.0c9f70171d6cap-36", 30, "0x1.00bed8c5f558ep-30"),
    ("tabulated", "gradient", 200.0, 0.0,
     "0x1.4adfd19e26671p-8", 68, "0x1.2e508099767fdp-29"),
    ("drude", "force", 100.0, 0.5,
     "-0x1.3fd24befb2111p-28", 162, "0x1.5c5fac4440d1cp-29"),
    ("dielectric", "gradient", 100.0, 0.5,
     "0x1.873b18b44eca7p-3", 265, "0x1.7b44ddd61384dp-29"),
)


@pytest.mark.parametrize("name,which,a_nm,a_theta,value,l_used,trunc", _PINNED)
def test_finite_t_bits_pinned(name, which, a_nm, a_theta, value, l_used, trunc):
    geom = geometry_at(a_nm)
    th = ThermalState.at(300.0, geom)
    model = BLOCK_MODELS[name]
    if a_theta == 0.0:
        fn = cylinder_force if which == "force" else cylinder_force_gradient
        res = fn(geom, th, model)
    else:
        fn = tilted_force if which == "force" else tilted_gradient
        res = fn(geom, th, model, TiltParams.from_a_theta(a_theta, geom))
    assert (res.value.hex(), res.l_used, res.truncation_estimate.hex()) == (
        value, l_used, trunc)
