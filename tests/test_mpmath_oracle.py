"""The engine's special functions against mpmath, which shares no code with them.

``polylog_exp_neg`` is checked against mpmath's polylogarithm at 30 digits;
it is the oracle for moving the crossover between the series and the small-mu
expansion (now at mu = 0.5).  ``log_r2_pair`` is checked against the Fresnel
coefficients evaluated at 40 digits from the same float inputs.
``kk_transform`` is checked against the analytic Drude eps(i xi) on a table
sampled from that Drude model, and against mpmath's 30-digit integral of the
same log-log interpolant (plus the Drude tail below the table) on a table
with an interband Lorentz term and on a steep one.  The Drude tail's closed
form is checked at 40 digits around its double pole xi = gamma and over
xi in [1e-8, 1e6] eV, and the multiplicative tilt factor kappa against its
defining difference at 50 digits from A = 5e-324 to the float below 1.  One
Matsubara term of the force, the v-integral that a lockstep row of the engine
returns, is checked against ``mpmath.quad`` of the kernel with eps(i xi) and
the Fresnel coefficients written out here at 20 digits; for the tabulated
model eps(i xi) is that same mpmath integral of the table's interpolant.
The l = 0 v-integral is checked against its closed form in mpmath's
polylogarithm and gamma function for every channel of constant r^2 (ideal,
Drude, dielectric), untilted and tilted, and against ``mpmath.quad`` for
plasma's TE channel, which has none.
"""
import numpy as np
import pytest

from casimir_cyl import (Dielectric, Geometry, IdealMetal, PlasmaOscillators,
                         QuadratureSpec, Tabulated, ThermalState, TiltParams,
                         casimir_core, cylinder_force, kappa, tilted_force)
from casimir_cyl.constants import HBAR_C_EV_NM
from casimir_cyl.dielectric import (Drude, OpticalTable, _drude_tail_integral, kk_transform,
                                    zero_frequency_character)
from casimir_cyl.quadrature import adaptive_quad_rows, gauss_rows
from casimir_cyl.reflection import log_r2_pair
from casimir_cyl.specfun import polylog_exp_neg

mpmath = pytest.importorskip("mpmath")

# log-spaced over the whole range, plus a dense run across 0.5-2.5, where the
# crossover sits now and where it may move
MU = np.concatenate([np.geomspace(1e-6, 45.0, 60), np.linspace(0.5, 2.5, 41)])


@pytest.mark.parametrize("s", [-0.5, 0.5, 1.5, 3.0])
def test_polylog_exp_neg_matches_mpmath(s):
    got = polylog_exp_neg(s, MU)
    with mpmath.workdps(30):
        want = [mpmath.polylog(mpmath.mpf(s), mpmath.exp(-mpmath.mpf(float(mu))))
                for mu in MU]
        rel = [abs((mpmath.mpf(float(g)) - w) / w) for g, w in zip(got, want)]
    worst = int(np.argmax([float(r) for r in rel]))
    assert float(rel[worst]) <= 1e-14, (s, MU[worst])


# permittivities from a weak dielectric to Drude gold at the first Matsubara
# frequency of micrometer separations; zeta/v from grazing to zeta = v
EPS = [1.5, 11.7, 1e2, 1e4, 1e6, 3e7]
V = np.geomspace(1e-3, 45.0, 40)
ZETA_OVER_V = [1e-3, 0.01, 0.5, 0.999, 1.0]


@pytest.mark.parametrize("eps", EPS)
def test_log_r2_pair_matches_mpmath(eps):
    v = np.repeat(V, len(ZETA_OVER_V))
    zeta = v * np.tile(ZETA_OVER_V, V.size)
    ln_tm, ln_te = log_r2_pair(v, zeta, eps)
    worst_r2 = worst_ln_tm = 0.0
    with mpmath.workdps(40):
        e = mpmath.mpf(eps)
        for vi, zi, lt, le in zip(v, zeta, ln_tm, ln_te):
            vm, zm = mpmath.mpf(float(vi)), mpmath.mpf(float(zi))
            s = mpmath.sqrt(vm * vm + (e - 1) * zm * zm)
            r2_tm = ((e * vm - s) / (e * vm + s)) ** 2
            r2_te = ((vm - s) / (vm + s)) ** 2
            lt, le = mpmath.mpf(float(lt)), mpmath.mpf(float(le))
            worst_r2 = max(worst_r2, float(abs(mpmath.exp(lt) - r2_tm)),
                           float(abs(mpmath.exp(le) - r2_te)))
            worst_ln_tm = max(worst_ln_tm, float(abs(lt - mpmath.log(r2_tm))))
    # the TE logarithm is not gated: it loses digits where |r_TE| is tiny,
    # though r_TE^2 itself, which the kernels use, does not
    assert worst_r2 <= 1e-15
    assert worst_ln_tm <= 1e-14


# imaginary frequencies (eV) from far below gamma to far above the interband term
XI = np.array([1e-3, 0.035, 0.1, 1.0, 10.0, 100.0])
OMEGA_P, GAMMA = 9.0, 0.035


def _drude_im_eps(w):
    return OMEGA_P**2 * GAMMA / (w * (w * w + GAMMA**2))


def test_kk_of_sampled_drude_matches_analytic():
    # the interpolation inside [0.5, 1e4] eV is the only error: the tail
    # below is the same Drude model and the data above add < 1e-12
    w = np.geomspace(0.5, 1e4, 400)
    got = kk_transform(OpticalTable(w, _drude_im_eps(w)), Drude(OMEGA_P, GAMMA), XI)
    want = 1.0 + OMEGA_P**2 / (XI * (XI + GAMMA))
    assert np.max(np.abs(got / want - 1.0)) <= 3e-8


def _kk_of_interpolant(w, im):
    """eps(i xi) of the table's log-log interpolant, plus the Drude tail below
    it, as mpmath integrals at the working precision; xi in eV."""
    ws = [mpmath.mpf(float(x)) for x in w]
    gs = [mpmath.mpf(float(x)) for x in im]

    def eps_of(xi):
        wp2g, g = mpmath.mpf(OMEGA_P) ** 2 * mpmath.mpf(GAMMA), mpmath.mpf(GAMMA)
        x2 = mpmath.mpf(xi) ** 2
        total = mpmath.quad(lambda o: wp2g / ((o * o + g * g) * (o * o + x2)),
                            [0, g, ws[0]])
        for w0, w1, g0, g1 in zip(ws, ws[1:], gs, gs[1:]):
            slope = mpmath.log(g1 / g0) / mpmath.log(w1 / w0)
            total += mpmath.quad(
                lambda o: o * g0 * (o / w0) ** slope / (o * o + x2), [w0, w1])
        return 1 + 2 / mpmath.pi * total
    return eps_of


def _check_against_interpolant(w, im):
    """kk_transform against mpmath's integral of the same log-log interpolant."""
    got = kk_transform(OpticalTable(w, im), Drude(OMEGA_P, GAMMA), XI)
    eps_of = _kk_of_interpolant(w, im)
    with mpmath.workdps(30):
        for xi, eps in zip(XI, got):
            want = eps_of(float(xi))
            assert float(abs(mpmath.mpf(float(eps)) / want - 1)) <= 1e-13, xi


# 40 rows of Drude plus an interband Lorentz term (20 eV^2 at 3 eV, 1 eV wide)
LORENTZ_W = np.geomspace(0.1, 100.0, 40)
LORENTZ_IM = _drude_im_eps(LORENTZ_W) + 20.0 * 1.0 * LORENTZ_W / (
    (3.0**2 - LORENTZ_W**2) ** 2 + 1.0**2 * LORENTZ_W**2)


def test_kk_matches_mpmath_integral_of_the_interpolant():
    _check_against_interpolant(LORENTZ_W, LORENTZ_IM)


def test_kk_matches_mpmath_integral_of_a_steep_interpolant():
    # 40 rows on 0.5-2 eV, each scaled by a random factor in [0.2, 5]: |slope| up to 72
    w = np.geomspace(0.5, 2.0, 40)
    _check_against_interpolant(
        w, _drude_im_eps(w) * np.random.default_rng(1).uniform(0.2, 5.0, w.size))


# xi/gamma - 1: 0 and +-1e-12 to +-1e-1 around the double pole of the tail's
# partial fractions, and xi from 1e-8 to 1e6 eV
TAIL_OFFSETS = np.array([0.0] + [s * 10.0**-k for s in (-1.0, 1.0) for k in range(1, 13)]
                        + [-0.9, -0.5000001, -0.5, 0.4999999, 0.5, 10.0])
TAIL_XI = np.concatenate([GAMMA * (1.0 + TAIL_OFFSETS), np.geomspace(1e-8, 1e6, 29)])


@pytest.mark.parametrize("omega_hi", [1e-3, 0.1, 0.5, 100.0])
def test_drude_tail_near_gamma_matches_mpmath(omega_hi):
    got = _drude_tail_integral(Drude(OMEGA_P, GAMMA), omega_hi, TAIL_XI)
    with mpmath.workdps(40):
        wp2g, g = mpmath.mpf(OMEGA_P) ** 2 * mpmath.mpf(GAMMA), mpmath.mpf(GAMMA)
        top = mpmath.mpf(omega_hi)
        for x, v in zip(TAIL_XI, got):
            xm = mpmath.mpf(float(x))
            # split at both peaks of the integrand, omega = xi and omega = gamma
            cuts = sorted(c for c in {xm, g} if c < top)
            want = 2 / mpmath.pi * mpmath.quad(
                lambda o: wp2g / ((o * o + g * g) * (o * o + xm * xm)), [0, *cuts, top])
            assert float(abs(mpmath.mpf(float(v)) / want - 1)) <= 1e-15, x


def _kappa_of(a_theta: float):
    """(1/(5A)) [(1-A)^{-5/2} - (1+A)^{-5/2}] at 50 digits, plus the -log10 A
    digits its difference cancels."""
    with mpmath.workdps(55 + int(-np.log10(a_theta))):
        A = mpmath.mpf(a_theta)
        return +(((1 - A) ** mpmath.mpf(-2.5) - (1 + A) ** mpmath.mpf(-2.5)) / (5 * A))


# from the smallest subnormal to the largest float below 1: a log grid, the
# Taylor cut kappa once had at A = 1e-3 and its neighbouring floats, a linear
# grid, and a dense run of 1 - A down to one ulp
KAPPA_A = np.concatenate([
    [5e-324, 1e-320], np.geomspace(1e-300, 0.9, 120),
    [np.nextafter(1e-3, 0.0), 1e-3, np.nextafter(1e-3, 1.0)], np.linspace(0.01, 0.99, 99),
    1.0 - np.geomspace(1e-16, 0.1, 120), [np.nextafter(1.0, 0.0)]])


def test_kappa_matches_mpmath():
    for a_theta in KAPPA_A:
        want = _kappa_of(float(a_theta))
        got = mpmath.mpf(kappa(float(a_theta)))
        assert float(abs(got / want - 1)) <= 2e-15, a_theta


# eps(i xi) of each model, xi in eV; the ideal metal has r_TM^2 = r_TE^2 = 1
TERM_MODELS = {
    "ideal": (IdealMetal(), None),
    "drude": (Drude(OMEGA_P, GAMMA), lambda xi: 1 + OMEGA_P**2 / (xi * (xi + GAMMA))),
    "plasma": (PlasmaOscillators(omega_p=OMEGA_P), lambda xi: 1 + OMEGA_P**2 / xi**2),
    "dielectric": (Dielectric(eps0=11.7), lambda xi: mpmath.mpf(11.7)),
    # the Lorentz table above; the Matsubara xi of l = 1 and 10 lie inside it
    "tabulated": (Tabulated(OpticalTable(LORENTZ_W, LORENTZ_IM), Drude(OMEGA_P, GAMMA)),
                  _kk_of_interpolant(LORENTZ_W, LORENTZ_IM)),
}
TERM_A_NM = 150.0


def _force_term(zeta: float, eps_of, a_theta: float):
    """int_zeta^inf dv v**1.5 [Li_1/2(r_TM^2 e^-v) + Li_1/2(r_TE^2 e^-v)] at 20 digits.

    A tilt averages e^-v over the length, e^-v(1 - A t) for t in [-1, 1], which
    turns each Li_1/2(r^2 e^-v) into
    [Li_3/2(r^2 e^-v(1-A)) - Li_3/2(r^2 e^-v(1+A))] / (2 A v).
    """
    with mpmath.workdps(20):
        z = mpmath.mpf(zeta)
        eps = None if eps_of is None else eps_of(z * HBAR_C_EV_NM / (2 * TERM_A_NM))
        A = mpmath.mpf(a_theta)

        def kernel(v):
            if eps is None:
                r2 = (1, 1)
            else:
                s = mpmath.sqrt(v * v + (eps - 1) * z * z)
                r2 = (((eps * v - s) / (eps * v + s)) ** 2, ((v - s) / (v + s)) ** 2)
            if a_theta == 0.0:
                return v**1.5 * sum(mpmath.polylog(0.5, r * mpmath.exp(-v)) for r in r2)
            return v**0.5 / (2 * A) * sum(mpmath.polylog(1.5, r * mpmath.exp(-v * (1 - A)))
                                          - mpmath.polylog(1.5, r * mpmath.exp(-v * (1 + A)))
                                          for r in r2)
        return mpmath.quad(kernel, [z, z + 1, z + 10, mpmath.inf])


@pytest.mark.parametrize("name, a_theta", [("ideal", 0.0), ("drude", 0.0), ("plasma", 0.0),
                                           ("dielectric", 0.0), ("drude", 0.5),
                                           ("tabulated", 0.0), ("ideal", 0.9),
                                           ("plasma", 0.5)])
def test_matsubara_term_matches_mpmath(monkeypatch, name, a_theta):
    # the engine's rows l = 1 and l = 10 of a 300 K force at 150 nm, captured
    # as the lockstep adaptive quadrature (untilted) or the Gauss ladder in w
    # (tilted) returns them; the ideal metal and the dielectric integrate
    # these rows directly only where their pieces of ln I are refused
    monkeypatch.setattr(casimir_core, "_row_piece", lambda *args: None)
    seen = []

    def capture(zetas, rows):
        for zeta, row in zip(np.asarray(zetas).tolist(), rows):
            seen.append((zeta, row))
            yield row

    def rows(f, a, b, **kw):
        return capture(a, adaptive_quad_rows(f, a, b, **kw))

    def w_rows(f, zetas, *args):
        return capture(zetas, gauss_rows(f, zetas, *args))
    monkeypatch.setattr(casimir_core, "adaptive_quad_rows", rows)
    monkeypatch.setattr(casimir_core, "gauss_rows", w_rows)
    model, eps_of = TERM_MODELS[name]
    geom = Geometry(a=TERM_A_NM * 1e-9, R=100e-6, L=100e-6)
    thermal = ThermalState.at(300.0, geom)
    quad = QuadratureSpec()
    if a_theta == 0.0:
        cylinder_force(geom, thermal, model, quad)
    else:
        tilted_force(geom, thermal, model, TiltParams.from_a_theta(a_theta, geom), quad)
    for l in (1, 10):
        zeta, (got, err) = seen[l - 1]
        assert zeta == casimir_core._tau(300.0, geom.a) * l
        want = _force_term(zeta, eps_of, a_theta)
        true_err = float(abs(mpmath.mpf(got) - want))
        # the row's own estimate covers its error, and the error is inside
        # the 0.1 rel_tol that each row is held to
        assert true_err <= err, (l, true_err, err)
        assert true_err <= 0.1 * quad.rel_tol * float(want), (l, true_err)


@pytest.mark.parametrize("name, a_theta", [("ideal", 0.0), ("dielectric", 0.0),
                                           ("ideal", 0.9), ("dielectric", 0.5)])
def test_piece_rows_match_mpmath(monkeypatch, name, a_theta):
    # rows l = 1 and l = 10 of the same force, read from pieces of ln I, are
    # inside the 0.1 rel_tol each integrated row is held to
    seen = []
    reduce = casimir_core.matsubara_reduce

    def observed(block_integrals, *args):
        def block(l0, count):
            rows = list(block_integrals(l0, count))
            seen.extend(rows)
            return rows
        return reduce(block, *args)
    monkeypatch.setattr(casimir_core, "matsubara_reduce", observed)
    model, eps_of = TERM_MODELS[name]
    geom = Geometry(a=TERM_A_NM * 1e-9, R=100e-6, L=100e-6)
    quad = QuadratureSpec()
    tilted_force(geom, ThermalState.at(300.0, geom), model, TiltParams(a_theta), quad)
    for l in (1, 10):
        want = _force_term(casimir_core._tau(300.0, geom.a) * l, eps_of, a_theta)
        true_err = float(abs(mpmath.mpf(seen[l - 1]) - want))
        assert true_err <= 0.1 * quad.rel_tol * float(want), (l, true_err)


# The l = 0 v-integral has a closed form for every channel of constant r^2:
# int_0^inf v**p Li_s(r^2 e^-v) dv = Gamma(p + 1) Li_{s+p+1}(r^2), and with the
# tilt's length average Gamma(p)/(2A) Li_{s+p+1}(r^2) [(1 - A)^-p - (1 + A)^-p].
# r^2 is formed here from the model: 1 for each metal channel, and
# ((eps0 - 1)/(eps0 + 1))^2 for the dielectric's TM channel.
ZERO_FREQ_R2 = {
    "ideal": (IdealMetal(), lambda: (1, 1)),
    "drude": (Drude(OMEGA_P, GAMMA), lambda: (1,)),
    "dielectric": (Dielectric(eps0=11.7), lambda: ((mpmath.mpf("10.7") / mpmath.mpf("12.7")) ** 2,)),
}
# (p, s) of the force, gradient and plate-pressure kernels
ZERO_FREQ_KERNELS = {"force": (1.5, 0.5), "gradient": (2.5, -0.5), "pressure": (2.0, 0.0)}


def _zero_freq_term(model, a_nm: float, kernel: str, a_theta: float, rel_tol: float) -> float:
    p, s = ZERO_FREQ_KERNELS[kernel]
    behavior = zero_frequency_character(model, a_nm * 1e-9)
    return casimir_core._zero_freq_term.__wrapped__(behavior, p, s, a_theta, rel_tol)


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-12])
@pytest.mark.parametrize("a_theta", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("kernel", list(ZERO_FREQ_KERNELS))
@pytest.mark.parametrize("name", list(ZERO_FREQ_R2))
def test_zero_freq_term_matches_closed_form(name, kernel, a_theta, rel_tol):
    model, r2 = ZERO_FREQ_R2[name]
    got = _zero_freq_term(model, TERM_A_NM, kernel, a_theta, rel_tol)
    p, s = (mpmath.mpf(x) for x in ZERO_FREQ_KERNELS[kernel])
    with mpmath.workdps(30):
        li = sum(mpmath.polylog(s + p + 1, r) for r in r2())
        if a_theta == 0.0:
            want = mpmath.gamma(p + 1) * li
        else:
            A = mpmath.mpf(a_theta)
            want = mpmath.gamma(p) / (2 * A) * li * ((1 - A) ** -p - (1 + A) ** -p)
        rel = float(abs(mpmath.mpf(got) / want - 1))
    assert rel <= 1e-14, rel


# alpha = delta_0/(2a) = 0.073: the separation at which the plasma TE channel,
# r_TE^2 = (sqrt(1 + (alpha v)^2) - alpha v)^4, has no closed form
PLASMA_ALPHA = 0.073
PLASMA_A_NM = HBAR_C_EV_NM / OMEGA_P / (2.0 * PLASMA_ALPHA)


@pytest.mark.parametrize("kernel, a_theta", [("force", 0.0), ("gradient", 0.0), ("force", 0.5)])
def test_plasma_zero_freq_term_matches_mpmath(kernel, a_theta):
    got = _zero_freq_term(PlasmaOscillators(omega_p=OMEGA_P), PLASMA_A_NM, kernel,
                          a_theta, 1e-12)
    with mpmath.workdps(20):
        p, s = (mpmath.mpf(x) for x in ZERO_FREQ_KERNELS[kernel])
        A = mpmath.mpf(a_theta)
        alpha = HBAR_C_EV_NM / OMEGA_P / (2 * mpmath.mpf(PLASMA_A_NM))

        def kernel_of(v):
            r2 = (1, (mpmath.sqrt(1 + (alpha * v) ** 2) - alpha * v) ** 4)
            if a_theta == 0.0:
                return v**p * sum(mpmath.polylog(s, r * mpmath.exp(-v)) for r in r2)
            return v**(p - 1) / (2 * A) * sum(
                mpmath.polylog(s + 1, r * mpmath.exp(-v * (1 - A)))
                - mpmath.polylog(s + 1, r * mpmath.exp(-v * (1 + A))) for r in r2)
        want = mpmath.quad(kernel_of, [0, 1, 10, mpmath.inf])
        rel = float(abs(mpmath.mpf(got) / want - 1))
    assert rel <= 1e-14, rel
