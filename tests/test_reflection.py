"""Reflection coefficients: the scalar oracle's hand values and limits, and the
engine's stable exponent forms checked against it."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_cyl.casimir_core import _li_finite
from casimir_cyl.dielectric import (Dielectric, IdealMetal, PlasmaOscillators,
                                    ZeroFreqBehavior, gold_drude,
                                    zero_frequency_character)
from casimir_cyl.reflection import log_r2_pair, zero_frequency_mu_terms
from reflection_oracle import (DimensionlessPoint, ReflectionPair, fresnel,
                               plasma_separation, zero_frequency_pair)

PLASMA = PlasmaOscillators(omega_p=9.0)


def test_static_limit_dielectric():
    pair = fresnel(DimensionlessPoint(v=1.7, zeta=0.0), eps_l=3.0)
    assert pair.r_tm == pytest.approx(0.5, rel=1e-15)
    assert pair.r_te == 0.0


def test_ideal_metal_limit():
    pair = fresnel(DimensionlessPoint(v=1.0, zeta=0.5), eps_l=1e12)
    assert pair.r_tm == pytest.approx(1.0, abs=1e-5)
    assert pair.r_te == pytest.approx(-1.0, abs=1e-5)


def test_normal_incidence_edge_hand_value():
    # v = zeta, eps = 2: s = zeta sqrt(2), r_tm = (2 - sqrt2)/(2 + sqrt2)
    v = 0.83
    pair = fresnel(DimensionlessPoint(v=v, zeta=v), eps_l=2.0)
    want_tm = (2.0 - math.sqrt(2.0)) / (2.0 + math.sqrt(2.0))
    want_te = -(3.0 - 2.0 * math.sqrt(2.0))
    assert pair.r_tm == pytest.approx(want_tm, rel=1e-14)
    assert pair.r_te == pytest.approx(want_te, rel=1e-14)


def test_eps_below_one_rejected():
    with pytest.raises(ValueError):
        fresnel(DimensionlessPoint(v=1.0, zeta=0.0), eps_l=0.5)


def test_point_invariant():
    with pytest.raises(ValueError):
        DimensionlessPoint(v=0.5, zeta=1.0)
    with pytest.raises(ValueError):
        DimensionlessPoint(v=1.0, zeta=-0.1)


def test_pair_bounds_enforced():
    with pytest.raises(ValueError):
        ReflectionPair(r_tm=1.2, r_te=0.0)


def test_zero_frequency_pairs():
    assert zero_frequency_pair(IdealMetal(), 500e-9, 2.0) == ReflectionPair(1.0, -1.0)
    assert zero_frequency_pair(gold_drude(), 500e-9, 5.0) == ReflectionPair(1.0, 0.0)
    assert zero_frequency_pair(Dielectric(eps0=3.0), 500e-9, 1.0) == \
        ReflectionPair(0.5, 0.0)


def test_plasma_zero_frequency_limits():
    a = plasma_separation(alpha=1.0)
    # v -> 0 recovers the perfect TE reflection
    assert zero_frequency_pair(PLASMA, a, 1e-9).r_te == pytest.approx(-1.0, abs=1e-8)
    # alpha v = 1 hand value: -(1 - sqrt2)^2 = -(3 - 2 sqrt2)
    assert zero_frequency_pair(PLASMA, a, 1.0).r_te == pytest.approx(
        -(3.0 - 2.0 * math.sqrt(2.0)), rel=1e-14)


def test_plasma_te_monotone_to_zero():
    a = plasma_separation(alpha=1.0)
    vs = np.geomspace(1e-4, 1e4, 60)
    vals = np.array([zero_frequency_pair(PLASMA, a, float(v)).r_te for v in vs])
    assert np.all(np.diff(vals) > 0.0)
    assert vals[0] < -0.999
    assert vals[-1] > -1e-6


def test_fresnel_zero_matches_dielectric_path():
    # the two code paths at zeta = 0 agree to 1e-14
    for eps in (1.5, 3.0, 11.0):
        for v in (0.2, 1.0, 7.5):
            via_fresnel = fresnel(DimensionlessPoint(v=v, zeta=0.0), eps)
            via_zero = zero_frequency_pair(Dielectric(eps0=eps), 500e-9, v)
            assert via_fresnel.r_tm == pytest.approx(via_zero.r_tm, abs=1e-14)
            assert via_fresnel.r_te == pytest.approx(via_zero.r_te, abs=1e-14)


def test_te_power_expansion_small_alpha():
    # r_TE^{2n}(0,v) = 1 - 4 n v alpha + 8 n^2 v^2 alpha^2 + O(alpha^3)
    alpha, v = 1e-4, 1.0
    r_te = zero_frequency_pair(PLASMA, plasma_separation(alpha), v).r_te
    for n in (1, 2, 5):
        exact = r_te ** (2 * n)
        expanded = 1.0 - 4.0 * n * v * alpha + 8.0 * n**2 * v**2 * alpha**2
        # residual must be cubic in alpha, with an O(n^3) coefficient
        assert abs(exact - expanded) < 100.0 * n**3 * (v * alpha)**3


def test_log_r2_pair_matches_fresnel():
    v, zeta, eps = 1.3, 0.9, 40.0
    pair = fresnel(DimensionlessPoint(v=v, zeta=zeta), eps)
    ln_rtm2, ln_rte2 = log_r2_pair(np.array([v]), np.array([zeta]), eps)
    assert ln_rtm2[0] == pytest.approx(math.log(pair.r_tm**2), rel=1e-12)
    assert ln_rte2[0] == pytest.approx(math.log(pair.r_te**2), rel=1e-12)


@pytest.mark.parametrize("model,a", [(IdealMetal(), 500e-9), (gold_drude(), 500e-9),
                                     (Dielectric(eps0=3.0), 500e-9),
                                     (PLASMA, plasma_separation(0.01)),
                                     (PLASMA, plasma_separation(3.0))],
                         ids=["ideal", "drude", "dielectric", "plasma_weak", "plasma_strong"])
def test_zero_frequency_mu_terms_match_oracle(model, a):
    # one exponent v - ln r^2 per channel that survives at zero frequency
    vs = np.geomspace(1e-3, 40.0, 25)
    mus = zero_frequency_mu_terms(zero_frequency_character(model, a), vs)
    for i, v in enumerate(vs):
        pair = zero_frequency_pair(model, a, float(v))
        want = [v - math.log(r * r) for r in (pair.r_tm, pair.r_te) if r != 0.0]
        assert [mu[i] for mu in mus] == pytest.approx(want, rel=1e-13)


def test_zero_frequency_mu_rows_follow_the_record():
    # one row per log_r2 entry in its order, then the plasma TE row; an r^2 = 1
    # channel's row is v itself, bit for bit
    v = np.geomspace(1e-3, 40.0, 7)
    mus = zero_frequency_mu_terms(ZeroFreqBehavior((0.0, -0.5), alpha=0.2), v)
    assert mus.shape == (3, 7)
    assert mus[0].tobytes() == v.tobytes()
    assert mus[1].tobytes() == (v + 0.5).tobytes()
    assert mus[2].tobytes() == (v + 4.0 * np.arcsinh(0.2 * v)).tobytes()


def test_log_r2_pair_te_zero_is_silent_minus_inf():
    # (eps - 1) zeta**2 below the rounding of v**2, as at the first T = 0 outer
    # nodes: s rounds to v, r_TE = 0, and its polylog term drops out of the kernel
    v, zeta, eps = np.array([1.0]), 1e-12, 11.7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ln_rtm2, ln_rte2 = log_r2_pair(v, zeta, eps)
        kernel = _li_finite(v, zeta, eps, 1.5, 0.5, 0.0)
    assert ln_rte2[0] == -math.inf
    assert ln_rtm2[0] == pytest.approx(2.0 * math.log((eps - 1.0) / (eps + 1.0)), rel=1e-12)
    assert np.all(np.isfinite(kernel))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.floats(min_value=1e-3, max_value=50.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1.0, max_value=1e8))
def test_bounds_and_signs(v, frac, eps):
    pair = fresnel(DimensionlessPoint(v=v, zeta=frac * v), eps)
    assert 0.0 <= pair.r_tm <= 1.0
    assert -1.0 <= pair.r_te <= 0.0
