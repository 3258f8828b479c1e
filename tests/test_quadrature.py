"""Quadrature driver checks against known integrals."""
import math

import numpy as np
import pytest

from casimir_cyl.quadrature import ConvergenceError, QuadratureSpec, adaptive_quad


def test_gamma_integral():
    # int_0^inf v^{5/2} e^-v dv = Gamma(7/2)
    val, err = adaptive_quad(lambda v: v**2.5 * np.exp(-v), 0.0, 60.0,
                             rel_tol=1e-12)
    assert val == pytest.approx(math.gamma(3.5), rel=1e-12)


def test_arctan_integral():
    val, _ = adaptive_quad(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0, rel_tol=1e-13)
    assert val == pytest.approx(math.pi, rel=1e-13)


def test_endpoint_derivative_singularity():
    # sqrt(x) has unbounded derivatives at 0; adaptivity must still converge
    val, _ = adaptive_quad(np.sqrt, 0.0, 1.0, rel_tol=1e-10)
    assert val == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_empty_interval():
    assert adaptive_quad(np.sqrt, 1.0, 1.0) == (0.0, 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=1e-3)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    for bad in (0, math.nan, 2.5):
        with pytest.raises(ValueError, match="max_terms"):
            QuadratureSpec(max_terms=bad)
    assert QuadratureSpec(max_terms=1).max_terms == 1
    spec = QuadratureSpec()
    assert spec.rel_tol == 1e-9
    assert spec.v_span() >= 45.0


def test_v_span_covers_envelope():
    spec = QuadratureSpec()
    cut = spec.v_span()
    assert cut**2.5 * math.exp(-cut) < spec.rel_tol * 1e-4


def test_oscillatory_failure_raises():
    # a panel budget too small for a nasty integrand must raise, not lie
    with pytest.raises(ConvergenceError):
        adaptive_quad(lambda x: np.sin(1e4 * x), 0.0, 1.0, rel_tol=1e-12,
                      max_panels=4, initial_panels=2)


def test_nan_integrand_raises():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.full_like(x, np.nan)
    with pytest.raises(ConvergenceError):
        adaptive_quad(f, 0.0, 1.0)
    assert len(calls) <= 2


def test_scalar_result_bits_pinned():
    # the scalar path is the single-row case of the vector-valued one and
    # must keep its bits: Gamma(7/2) and its error estimate as first computed
    val, err = adaptive_quad(lambda v: v**2.5 * np.exp(-v), 0.0, 60.0,
                             rel_tol=1e-12)
    assert isinstance(val, float) and isinstance(err, float)
    assert (val.hex(), err.hex()) == ("0x1.a96390899a05ep+1",
                                      "0x1.827ece884d5a4p-41")
    val, err = adaptive_quad(np.sqrt, 0.0, 1.0, rel_tol=1e-10)
    assert (val.hex(), err.hex()) == ("0x1.555555555a518p-1",
                                      "0x1.599741f835000p-35")


# (p, c, scale): rows scale * v**p exp(-c v), from 1e-20 to 1e20 in size
_ROWS = ((0.5, 1.0, 1.0), (2.5, 1.0, 1e-20), (4.0, 3.0, 1e20),
         (1.0, 40.0, 1.0), (3.0, 0.8, 1e-3), (0.0, 200.0, 1e5))


def _rows(v: np.ndarray) -> np.ndarray:
    return np.array([k * v**p * np.exp(-c * v) for p, c, k in _ROWS])


def test_vector_rows_meet_their_own_tolerance():
    rel_tol = 1e-11
    val, err = adaptive_quad(_rows, 0.0, 90.0, rel_tol=rel_tol)
    assert val.shape == err.shape == (len(_ROWS),)
    # int_0^inf v^p e^-cv dv = Gamma(p + 1) / c^(p + 1); the tail past 90 is
    # below 1e-25 relative for every row
    exact = np.array([k * math.gamma(p + 1.0) / c**(p + 1.0) for p, c, k in _ROWS])
    assert np.all(np.abs(val / exact - 1.0) <= rel_tol)
    assert np.all(err <= rel_tol * np.abs(val))


def test_vector_rows_match_scalar_integrals():
    val, _ = adaptive_quad(_rows, 0.0, 90.0, rel_tol=1e-10)
    for i, (p, c, k) in enumerate(_ROWS):
        one, _ = adaptive_quad(lambda v: k * v**p * np.exp(-c * v), 0.0, 90.0,
                               rel_tol=1e-10)
        assert val[i] == pytest.approx(one, rel=1e-10)


def test_vector_oscillatory_row_raises():
    # one smooth row converges; the oscillatory one stalls on the panel budget
    def f(x):
        return np.array([np.exp(-x), np.sin(1e4 * x)])
    with pytest.raises(ConvergenceError, match="row 1"):
        adaptive_quad(f, 0.0, 1.0, rel_tol=1e-12, max_panels=64)
    val, _ = adaptive_quad(lambda x: np.array([np.exp(-x)]), 0.0, 1.0,
                           rel_tol=1e-12, max_panels=64)
    assert val[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


def test_vector_nan_row_raises():
    def f(x):
        return np.array([np.exp(-x), np.full_like(x, np.nan), x * x])
    with pytest.raises(ConvergenceError, match="row 1"):
        adaptive_quad(f, 0.0, 1.0)
