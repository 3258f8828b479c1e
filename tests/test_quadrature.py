"""Quadrature driver checks against known integrals."""
import dataclasses
import math

import numpy as np
import pytest

from casimir_cyl import quadrature
from casimir_cyl.quadrature import (ConvergenceError, QuadratureSpec, adaptive_quad,
                                   adaptive_quad_rows, gauss_legendre)


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


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                                  (-math.inf, 0.0)])
def test_non_finite_limits_raise(a, b):
    # NaN once read as an empty interval, inf leaked a numpy RuntimeWarning
    with pytest.raises(ValueError, match="limits must be finite"):
        adaptive_quad(np.exp, a, b)
    with pytest.raises(ValueError, match="limits must be finite"):
        adaptive_quad_rows(lambda x, row: np.exp(x), [0.0, a], [1.0, b])
    # among many rows the message names the first bad one, not whole arrays
    lo, hi = np.zeros(1000), np.ones(1000)
    lo[700], hi[700] = a, b
    hi[900] = 0.0
    with pytest.raises(ValueError, match=r"\(row 700\)$") as info:
        adaptive_quad_rows(lambda x, row: np.exp(x), lo, hi)
    assert len(str(info.value)) < 100 and "\n" not in str(info.value)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=1e-3)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    # below 1e-12 the finite-T rows ask past what the K15/G7 constants report
    for tiny in (1e-13, 5e-324):
        with pytest.raises(ValueError, match="rel_tol"):
            QuadratureSpec(rel_tol=tiny)
    assert QuadratureSpec(rel_tol=1e-12).rel_tol == 1e-12
    # rel_tol is the one setting; the truncation policy is the engine's
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["rel_tol"]
    assert QuadratureSpec().rel_tol == 1e-9


def test_oscillatory_failure_raises(monkeypatch):
    # a panel budget too small for a nasty integrand must raise, not lie
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
    with pytest.raises(ConvergenceError):
        adaptive_quad(lambda x: np.sin(1e4 * x), 0.0, 1.0, rel_tol=1e-12,
                      initial_panels=2)


def test_nan_integrand_raises():
    # NaN everywhere, then NaN on [0.7, 1] only: a NaN estimate marks no
    # panel, so the first level is the only one
    for nan_from in (0.0, 0.7):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.where(x < nan_from, x, np.nan)
        with pytest.raises(ConvergenceError):
            adaptive_quad(f, 0.0, 1.0)
        assert len(calls) == 1


def test_scalar_result_bits_pinned():
    # the scalar path is the one-row case of the lockstep one and must keep
    # its bits: Gamma(7/2) and its error estimate as first computed
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


def test_vector_rows_meet_their_own_tolerance():
    # lockstep rows, each held to rel_tol of its own total
    rel_tol = 1e-11
    p, c, k = (np.array(col) for col in zip(*_ROWS))
    rows = adaptive_quad_rows(lambda v, row: k[row] * v**p[row] * np.exp(-c[row] * v),
                              np.zeros(len(_ROWS)), np.full(len(_ROWS), 90.0),
                              rel_tol=rel_tol)
    val, err = np.array(list(rows)).T
    # int_0^inf v^p e^-cv dv = Gamma(p + 1) / c^(p + 1); the tail past 90 is
    # below 1e-25 relative for every row
    exact = np.array([k * math.gamma(p + 1.0) / c**(p + 1.0) for p, c, k in _ROWS])
    assert np.all(np.abs(val / exact - 1.0) <= rel_tol)
    assert np.all(err <= rel_tol * np.abs(val))


# (limit a, limit b, p, c): rows v**p exp(-c v) on [a, b]; from two levels
# deep (smooth, short) to many (sqrt endpoint, sharp decay)
_LOCKSTEP = ((0.0, 1.0, 0.5, 0.0), (2.0, 47.0, 1.5, 1.0), (0.3, 0.31, 2.0, 0.0),
             (5.0, 95.0, 2.5, 0.2), (0.0, 60.0, 0.0, 40.0), (1.0, 46.0, -0.5, 1.0))


def _lockstep_row(v, p, c):
    return v**p * np.exp(-c * v)


def test_lockstep_rows_match_scalar_calls_bit_for_bit():
    a, b, p, c = (np.array(col) for col in zip(*_LOCKSTEP))
    calls = []

    def f(v, row):
        calls.append(v.size)
        return _lockstep_row(v, p[row], c[row])
    rows = list(adaptive_quad_rows(f, a, b, rel_tol=1e-11, initial_panels=4))
    levels = []
    for (lo, hi, pi, ci), (val, err) in zip(_LOCKSTEP, rows):
        single = []

        def g(v):
            single.append(v.size)
            return _lockstep_row(v, pi, ci)
        ref = adaptive_quad(g, lo, hi, rel_tol=1e-11, initial_panels=4)
        assert isinstance(val, float) and isinstance(err, float)
        assert (val.hex(), err.hex()) == (ref[0].hex(), ref[1].hex())
        levels.append(len(single))
    # one integrand call per level of the deepest row, however many rows
    assert len(calls) == max(levels) and min(levels) < max(levels)


# (a, b, integrand): rows that finish after one level (NaN, smooth and short),
# run out of panels (oscillatory), or take many levels (endpoint singularities)
_MIXED = ((0.0, 1.0, np.sqrt), (2.0, 47.0, lambda v: v**1.5 * np.exp(-v)),
          (0.0, 2.0, lambda v: np.full_like(v, np.nan)), (0.3, 0.31, lambda v: v * v),
          (0.0, 1.0, lambda v: np.sin(1e4 * v)), (1.0, 46.0, lambda v: np.exp(-v) / np.sqrt(v)),
          (0.0, 60.0, lambda v: np.exp(-40.0 * v)), (0.0, 3.0, lambda v: v**0.25))


def test_lockstep_mixed_rows_match_lone_calls_bit_for_bit(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
    a, b, funcs = (np.array(col) for col in zip(*_MIXED))
    kw = dict(rel_tol=1e-11, initial_panels=4)
    calls = []

    def f(v, row):
        calls.append(np.bincount(row, minlength=len(funcs)) // 15)
        out = np.empty_like(v)
        for i, g in enumerate(funcs):
            out[row == i] = g(v[row == i])
        return out
    total, err = quadrature._refine(f, a, b, **kw)
    pending = np.array(calls)  # pending panels per row and level
    for i, (lo, hi, g) in enumerate(_MIXED):
        try:
            want = adaptive_quad(g, lo, hi, **kw)
        except ConvergenceError:
            # the lone call fails too: compare the numbers it failed on
            want = quadrature._refine(lambda v, _: g(v), a[i:i + 1], b[i:i + 1], **kw)[:, 0]
        assert (total[i].hex(), err[i].hex()) == tuple(float(x).hex() for x in want)
    # the public iterator: rows before the NaN row come out, the NaN row raises
    rows = adaptive_quad_rows(f, a, b, **kw)
    for i in range(2):
        assert next(rows) == (total[i], err[i])
    with pytest.raises(ConvergenceError, match="row 2"):
        next(rows)
    # the rows really did differ within a level, in pending and in total
    # panel counts; the NaN row stopped after one level, and the oscillatory
    # one on the panel budget while others went on
    totals = 4 + np.cumsum(np.vstack([np.zeros_like(pending[0]), pending[1:] // 2]), axis=0)
    live = pending > 0
    assert any(len(set(p[on])) > 1 for p, on in zip(pending, live))
    assert any(len(set(t[on])) > 1 for t, on in zip(totals, live))
    assert live[:, 2].sum() == 1
    assert totals[live[:, 4], 4].max() >= 64 and live[:, 4].sum() < len(live)


@pytest.mark.parametrize("bad_row", ["nan", "oscillatory"])
def test_lockstep_failed_row_raises_naming_it(bad_row, monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)

    def f(x, row):
        bad = (np.full_like(x, np.nan) if bad_row == "nan" else np.sin(1e4 * x))
        return np.where(row == 2, bad, np.exp(-x))
    rows = adaptive_quad_rows(f, np.zeros(4), np.ones(4), rel_tol=1e-12)
    # rows before the failed one come out; the failure surfaces at its row
    for _ in range(2):
        val, _ = next(rows)
        assert val == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    with pytest.raises(ConvergenceError, match="row 2"):
        next(rows)


def test_lockstep_zero_rows_never_calls_the_integrand():
    def f(x, row):
        raise AssertionError("integrand called")
    assert list(adaptive_quad_rows(f, [], [])) == []


def test_lockstep_rejects_empty_row():
    with pytest.raises(ValueError):
        adaptive_quad_rows(lambda x, row: x, [0.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("n", [1, 2, 4, 5, 8, 40, 64, 128])
def test_gauss_legendre_matches_mpmath(n):
    # nodes are the roots of P_n and weights 2/((1 - x^2) P_n'(x)^2), both
    # from 40-digit Newton iterates of P_n
    import mpmath
    x, w = gauss_legendre(n)
    assert x.flags.writeable is False and w.flags.writeable is False
    with mpmath.workdps(40):
        for xi, wi in zip(x.tolist(), w.tolist()):
            root = mpmath.mpf(xi)
            for _ in range(4):
                dp = n * (root * mpmath.legendre(n, root) - mpmath.legendre(n - 1, root)) / (
                    root * root - 1)
                root -= mpmath.legendre(n, root) / dp
            assert abs(xi - float(root)) <= 2e-16
            assert abs(wi / float(2 / ((1 - root * root) * dp * dp)) - 1.0) <= 1e-13


def test_gauss_legendre_is_exact_to_degree_2n_minus_1():
    x, w = gauss_legendre(12)
    for k in range(24):
        assert math.isclose(float(w @ x**k), (1.0 + (-1.0)**k) / (k + 1),
                            rel_tol=1e-14, abs_tol=1e-15)
    assert gauss_legendre(12) is gauss_legendre(12)
    with pytest.raises(ValueError):
        gauss_legendre(0)
