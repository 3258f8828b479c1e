r"""Real-order polylogarithms on [0, 1) and the Riemann zeta function.

The force and gradient integrands need :math:`\mathrm{Li}_s(x)` for
:math:`s \in \{-1/2,\, 1/2,\, 3/2,\, 3\}` with arguments of the form
:math:`r^2 e^{-v}` that approach 1 near the lower integration limits.  Two
regimes are used:

* direct series :math:`\sum_{n\ge1} x^n/n^s` for ``x <= exp(-1/2)``,
* the small-:math:`\mu` expansion about :math:`x = e^{-\mu} \to 1`,

  .. math::
     \mathrm{Li}_s(e^{-\mu}) = \Gamma(1-s)\,\mu^{s-1}
       + \sum_{k\ge0} \zeta(s-k)\,\frac{(-\mu)^k}{k!}

  for non-integer ``s`` (positive integer ``s`` uses the variant in which the
  ``k = s-1`` term is replaced by ``(H_{s-1} - ln(mu)) mu^(s-1)/(s-1)!``).

All zeta values are computed at first use with Borwein's alternating-series
algorithm (plus the reflection formula for arguments below 1/2); no external
table is required.  Everything is pure and deterministic: a given ``(s, x)``
always produces the identical float, whether evaluated alone or in a batch.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["polylog", "polylog_exp_neg", "riemann_zeta", "ZETA_3"]

ZETA_3 = 1.2020569031595943  # Apery's constant zeta(3)

# crossover between the direct series and the small-mu expansion
X_CROSS = math.exp(-0.5)
_MU_CROSS = 0.5
_EXPANSION_TERMS = 30
_BORWEIN_N = 40


def _borwein_eta(s: float) -> float:
    """Dirichlet eta(s) by Borwein's algorithm; accurate for s >= 1/2."""
    n = _BORWEIN_N
    d = np.empty(n + 1)
    ti = 1.0 / n                      # (n+i-1)! 4^i / ((n-i)! (2i)!) at i = 0
    acc = ti
    d[0] = n * acc
    for i in range(1, n + 1):
        ti *= 4.0 * (n + i - 1) * (n - i + 1) / ((2 * i) * (2 * i - 1))
        acc += ti
        d[i] = n * acc
    coeff = (d[:n] - d[n]) / d[n]
    k = np.arange(1.0, n + 1.0)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return -float(np.sum(signs * coeff / k**s))


def riemann_zeta(s: float) -> float:
    """Riemann zeta at real s != 1 (reflection formula below s = 1/2)."""
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"zeta argument must be finite, got {s}")
    if s == 1.0:
        raise ValueError("zeta(s) has a pole at s = 1")
    if s >= 0.5:
        return _borwein_eta(s) / (1.0 - 2.0 ** (1.0 - s))
    if s == 0.0:
        return -0.5
    if s < 0.0 and s == math.floor(s) and int(s) % 2 == 0:
        return 0.0  # trivial zeros
    return (2.0**s * math.pi ** (s - 1.0) * math.sin(math.pi * s / 2.0)
            * math.gamma(1.0 - s) * riemann_zeta(1.0 - s))


_zeta_tables: dict[float, np.ndarray] = {}


def _zeta_table(s: float) -> np.ndarray:
    """zeta(s - k) for k = 0..K; the (unused) s-k == 1 slot is parked at 0."""
    tab = _zeta_tables.get(s)
    if tab is None:
        tab = np.array([riemann_zeta(s - k) if s - k != 1.0 else 0.0
                        for k in range(_EXPANSION_TERMS + 1)])
        _zeta_tables[s] = tab
    return tab


def _series_terms(s: float, x: np.ndarray) -> np.ndarray:
    """Per-element term counts putting the series tail below 1e-16 of the x^1 term.

    n = (36.9 + 3|s|) / decay, refined once to (36.9 + |s| ln n) / decay when
    above 3, with decay = -ln x; at least 3 terms, and 1 for x = 0.
    """
    with np.errstate(divide="ignore"):
        decay = -np.log(x)
    n = (36.9 + abs(s) * 3.0) / decay
    refine = n > 3.0
    n[refine] = (36.9 + abs(s) * np.log(n[refine])) / decay[refine]
    return np.where(x <= 0.0, 1, np.maximum(3, n.astype(np.int64) + 1))


def _series(s: float, x: np.ndarray) -> np.ndarray:
    """Direct series, element-wise term counts so batching never changes bits."""
    nterms = _series_terms(s, x)
    out = np.zeros_like(x)
    xn = np.ones_like(x)
    for n in range(1, int(nterms.max(initial=1)) + 1):
        xn = xn * x
        out = out + np.where(n <= nterms, xn / float(n)**s, 0.0)
    return out


def _expansion_noninteger(s: float, mu: np.ndarray) -> np.ndarray:
    zt = _zeta_table(s)
    out = math.gamma(1.0 - s) * mu ** (s - 1.0) + zt[0]
    term = np.ones_like(mu)
    for k in range(1, _EXPANSION_TERMS + 1):
        term = term * (-mu) / k
        out = out + zt[k] * term
    return out


def _expansion_integer(s: int, mu: np.ndarray) -> np.ndarray:
    zt = _zeta_table(float(s))
    harmonic = sum(1.0 / j for j in range(1, s))
    out = np.zeros_like(mu)
    term = np.ones_like(mu)
    for k in range(_EXPANSION_TERMS + 1):
        if k == s - 1:
            out = out + term * (harmonic - np.log(mu))
        else:
            out = out + zt[k] * term
        term = term * (-mu) / (k + 1)
    return out


def polylog_exp_neg(s: float, mu):
    r"""Evaluate :math:`\mathrm{Li}_s(e^{-\mu})` for ``mu >= 0``.

    This is the numerically preferred entry point when the argument is known
    through its exponent: the engine forms ``mu = v - ln r**2`` directly and
    never loses precision to ``log`` of a number near 1.  Scalar or ndarray
    ``mu``; ``mu = +inf`` maps to 0.

    Parameters
    ----------
    s : float
        Order, ``s > -1`` (any real; positive integers use the log-variant
        expansion, s = 0 the closed form).
    mu : float or ndarray
        Nonnegative exponent.
    """
    if not (math.isfinite(s) and s > -1.0):
        raise ValueError(f"polylog order must be finite and exceed -1, got {s}")
    arr = np.asarray(mu, dtype=float)
    if not np.all(arr >= 0.0):
        raise ValueError("mu must be nonnegative")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if s == 0.0:  # closed form Li_0(e^-mu) = 1/(e^mu - 1)
        with np.errstate(over="ignore"):  # expm1 -> inf for large mu, 1/inf = 0
            out = 1.0 / np.expm1(arr)
        return float(out[0]) if scalar else out
    out = np.empty_like(arr)
    small = arr < _MU_CROSS
    if np.any(~small):
        out[~small] = _series(s, np.exp(-arr[~small]))
    if np.any(small):
        m = arr[small]
        if s == math.floor(s) and s >= 1.0:
            out[small] = _expansion_integer(int(s), m)
        else:
            out[small] = _expansion_noninteger(s, m)
    return float(out[0]) if scalar else out


def polylog(s: float, x):
    r"""Polylogarithm :math:`\mathrm{Li}_s(x) = \sum_{n\ge1} x^n/n^s`.

    Parameters
    ----------
    s : float
        Real order, ``s > -1``.
    x : float or ndarray
        Argument in ``[0, 1)``.  ``x = 1`` is accepted only for ``s = 3``
        (returning zeta(3)); the half-integer orders diverge there.

    Returns
    -------
    float or ndarray
        Relative accuracy better than 1e-12 over the full domain.

    Raises
    ------
    ValueError
        For ``x < 0``, ``x >= 1`` (except the ``s = 3, x = 1`` case) or
        ``s <= -1``.
    """
    if not (math.isfinite(s) and s > -1.0):
        raise ValueError(f"polylog order must be finite and exceed -1, got {s}")
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0.0):
        raise ValueError("polylog argument must be nonnegative")
    if np.any(arr > 1.0) or (np.any(arr == 1.0) and s != 3.0):
        raise ValueError("polylog argument must lie in [0, 1) "
                         "(x = 1 is allowed only for s = 3)")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    at_one = arr == 1.0
    lo = arr <= X_CROSS
    hi = ~lo & ~at_one
    if np.any(at_one):
        out[at_one] = ZETA_3
    if np.any(lo):
        out[lo] = _series(s, arr[lo])
    if np.any(hi):
        out[hi] = polylog_exp_neg(s, -np.log(arr[hi]))
    return float(out[0]) if scalar else out
