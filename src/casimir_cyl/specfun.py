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

That bit invariant fixes how the direct series runs.  Each element takes its
own number of terms (3 to about 100) and adds them one by one in order; the
batch only changes how many numpy calls carry those additions.  The first
three terms, the least any element takes, run for the whole batch at once
(the head).  The elements that take more (the tail, about a sixth of the
engine's) are sorted by count: each further term updates the suffix that still
takes it while the tail is wide, and the last narrow stretch runs as one
(terms x elements) block of sequential ``accumulate`` products and sums, read
at each element's own count.

:func:`polylog_exp_neg` picks the regime per element with one minimum over
the batch.  A batch with no ``mu`` below the crossover (most of the engine's)
goes to the series whole, with no mask; otherwise the series runs on the
whole batch with ``x = 0``, one term, in place of each small ``mu``, and the
expansion's values replace those.  The expansion's 30 terms are four numpy
calls each over its elements, a fixed cost of some 120 calls that a finite-T
refinement level pays for a dozen elements; a batch of at most 16 small
``mu`` runs the same IEEE operations in the same order per element in Python
floats instead.  Transcendentals stay in numpy on both sides, so the switch,
chosen by size alone, changes no bit.
"""
from __future__ import annotations

import math
from itertools import repeat

import numpy as np

__all__ = ["polylog", "polylog_exp_neg", "riemann_zeta", "ZETA_3"]

ZETA_3 = 1.2020569031595943  # Apery's constant zeta(3)

# crossover between the direct series and the small-mu expansion
_MU_CROSS = 0.5
_EXPANSION_TERMS = 30
_TERM_INDICES = tuple(float(k) for k in range(1, _EXPANSION_TERMS + 1))
# Batches of up to this many small-mu elements run the expansion per element
# in Python floats.  On a 2-CPU Xeon host that loop costs about 4 us per
# element and the numpy one about 140 us whatever the size, so they cross
# near 30 elements; the finite-T kernel calls that reach the expansion hold a
# median of 11
_FLOAT_EXPANSION = 16
# Tail width at which the direct series switches from one suffix update per
# term to a single (terms, elements) block.  The block costs a fixed number of
# numpy calls but computes every row for every element, past each one's own
# count; the suffix loop costs about 6 us per term whatever its width.  On the
# engine's batches any switch from 64 to 128 is equally fast; 256 is 15% and
# 1024 90% slower.
_TAIL_BLOCK = 96
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


_power_tables: dict[float, np.ndarray] = {}


def _powers(s: float, top: int) -> np.ndarray:
    """``float(n)**s`` at index n >= 1, for n up to at least ``top``; the table
    of each s is kept, and rebuilt twice as long as the count that passes its
    end."""
    tab = _power_tables.get(s)
    if tab is None or tab.size <= top:
        size = max(128, 2 * top)
        tab = np.array([math.nan] + [float(n)**s for n in range(1, size)])
        _power_tables[s] = tab
    return tab


def _series_terms(s: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Term counts putting the series tail below 1e-16 of the x^1 term.

    n = (36.9 + 3|s|) / decay, refined once to (36.9 + |s| ln n) / decay when
    above 3, with decay = -ln x, and the count is int(n) + 1.  Every element
    takes at least 3 terms (an ``x = 0`` element 1, whose terms 2-3 would add
    +0.0), so only the elements that take more are returned: their indices in
    ascending order and their counts.
    """
    first = 36.9 + abs(s) * 3.0
    # A count passes 3 only where the first estimate first / decay reaches 3,
    # so the rule runs only on the x above that, with a margin for rounding.
    near = np.flatnonzero(x > math.exp(-first / 2.9))
    decay = -np.log(x[near])
    n = first / decay
    n = np.where(n > 3.0, (36.9 + abs(s) * np.log(n)) / decay, n)
    counts = n.astype(np.int64) + 1
    more = counts > 3
    return near[more], counts[more]


def _series(s: float, x: np.ndarray) -> np.ndarray:
    """Direct series, element-wise term counts so batching never changes bits.

    Every element adds its terms in order, ``out = (x/1 + x^2/2^s) + x^3/3^s
    + ...`` with ``x^n = x^(n-1) * x`` and ``n^s`` the Python float
    ``float(n)**s`` (tabled per s by ``_powers``), up to its own count from
    ``_series_terms``.  The order of operations is all that fixes the bits,
    so it is kept while the number of numpy calls falls:

    * head: terms 1-3, the floor of every count, for the whole batch in input
      order (term 1 of an ``x = 0`` element is its whole sum, and terms 2-3
      add +0.0 to it);
    * tail: only the elements taking more terms, stably sorted by count.
      While more than ``_TAIL_BLOCK`` remain, term n updates the suffix that
      still takes it; the rest runs as one (terms, elements) block of
      sequential ``accumulate`` products and sums, read at each element's own
      count.  ``accumulate`` adds in sequence; ``sum`` would not.
    """
    tail, counts = _series_terms(s, x)
    # as uint8 (the engine's counts) or uint16 the stable argsort is a radix sort
    order = np.argsort(counts.astype(np.min_scalar_type(counts.max(initial=0))),
                       kind="stable")
    tail, counts = tail[order], counts[order]
    xn = x * x
    out = xn / 2.0**s
    out += x  # x/1 + x^2/2^s: x/1 is x itself, and + commutes
    xn *= x
    xn_tail = xn[tail]
    xn /= 3.0**s
    out += xn
    del xn
    if tail.size == 0:
        return out
    xs, xn, acc = x[tail], xn_tail, out[tail]
    top = int(counts[-1])
    # firsts[n - 4]: the first tail element, in sorted order, that takes term n
    firsts = np.searchsorted(counts, np.arange(4, top + 1)).tolist()
    n = 4
    powers = _powers(s, top)
    while n <= top and xs.size - firsts[n - 4] > _TAIL_BLOCK:
        f = firsts[n - 4]
        xn_f = xn[f:]
        xn_f *= xs[f:]
        acc[f:] += xn_f / powers[n]
        n += 1
    if n <= top:
        f = firsts[n - 4]
        width = xs.size - f
        block = np.empty((top - n + 2, width))
        block[0] = xn[f:]
        block[1:] = xs[f:]
        np.multiply.accumulate(block, axis=0, out=block)  # row i: x^(n-1+i)
        block[1:] /= powers[n:top + 1, None]
        block[0] = acc[f:]
        np.add.accumulate(block, axis=0, out=block)  # row i: sum to term n-1+i
        acc[f:] = block[counts[f:] - (n - 1), np.arange(width)]
    out[tail] = acc
    return out


def _expansion(s: float, mu: np.ndarray) -> np.ndarray:
    """Li_s(e^-mu) for 0 < mu < 1/2: a head plus sum_k c_k (-mu)^k / k!.

    c_k = zeta(s - k).  Non-integer s has the head Gamma(1-s) mu^(s-1); an
    integer s >= 1 has none, and its c_{s-1} is H_{s-1} - ln mu instead.  The
    head and the log run in numpy; the terms run in numpy over the batch, or
    per element in Python floats for at most ``_FLOAT_EXPANSION`` elements,
    with the same operations in the same order and so the same bits.
    """
    coef = _zeta_table(s).tolist()
    if s == math.floor(s):
        head = np.zeros_like(mu)
        if s <= len(coef):
            coef[int(s) - 1] = sum(1.0 / j for j in range(1, int(s))) - np.log(mu)
    else:
        # for s < 1 and subnormal mu, mu^(s-1) is past the float range: +inf, as at mu = 0
        with np.errstate(over="ignore"):
            head = math.gamma(1.0 - s) * mu ** (s - 1.0)
    out = head + coef[0]
    neg_mu = -mu
    if mu.size <= _FLOAT_EXPANSION:
        # the same IEEE operations per element in Python floats, in place of
        # four numpy calls per term; the log-variant c_{s-1} is per element
        per_element = zip(*(c.tolist() if isinstance(c, np.ndarray) else repeat(c)
                            for c in coef[1:]))
        vals = []
        for acc, m, cs in zip(out.tolist(), neg_mu.tolist(), per_element):
            t = 1.0
            for k, c in zip(_TERM_INDICES, cs):
                t = t * m / k
                acc += t * c
            vals.append(acc)
        return np.array(vals)
    term = np.ones_like(mu)
    scaled = np.empty_like(mu)
    for k in range(1, _EXPANSION_TERMS + 1):
        term *= neg_mu
        term /= k
        np.multiply(term, coef[k], out=scaled)
        out += scaled
    return out


def polylog_exp_neg(s: float, mu):
    r"""Evaluate :math:`\mathrm{Li}_s(e^{-\mu})` for ``mu >= 0``.

    This is the numerically preferred entry point when the argument is known
    through its exponent: the engine forms ``mu = v - ln r**2`` directly and
    never loses precision to ``log`` of a number near 1.  Scalar or ndarray
    ``mu``; ``mu = +inf`` maps to 0, and ``mu = 0`` to zeta(s) for ``s > 1``
    and to +inf for ``s <= 1``, where the series diverges.

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
    flat = arr.reshape(-1)
    low = np.minimum.reduce(flat, initial=math.inf)  # NaN if any mu is NaN
    if not low >= 0.0:
        raise ValueError("mu must be nonnegative")
    scalar = arr.ndim == 0
    if s == 0.0:  # closed form Li_0(e^-mu) = 1/(e^mu - 1)
        # expm1 -> inf for large mu, 1/inf = 0; mu = 0 gives 1/0 = +inf
        with np.errstate(over="ignore", divide="ignore"):
            out = 1.0 / np.expm1(arr)
        return float(out) if scalar else out
    if low >= _MU_CROSS:  # the direct series alone, with no gather or scatter
        out = _series(s, np.exp(-flat))
    else:
        small = flat < _MU_CROSS
        # x = 0 for the mu of the expansion: one series term each, replaced below
        out = _series(s, np.exp(-np.where(small, np.inf, flat)))
        at_one = flat == 0.0  # x = 1, where the expansion would meet 0 * ln 0
        if at_one.any():
            small &= ~at_one
            out[at_one] = _zeta_table(s)[0] if s > 1.0 else math.inf
        if small.any():
            out[small] = _expansion(s, flat[small])
    return float(out[0]) if scalar else out.reshape(arr.shape)


def polylog(s: float, x):
    r"""Polylogarithm :math:`\mathrm{Li}_s(x) = \sum_{n\ge1} x^n/n^s`.

    It is :func:`polylog_exp_neg` of ``mu = -ln x`` (``x = 0`` gives
    ``mu = +inf`` and so 0), with the same order ``s > -1``.  ``x`` is a
    float or ndarray in ``[0, 1]``; ``x = 1`` gives zeta(s) for ``s > 1``,
    where the series converges (Li_{3/2}(1) = zeta(3/2) among them), and is
    refused for ``s <= 1``, where it diverges.  Relative accuracy is better
    than 1e-12 over the full domain.  It stays public API for callers that
    hold x rather than its exponent; no engine path calls it, as the engine
    forms mu itself.

    Raises
    ------
    ValueError
        For ``x < 0``, ``x > 1``, ``x = 1`` with ``s <= 1``, or ``s <= -1``.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0.0):
        raise ValueError("polylog argument must be nonnegative")
    if np.any(arr > 1.0) or (np.any(arr == 1.0) and not s > 1.0):
        raise ValueError("polylog argument must lie in [0, 1], and below 1 for s <= 1")
    with np.errstate(divide="ignore"):
        return polylog_exp_neg(s, -np.log(arr))
