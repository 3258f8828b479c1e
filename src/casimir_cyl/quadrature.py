"""Adaptive Gauss-Kronrod quadrature and the tolerance spec.

Each integral gets QUADPACK's (G7, K15) pair and error estimate (Piessens et
al. 1983) with batched panel refinement: the integrand receives the abscissae
of every pending panel as one ndarray, which keeps the polylogarithm
evaluations vectorized.  Many integrals, each over its own interval, run in
lockstep (:func:`adaptive_quad_rows`): they share only the integrand call of
each refinement level, and each keeps its own panels and returns the bits of
a lone :func:`adaptive_quad` call.

One driver, :func:`_refine`, advances the panels of all integrals, held in
flat arrays, a whole level at a time.  A BLAS product or a pairwise sum over
the panels of several integrals concatenated is not bit-stable, so integrals
with equal panel counts are stacked and reduced together, one group per
distinct count.

:func:`gauss_legendre` is the engine's one source of fixed rules (the T = 0
product rule's and the optical-table nodes'), built on first use per order.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

__all__ = ["QuadratureSpec", "ConvergenceError", "adaptive_quad", "adaptive_quad_rows",
           "gauss_legendre"]


class ConvergenceError(RuntimeError):
    """Raised when a quadrature or Matsubara truncation policy cannot be met."""


@dataclass(frozen=True)
class QuadratureSpec:
    """The target relative error ``rel_tol`` of a result, in [1e-12, 1e-4].

    Below 1e-12 the v-integrals, held to a tenth of it, ask more than the
    15-digit (G7, K15) constants can report and refine to their panel cap.
    The truncation policy follows from rel_tol and is not a setting: each
    v-integral runs to where the envelope ``v**2.5 * exp(-v)`` is far below
    rel_tol of the integral (about v = 45 at the default), an integral takes
    at most 4096 panels and a Matsubara sum at most 100 000 terms.
    """

    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (1e-12 <= self.rel_tol <= 1e-4):
            raise ValueError(f"rel_tol must lie in [1e-12, 1e-4], got {self.rel_tol}")


# (G7, K15) abscissae and weights on [-1, 1]; Gauss nodes are every other
# Kronrod node.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])

_MAX_REFINEMENTS = 64
_MAX_PANELS = 4096  # per integral


def _stacks(count: np.ndarray) -> tuple[np.ndarray | None, list[tuple[int, int]]]:
    """Panel order grouping integrals of equal count, and (count, integrals) per count.

    ``count[i]`` panels of integral i, integral-major; the order sorts them
    stably by their integral's count, ascending, and is None when all counts
    are equal.
    """
    if (count == count[0]).all():
        return None, [(int(count[0]), count.size)]
    tally = np.bincount(count)
    sizes = np.flatnonzero(tally)
    return (np.argsort(np.repeat(count, count), kind="stable"),
            list(zip(sizes.tolist(), tally[sizes].tolist())))


def _refine(f, a: np.ndarray, b: np.ndarray, rel_tol: float, initial_panels: int) -> np.ndarray:
    """Adaptive (G7, K15) refinement of integrals, integral s over ``[a[s], b[s]]``.

    Each integral is held to ``rel_tol * |its total|`` on its own panels.  A
    panel is bisected where an open integral has over half its per-panel
    share of its budget, which one with a finite error sum always has.  The
    panels live in one table (rows lo, hi, value, error), each integral's
    contiguous: kept, left halves, right halves.  Each level is one call
    ``f(x, owner)`` and a fixed number of numpy calls, plus one stack per
    distinct pending and total panel count.

    Returns the totals stacked on the error estimates, shape ``(2, len(a))``.
    """
    edges = np.linspace(a, b, initial_panels + 1, axis=1)
    pend = np.stack([edges[:, :-1].ravel(), edges[:, 1:].ravel()])  # lo, hi
    pend_owner = np.repeat(np.arange(a.size), initial_panels)
    live = np.arange(a.size)  # integrals still refining, ascending
    sums = np.empty((2, a.size))
    for level in range(_MAX_REFINEMENTS + 1):
        half = 0.5 * (pend[1] - pend[0])
        center = 0.5 * (pend[0] + pend[1])
        out = f((center[:, None] + half[:, None] * _XK).ravel(),
                np.repeat(pend_owner, _XK.size))
        # K15 and G7 sums, one stacked product per distinct pending count
        order, groups = _stacks(np.bincount(pend_owner)[live])
        vals = np.reshape(out, (half.size, _XK.size))
        if order is not None:
            vals = vals.take(order, axis=0)
        prods, start = [], 0
        for n, k in groups:
            blk = vals[start:start + n * k].reshape(k, n, _XK.size)
            # a lone product reads the Gauss columns as a column-major copy
            gauss = blk.swapaxes(1, 2).take(_GAUSS_IDX, axis=1).swapaxes(1, 2)
            prods.append(np.stack([blk @ _WK, gauss @ _WG]).reshape(2, k * n))
            start += n * k
        kg = np.concatenate(prods, axis=1)
        if order is not None:
            kg[:, order] = kg.copy()
        kg *= half
        new = np.concatenate([pend, kg[:1], np.abs(kg[:1] - kg[1:])])
        if level == 0:
            table, owner = new, pend_owner
        else:
            owner = np.concatenate([owner, pend_owner])
            order = np.argsort(owner, kind="stable")
            table = np.concatenate([table, new], axis=1).take(order, axis=1)
            owner = owner[order]
        # totals, one stacked pairwise sum per distinct panel count
        count = np.bincount(owner)[live]
        order, groups = _stacks(count)
        est = table[2:] if order is None else table[2:].take(order, axis=1)
        parts, start = [], 0
        for n, k in groups:
            parts.append(est[:, start:start + n * k].reshape(2, k, n).sum(axis=2))
            start += n * k
        ids = live if order is None else live[np.argsort(count, kind="stable")]
        sums[:, ids] = np.concatenate(parts, axis=1)
        if level == _MAX_REFINEMENTS:
            break
        tol = rel_tol * np.abs(sums[0, live])
        open_ = ~(sums[1, live] <= tol) & (count < _MAX_PANELS)  # NaN stays open
        slot = np.repeat(np.arange(live.size), count)
        err = table[3]
        # bisect every panel on which an open integral exceeds half its share of the budget
        bad = err > np.where(open_, 0.5 * tol / count, np.inf)[slot]
        # an integral with nothing to bisect (converged, out of panels, or a
        # NaN estimate) is done and leaves the table
        go = np.bincount(slot, bad, live.size) > 0
        if not go.any():
            break
        lo, hi = table[:2, bad]
        mid = 0.5 * (lo + hi)
        pend_owner = np.concatenate([owner[bad], owner[bad]])
        order = np.argsort(pend_owner, kind="stable")
        pend = np.array([[lo, mid], [mid, hi]]).reshape(2, -1).take(order, axis=1)
        pend_owner = pend_owner[order]
        keep = ~bad & go[slot]
        table, owner, live = table[:, keep], owner[keep], live[go]
    return sums


def _checked(total: np.ndarray, err: np.ndarray, rel_tol: float) -> Iterator[tuple[float, float]]:
    """(total, error) per row; ConvergenceError at the first row whose total or
    error is not finite, or whose error is over 10x its target."""
    stalled = (~(np.isfinite(total) & np.isfinite(err))
               | ((err > 10.0 * rel_tol * np.abs(total)) & (err > 1e-300)))
    for i, stall in enumerate(stalled.tolist()):
        if stall:
            raise ConvergenceError(f"quadrature stalled (row {i}): error "
                                   f"{err[i]:.3e} on integral {total[i]:.3e}")
        yield float(total[i]), float(err[i])


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  rel_tol: float = 1e-9, initial_panels: int = 8) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]`` with batched adaptive (G7, K15) panels.

    ``f`` maps a 1-D ndarray of abscissae, the nodes of every pending panel,
    to one value per abscissa; it is called once per refinement level.  The
    limits must be finite (callers cut exponential tails themselves); an
    empty interval, ``b <= a``, returns ``(0.0, 0.0)`` without calling ``f``,
    and any other is the one-row :func:`adaptive_quad_rows`, converged when
    the summed panel error estimate drops below ``rel_tol * |integral|``.

    Returns (value, error_estimate) as floats.  Raises ValueError if a limit
    of a nonempty interval is not finite, and ConvergenceError if the total
    or error estimate is not finite, or over 10x its target at 4096 panels.
    """
    if b <= a:
        return 0.0, 0.0
    return next(adaptive_quad_rows(lambda x, _: f(x), [a], [b], rel_tol, initial_panels))


def adaptive_quad_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b,
                       rel_tol: float = 1e-9,
                       initial_panels: int = 8) -> Iterator[tuple[float, float]]:
    """Integrate ``m`` scalar integrals, row i over ``[a[i], b[i]]``, in lockstep.

    Each row is its own :func:`adaptive_quad` integral, with its own panels,
    error budget and bisection decisions, so its value and error estimate
    carry the bits of a lone call.  What the rows share is the integrand
    call: at each refinement level the pending panels of every unfinished row
    go to ``f`` together, as ``f(x, row)`` with the 1-D abscissae ``x`` and,
    per abscissa, the index ``row`` of its integral.  ``f`` returns one value
    per abscissa.  The limits must be finite with ``b > a`` in every row, else
    ValueError.

    Returns an iterator of (value, error_estimate) float pairs in row order.
    The integrals are done when the call returns; a stalled row raises
    ConvergenceError, naming its index, only when the iterator reaches it, so
    a caller that stops early never sees the failure of a row it did not use.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.all(b > a)):
        raise ValueError(f"integration limits must be finite with b > a, got a={a}, b={b}")
    if a.size == 0:
        return iter(())
    total, err = _refine(f, a, b, rel_tol, initial_panels)
    return _checked(total, err, rel_tol)


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    prev, cur = np.ones_like(x), x
    for j in range(2, n + 1):
        prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
    return cur, n * (x * cur - prev) / (x * x - 1.0)


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1]: ascending nodes and weights.

    Newton's method on P_n from the guesses cos(pi (k - 1/4)/(n + 1/2)),
    weights 2/((1 - x**2) P_n'(x)**2): nodes within an ulp and weights within
    5e-14 relative of mpmath's for n up to 128, where the 48-point weights of
    numpy's ``leggauss`` are off by 1.3e-12.  Built on first use and cached;
    the arrays are read-only.
    """
    if n < 1:
        raise ValueError(f"a Gauss rule needs n >= 1 nodes, got {n}")
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 1e-16:
            break
    # weights at x + d, the root to first order, d = -P_n/P_n' below an ulp of x;
    # P_n'' = 2 x P_n'/(1 - x**2) there
    p, dp = _legendre(n, x)
    d = -p / dp
    s = 1.0 - x * x
    w = 2.0 / ((s - 2.0 * x * d) * (dp * (1.0 + 2.0 * x * d / s)) ** 2)
    x.flags.writeable = w.flags.writeable = False
    return x, w
