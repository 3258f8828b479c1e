"""Adaptive Gauss-Kronrod quadrature and the tolerance/truncation policy.

The force integrands are smooth and exponentially decaying, so a (G7, K15)
pair with batched panel refinement converges quickly; integrand callbacks
receive the abscissae of every pending panel as one ndarray, which keeps the
polylogarithm evaluations vectorized.  Two modes carry that batching across
integrals, each integral (row) under its own error control (QUADPACK's G7/K15
estimate, Piessens et al. 1983):

* a vector-valued integrand, one row per integral over one shared interval:
  the rows share their panels (:func:`adaptive_quad`);
* lockstep rows, each over its own interval with its own panels and
  bisections (:func:`adaptive_quad_rows`): the rows share only the integrand
  call of each refinement level, and every row returns the bits of a lone
  scalar integral.

Both run one refinement driver, :func:`_refine`, over one array state: the
panels of many panel sets in flat arrays, advanced a whole level at a time.
A scalar integral is one set with one row, the shared-panel mode one set with
m rows, the lockstep mode many sets with one row each.  Per-set K15/G7
products and panel sums keep a lone set's bits only when each one sees
exactly its set's panels: a BLAS product or a pairwise sum over the panels of
several sets concatenated is not bit-stable, so sets with equal panel counts
are stacked and reduced together, one group per distinct count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

__all__ = ["QuadratureSpec", "ConvergenceError", "adaptive_quad", "adaptive_quad_rows"]


class ConvergenceError(RuntimeError):
    """Raised when a quadrature or Matsubara truncation policy cannot be met."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation policies for the v-integrals and the sum.

    Attributes
    ----------
    rel_tol : float
        Target relative error, in (0, 1e-4].  Each v-integral runs to the
        cutoff where the envelope ``v**2.5 * exp(-v)`` has dropped below
        ``rel_tol`` times the running total (about v = 45 at the default).
    max_terms : int
        Hard cap on Matsubara terms before declaring failure, at least 1.
    """

    rel_tol: float = 1e-9
    max_terms: int = 100_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-4):
            raise ValueError(f"rel_tol must lie in (0, 1e-4], got {self.rel_tol}")
        if not (isinstance(self.max_terms, (int, np.integer))
                and not isinstance(self.max_terms, bool) and self.max_terms >= 1):
            raise ValueError(f"max_terms must be an integer >= 1, got {self.max_terms}")

    def v_span(self) -> float:
        """Integration span past the lower limit covering the decaying tail.

        Chosen so the envelope ``v**2.5 exp(-v)`` at the cut is far below
        ``rel_tol`` of the integral scale; 45 suffices at the default
        tolerance and the span grows logarithmically for tighter ones.
        """
        return max(45.0, -math.log(self.rel_tol) + 25.0)


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


def _stacks(count: np.ndarray) -> tuple[np.ndarray | None, list[tuple[int, int]]]:
    """Panel order that puts sets of equal count together, and (count, sets) per count.

    ``count[i]`` panels of set i, set-major; the order sorts them stably by
    their set's count, ascending, and is None when all counts are equal.
    """
    if (count == count[0]).all():
        return None, [(int(count[0]), count.size)]
    tally = np.bincount(count)
    sizes = np.flatnonzero(tally)
    return (np.argsort(np.repeat(count, count), kind="stable"),
            list(zip(sizes.tolist(), tally[sizes].tolist())))


def _refine(f, a: np.ndarray, b: np.ndarray, rel_tol: float, max_panels: int,
            initial_panels: int) -> tuple[bool, np.ndarray]:
    """Adaptive (G7, K15) refinement of panel sets, set s over ``[a[s], b[s]]``.

    A set's ``m`` rows (m > 1 only for a single set) share its panels, each
    row held to ``rel_tol * |row total|``.  A panel is bisected when an open
    row has more than its share of its budget there, else where an open row
    has its largest error.  The panels live in one table (rows lo, hi, m
    values, m errors), each set's contiguous: kept, left halves, right halves.
    Each level is one call ``f(x, owner)`` and a fixed number of numpy calls,
    plus one stack per distinct pending and total panel count.

    Returns whether ``f`` is vector-valued and the row totals stacked on the
    row error estimates, shape ``(2 m, len(a))``.
    """
    n_sets = a.size
    edges = np.linspace(a, b, initial_panels + 1, axis=1)
    pend = np.stack([edges[:, :-1].ravel(), edges[:, 1:].ravel()])  # lo, hi
    pend_owner = np.repeat(np.arange(n_sets), initial_panels)
    live = np.arange(n_sets)  # sets still refining, ascending
    for level in range(_MAX_REFINEMENTS + 1):
        half = 0.5 * (pend[1] - pend[0])
        center = 0.5 * (pend[0] + pend[1])
        out = f((center[:, None] + half[:, None] * _XK).ravel(),
                np.repeat(pend_owner, _XK.size))
        if level == 0:
            vector = np.ndim(out) == 2
            m = len(out) if vector else 1
            sums = np.empty((2 * m, n_sets))
        # K15 and G7 sums, one stacked product per distinct pending count
        order, groups = _stacks(np.bincount(pend_owner)[live])
        vals = np.reshape(out, (m, -1, _XK.size))
        if order is not None:
            vals = vals.take(order, axis=1)
        prods, start = [], 0
        for n, k in groups:
            blk = vals[:, start:start + n * k].reshape(k, m * n, _XK.size)
            # a lone product reads the Gauss columns as a column-major copy
            gauss = blk.swapaxes(1, 2).take(_GAUSS_IDX, axis=1).swapaxes(1, 2)
            prods.append(np.stack([blk @ _WK, gauss @ _WG]).reshape(2 * m, k * n))
            start += n * k
        kg = np.concatenate(prods, axis=1)
        if order is not None:
            kg[:, order] = kg.copy()
        kg *= half
        new = np.concatenate([pend, kg[:m], np.abs(kg[:m] - kg[m:])])
        if level == 0:
            table, owner = new, pend_owner
        else:
            owner = np.concatenate([owner, pend_owner])
            order = np.argsort(owner, kind="stable")
            table = np.concatenate([table, new], axis=1).take(order, axis=1)
            owner = owner[order]
        # row totals, one stacked pairwise sum per distinct panel count
        count = np.bincount(owner)[live]
        order, groups = _stacks(count)
        est = table[2:] if order is None else table[2:].take(order, axis=1)
        parts, start = [], 0
        for n, k in groups:
            parts.append(est[:, start:start + n * k].reshape(2 * m, k, n).sum(axis=2))
            start += n * k
        ids = live if order is None else live[np.argsort(count, kind="stable")]
        sums[:, ids] = np.concatenate(parts, axis=1)
        if level == _MAX_REFINEMENTS:
            break
        tol = rel_tol * np.abs(sums[:m, live])
        open_rows = ~(sums[m:, live] <= tol) & (count < max_panels)  # NaN stays open
        slot = np.repeat(np.arange(live.size), count)
        err = table[2 + m:]
        # bisect every panel on which an open row exceeds its share of the budget
        share = np.where(open_rows, 0.5 * tol / count, np.inf)
        bad = (err > share[:, slot]).any(axis=0)
        hits = np.bincount(slot, bad, live.size)
        fall = open_rows & (hits == 0)
        if fall.any():  # then bisect where such a row's largest error sits
            peak = np.maximum.reduceat(err, np.cumsum(count) - count, axis=1)
            bad |= (err >= np.where(fall, peak, np.nan)[:, slot]).any(axis=0)
            hits = np.bincount(slot, bad, live.size)
        # a set with nothing to bisect (converged, out of panels, or only
        # NaN estimates open) is done and leaves the table
        go = hits > 0
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
    return vector, sums


def _checked(total: np.ndarray, err: np.ndarray, rel_tol: float,
             name: str) -> Iterator[tuple[float, float]]:
    """(total, error) per row; ConvergenceError at the first row whose total or
    error is not finite, or whose error is over 10x its target."""
    stalled = (~(np.isfinite(total) & np.isfinite(err))
               | ((err > 10.0 * rel_tol * np.abs(total)) & (err > 1e-300)))
    for i, stall in enumerate(stalled.tolist()):
        if stall:
            raise ConvergenceError(f"quadrature stalled{name.format(i)}: error "
                                   f"{err[i]:.3e} on integral {total[i]:.3e}")
        yield float(total[i]), float(err[i])


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  rel_tol: float = 1e-9, max_panels: int = 4096, initial_panels: int = 8):
    """Integrate ``f`` over ``[a, b]`` with batched adaptive (G7, K15) panels.

    The integrand may be scalar- or vector-valued; the mode is read from the
    shape of what ``f`` returns.  For a 1-D array of ``n`` abscissae a scalar
    integrand returns ``n`` values, a vector-valued one an ``(m, n)`` array,
    one row per integral.  The rows share their panels but not their error
    budgets: each row must meet ``rel_tol * |row total|``, and a
    panel is bisected when some row not yet converged has more than its share
    of that row's budget on it.  One call therefore evaluates every pending
    panel of every row in one ``f`` call per refinement level.

    Parameters
    ----------
    f : callable
        Vectorized integrand mapping a 1-D ndarray of abscissae to values of
        shape ``(n,)`` (scalar) or ``(m, n)`` (``m`` integrals at once).
    a, b : float
        Finite integration limits (callers cut exponential tails themselves).
        An empty interval returns ``(0.0, 0.0)`` without calling ``f``.
    rel_tol : float
        Convergence when the summed panel error estimate of every row drops
        below ``rel_tol * |integral|``.

    Returns
    -------
    (value, error_estimate)
        Floats for a scalar integrand, arrays of shape ``(m,)`` for a
        vector-valued one.

    Raises
    ------
    ConvergenceError
        If the total or error estimate of any row is not finite, or is still
        more than 10x its target after the panel budget is exhausted.
    """
    if not b > a:
        return 0.0, 0.0
    vector, sums = _refine(lambda x, _: f(x), np.array([a], dtype=float),
                           np.array([b], dtype=float), rel_tol, max_panels, initial_panels)
    total, err = sums[:, 0].reshape(2, -1)
    rows = list(_checked(total, err, rel_tol, " (row {})" if vector else ""))
    return (total, err) if vector else rows[0]


def adaptive_quad_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b,
                       rel_tol: float = 1e-9, max_panels: int = 4096,
                       initial_panels: int = 8) -> Iterator[tuple[float, float]]:
    """Integrate ``m`` scalar integrals, row i over ``[a[i], b[i]]``, in lockstep.

    Each row is its own :func:`adaptive_quad` integral, with its own panels,
    error budget and bisection decisions, so its value and error estimate
    carry the bits of a lone scalar call.  What the rows share is the
    integrand call: at each refinement level the pending panels of every row
    not yet finished go to ``f`` together, as ``f(x, row)`` with the 1-D
    abscissae ``x`` and, per abscissa, the index ``row`` of the integral it
    belongs to.  ``f`` returns one value per abscissa.

    Parameters
    ----------
    a, b : array_like, shape (m,)
        Finite limits with ``b > a`` in every row.

    Returns
    -------
    iterator of (value, error_estimate)
        One pair of floats per row, in row order.  The integrals are done
        when the call returns; a stalled row raises only when the iterator
        reaches it, so a caller that stops early never sees the failure of a
        row it did not use.

    Raises
    ------
    ValueError
        If some row has ``b <= a``.
    ConvergenceError
        From the iterator, at the first stalled row, naming its index.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all(b > a):
        raise ValueError("every row needs b > a")
    if a.size == 0:
        return iter(())
    total, err = _refine(f, a, b, rel_tol, max_panels, initial_panels)[1]
    return _checked(total, err, rel_tol, " (row {})")
