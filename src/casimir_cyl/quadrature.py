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


class _Panels:
    """One integral, or several sharing their panels, under adaptive refinement.

    ``nodes`` holds the abscissae of the panels waiting for integrand values;
    :meth:`absorb` takes the values there, merges those panels into the rest
    and picks the panels to bisect next.  This is the only copy of the
    refinement policy: :func:`adaptive_quad` runs one instance,
    :func:`adaptive_quad_rows` runs one per row in lockstep.
    """

    def __init__(self, a: float, b: float, rel_tol: float, max_panels: int,
                 initial_panels: int) -> None:
        self.rel_tol = rel_tol
        self.max_panels = max_panels
        self.refinements = 0
        self.vector = False
        self.keep = None  # panels surviving the last bisection; None before the first
        edges = np.linspace(a, b, initial_panels + 1)
        self._pend(edges[:-1], edges[1:])

    def _pend(self, lo: np.ndarray, hi: np.ndarray) -> None:
        self.new_lo, self.new_hi = lo, hi
        center = 0.5 * (lo + hi)
        self.half = 0.5 * (hi - lo)
        self.nodes = (center[:, None] + self.half[:, None] * _XK[None, :]).ravel()

    def absorb(self, out) -> bool:
        """Take the integrand values at ``nodes``; True while refinement goes on."""
        # rows x panels arrays; a scalar integrand is the single-row case
        self.vector = np.ndim(out) == 2
        shape = (len(out) if self.vector else 1, self.new_lo.size)
        vals = np.reshape(out, (-1, _XK.size))
        k15 = self.half * (vals @ _WK).reshape(shape)
        g7 = self.half * (vals[:, _GAUSS_IDX] @ _WG).reshape(shape)
        if self.keep is None:
            self.lo, self.hi = self.new_lo, self.new_hi
            self.val, self.err = k15, np.abs(k15 - g7)
        else:
            keep = self.keep
            self.lo = np.concatenate([self.lo[keep], self.new_lo])
            self.hi = np.concatenate([self.hi[keep], self.new_hi])
            self.val = np.concatenate([self.val[:, keep], k15], axis=1)
            self.err = np.concatenate([self.err[:, keep], np.abs(k15 - g7)], axis=1)
        if self.refinements == _MAX_REFINEMENTS:
            return False
        lo, hi, err = self.lo, self.hi, self.err
        tol = self.rel_tol * np.abs(self.val.sum(axis=1))
        open_rows = ~(err.sum(axis=1) <= tol)  # a NaN estimate stays open
        if not open_rows.any() or lo.size >= self.max_panels:
            return False
        # bisect every panel on which an open row exceeds its share of the budget
        row_err = err[open_rows]
        bad = (row_err > 0.5 * tol[open_rows, None] / max(lo.size, 1)).any(axis=0)
        if not bad.any():
            bad = (row_err >= row_err.max(axis=1, keepdims=True)).any(axis=0)
            if not bad.any():  # only NaN estimates are open: nothing to bisect
                return False
        mid = 0.5 * (lo[bad] + hi[bad])
        self.keep = ~bad
        self.refinements += 1
        self._pend(np.concatenate([lo[bad], mid]), np.concatenate([mid, hi[bad]]))
        return True

    def result(self, row: int | None = None):
        """Row totals and error estimates; ConvergenceError if a row stalled.

        ``row`` names this integral in the message when it is one of many.
        """
        total = np.sum(self.val, axis=1)
        total_err = np.sum(self.err, axis=1)
        stalled = (~(np.isfinite(total) & np.isfinite(total_err))
                   | ((total_err > 10.0 * self.rel_tol * np.abs(total))
                      & (total_err > 1e-300)))
        if np.any(stalled):
            i = int(np.argmax(stalled))
            row = i if self.vector else row
            name = "" if row is None else f" (row {row})"
            raise ConvergenceError(f"quadrature stalled{name}: error "
                                   f"{total_err[i]:.3e} on integral {total[i]:.3e}")
        if self.vector:
            return total, total_err
        return float(total[0]), float(total_err[0])


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
    panels = _Panels(a, b, rel_tol, max_panels, initial_panels)
    while panels.absorb(f(panels.nodes)):
        pass
    return panels.result()


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
        when the call returns; each row's stall check runs when the iterator
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
    rows = [_Panels(lo, hi, rel_tol, max_panels, initial_panels)
            for lo, hi in zip(a, b)]
    active = list(range(len(rows)))
    while active:
        parts = [rows[i].nodes for i in active]
        sizes = [part.size for part in parts]
        out = f(np.concatenate(parts), np.repeat(active, sizes))
        ends = np.cumsum(sizes).tolist()
        # each row reduces its own slice: batched K15/G7 products are not bit-stable
        active = [i for i, start, end in zip(active, [0] + ends, ends)
                  if rows[i].absorb(out[start:end])]
    return (panels.result(i) for i, panels in enumerate(rows))
