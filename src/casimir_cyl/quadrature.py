"""Adaptive Gauss-Kronrod quadrature and the tolerance/truncation policy.

The force integrands are smooth and exponentially decaying, so a (G7, K15)
pair with batched panel refinement converges quickly; integrand callbacks
receive the abscissae of every pending panel as one ndarray, which keeps the
polylogarithm evaluations vectorized.  A vector-valued integrand, one row per
integral, carries that batching across integrals: many integrals over the same
interval share one callback per refinement level, each row under its own
error control (QUADPACK's G7/K15 estimate, Piessens et al. 1983).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["QuadratureSpec", "ConvergenceError", "adaptive_quad"]


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
        if not (isinstance(self.max_terms, (int, np.integer)) and self.max_terms >= 1):
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
    edges = np.linspace(a, b, initial_panels + 1)
    lo, hi = edges[:-1], edges[1:]

    def eval_panels(plo: np.ndarray, phi: np.ndarray):
        # rows x panels arrays; a scalar integrand is the single-row case
        center = 0.5 * (plo + phi)
        half = 0.5 * (phi - plo)
        nodes = center[:, None] + half[:, None] * _XK[None, :]
        out = f(nodes.ravel())
        vector = np.ndim(out) == 2
        shape = (len(out) if vector else 1, plo.size)
        vals = np.reshape(out, (-1, _XK.size))
        k15 = half * (vals @ _WK).reshape(shape)
        g7 = half * (vals[:, _GAUSS_IDX] @ _WG).reshape(shape)
        return k15, np.abs(k15 - g7), vector

    val, err, vector = eval_panels(lo, hi)
    for _ in range(_MAX_REFINEMENTS):
        tol = rel_tol * np.abs(np.sum(val, axis=1))
        open_rows = ~(np.sum(err, axis=1) <= tol)  # a NaN estimate stays open
        if not np.any(open_rows) or lo.size >= max_panels:
            break
        # bisect every panel on which an open row exceeds its share of the budget
        row_err = err[open_rows]
        bad = np.any(row_err > 0.5 * tol[open_rows, None] / max(lo.size, 1), axis=0)
        if not np.any(bad):
            bad = np.any(row_err >= np.max(row_err, axis=1, keepdims=True), axis=0)
            if not np.any(bad):  # only NaN estimates are open: nothing to bisect
                break
        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[bad], mid])
        new_hi = np.concatenate([mid, hi[bad]])
        new_val, new_err, _ = eval_panels(new_lo, new_hi)
        lo = np.concatenate([lo[~bad], new_lo])
        hi = np.concatenate([hi[~bad], new_hi])
        val = np.concatenate([val[:, ~bad], new_val], axis=1)
        err = np.concatenate([err[:, ~bad], new_err], axis=1)
    total = np.sum(val, axis=1)
    total_err = np.sum(err, axis=1)
    stalled = (~(np.isfinite(total) & np.isfinite(total_err))
               | ((total_err > 10.0 * rel_tol * np.abs(total)) & (total_err > 1e-300)))
    if np.any(stalled):
        i = int(np.argmax(stalled))
        row = f" (row {i})" if vector else ""
        raise ConvergenceError(
            f"quadrature stalled{row}: error {total_err[i]:.3e} on integral {total[i]:.3e}")
    if vector:
        return total, total_err
    return float(total[0]), float(total_err[0])
