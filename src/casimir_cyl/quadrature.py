"""Adaptive Gauss-Kronrod quadrature and the tolerance spec.

Each integral gets QUADPACK's (G7, K15) pair and error estimate (Piessens et
al. 1983) with batched panel refinement: the integrand receives the abscissae
of every pending panel as one ndarray, which keeps the polylogarithm
evaluations vectorized.  Many integrals, each over its own interval, run in
lockstep (:func:`adaptive_quad_rows`): they share only the integrand call of
each refinement level, and each keeps its own panels and returns the bits of
a lone :func:`adaptive_quad` call.  The row integrators call ``f(x, row)``
with ``x`` of shape (k, m), a panel or row per row, and ``row`` (k, 1).

The engine integrates the l = 0 Matsubara term and the untilted terms l >= 1
here.  Its tilted terms l >= 1 run :func:`gauss_rows`: per row a Gauss rule
in w and a coarser companion, doubled where their difference misses.

One driver, :func:`_refine`, advances the panels of all integrals, held in
flat arrays, a whole level at a time.  A BLAS product or a pairwise sum over
the panels of several integrals concatenated is not bit-stable, so integrals
with equal panel counts are stacked and reduced together, one group per
distinct count.  A level costs one integrand call and about 58 numpy calls
whatever its size: 5 to place the abscissae, 7 for the K15 and G7 products
(written in place into the new panels' rows) and the panel values and errors,
5 to merge the new panels into the table, 4 for the totals, 17 to decide
which panels to bisect and about 20 to bisect them.  Each further distinct
pending or total count adds 3, and unequal counts a handful more to sort by
count.  At the deep levels of a finite-T sum, with a few open integrals and
tens of panels, these calls and not the arithmetic set the cost of a level.

:func:`gauss_legendre` is the engine's one source of fixed rules (the T = 0
product rule's, the tilted Matsubara rows' and the optical-table nodes'),
built on first use per order.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

__all__ = ["QuadratureSpec", "ConvergenceError", "adaptive_quad", "adaptive_quad_rows",
           "gauss_legendre", "gauss_rows"]


class ConvergenceError(RuntimeError):
    """Raised when a quadrature or Matsubara truncation policy cannot be met."""


@dataclass(frozen=True)
class QuadratureSpec:
    """The target relative error ``rel_tol`` of a result, in [1e-12, 1e-4].

    Below 1e-12 the adaptive v-integrals, held to a tenth of it, ask more
    than the 15-digit (G7, K15) constants can report and refine to their
    panel cap.  The truncation policy follows from rel_tol and is not a
    setting: each v-integral runs to where the envelope ``v**2.5 * exp(-v)``
    is far below rel_tol of the integral (about v = 45 at the default), an
    adaptive integral (the l = 0 term, and every untilted Matsubara term)
    takes at most 4096 panels, a tilted Matsubara term's Gauss rule in w at
    most 2**16 nodes, and a Matsubara sum at most 100 000 terms.
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


def _kg_sums(vals: np.ndarray, count: np.ndarray, out: np.ndarray) -> None:
    """K15 and G7 sums of each panel into ``out`` rows 0 and 1, panel order kept.

    ``vals`` holds the 15 Kronrod values of each panel, ``count`` the panels of
    each integral, integral-major.  One stacked product per distinct count, so
    each integral's sums are those of a lone (panels, 15) product.
    """
    order, groups = _stacks(count)
    if order is not None:
        vals = vals.take(order, axis=0)
    kg = out if order is None else np.empty_like(out)
    start = 0
    for n, k in groups:
        stop = start + n * k
        blk = vals[start:stop].reshape(k, n, _XK.size)
        # a lone product reads the Gauss columns as a column-major copy
        gauss = blk[:, :, 1::2].transpose(0, 2, 1).copy().transpose(0, 2, 1)
        np.matmul(blk, _WK, out=kg[0, start:stop].reshape(k, n))
        np.matmul(gauss, _WG, out=kg[1, start:stop].reshape(k, n))
        start = stop
    if order is not None:
        out[:, order] = kg


def _panel_sums(est: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each integral's sums of the two rows of ``est`` over its panels, shape
    ``(2, len(count))``: one stacked pairwise sum per distinct panel count, so
    each is the sum of a lone integral's panels."""
    order, groups = _stacks(count)
    if order is None:
        n, k = groups[0]
        return np.add.reduce(est.reshape(2, k, n), axis=2)
    est = est.take(order, axis=1)
    parts, start = [], 0
    for n, k in groups:
        parts.append(np.add.reduce(est[:, start:start + n * k].reshape(2, k, n), axis=2))
        start += n * k
    sums = np.empty((2, count.size))
    sums[:, np.argsort(count, kind="stable")] = np.concatenate(parts, axis=1)
    return sums


def _refine(f, a: np.ndarray, b: np.ndarray, rel_tol: float, initial_panels: int) -> np.ndarray:
    """Adaptive (G7, K15) refinement of integrals, integral s over ``[a[s], b[s]]``.

    Each integral is held to ``rel_tol * |its total|`` on its own panels.  A
    panel is bisected where an open integral has over half its per-panel
    share of its budget, which one with a finite error sum always has.  The
    panels live in one table (rows lo, hi, value, error), each integral's
    contiguous: kept, left halves, right halves.  Each level is one call
    ``f(x, owner)``, shapes (panels, 15) and (panels, 1), and a fixed number
    of numpy calls, plus one stack per distinct pending and total panel count.

    Returns the totals stacked on the error estimates, shape ``(2, len(a))``.
    """
    # np.linspace(a, b, initial_panels + 1, axis=1) spelled out: its bits unless b - a underflows
    edges = np.arange(initial_panels + 1.0) * ((b - a) / initial_panels)[:, None] + a[:, None]
    edges[:, -1] = b
    new = np.empty((4, a.size * initial_panels))  # pending panels: lo, hi, value, error
    new[:2] = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    pend_owner = np.repeat(np.arange(a.size), initial_panels)
    # per live integral: its pending panels, and its panels in the table
    pend_count = count = np.full(a.size, initial_panels)
    live = np.arange(a.size)  # integrals still refining, ascending
    sums = np.empty((2, a.size))
    for level in range(_MAX_REFINEMENTS + 1):
        half = 0.5 * (new[1] - new[0])
        center = 0.5 * (new[0] + new[1])
        out = f(center[:, None] + half[:, None] * _XK, pend_owner[:, None])
        _kg_sums(out, pend_count, new[2:])
        new[2:] *= half
        np.subtract(new[2], new[3], out=new[3])
        np.abs(new[3], out=new[3])
        if level == 0:
            table, owner = new, pend_owner
        else:
            owner = np.concatenate([owner, pend_owner])
            order = np.argsort(owner, kind="stable")
            table = np.concatenate([table, new], axis=1).take(order, axis=1)
            owner = owner[order]
        total, err = live_sums = _panel_sums(table[2:], count)
        sums[:, live] = live_sums
        if level == _MAX_REFINEMENTS:
            break
        tol = rel_tol * np.abs(total)
        open_ = ~(err <= tol) & (count < _MAX_PANELS)  # NaN stays open
        slot = np.repeat(np.arange(live.size), count)
        # bisect every panel on which an open integral exceeds half its share of the budget
        bad = table[3] > np.where(open_, 0.5 * tol / count, np.inf)[slot]
        n_bad = np.bincount(slot, bad, live.size).astype(np.int64)
        # an integral with nothing to bisect (converged, out of panels, or a
        # NaN estimate) is done and leaves the table
        go = n_bad > 0
        if not go.any():
            break
        lo, hi = table[:2, bad]
        mid = 0.5 * (lo + hi)
        pend_owner = owner[bad]
        pend_owner = np.concatenate([pend_owner, pend_owner])
        order = np.argsort(pend_owner, kind="stable")
        new = np.empty((4, order.size))
        np.array([[lo, mid], [mid, hi]]).reshape(2, -1).take(order, axis=1, out=new[:2])
        pend_owner = pend_owner[order]
        keep = ~bad & go[slot]
        table, owner, live = table[:, keep], owner[keep], live[go]
        n_bad = n_bad[go]
        pend_count, count = 2 * n_bad, count[go] + n_bad
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
    return next(adaptive_quad_rows(lambda x, _: np.reshape(f(x.ravel()), x.shape), [a], [b],
                                   rel_tol, initial_panels))


def adaptive_quad_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b,
                       rel_tol: float = 1e-9,
                       initial_panels: int = 8) -> Iterator[tuple[float, float]]:
    """Integrate ``m`` scalar integrals, row i over ``[a[i], b[i]]``, in lockstep.

    Each row is its own :func:`adaptive_quad` integral, with its own panels,
    error budget and bisection decisions, so its value and error estimate
    carry the bits of a lone call.  What the rows share is the integrand
    call: at each refinement level the pending panels of every unfinished row
    go to ``f`` together, as ``f(x, row)``: ``x`` of shape (k, 15) holds the
    Kronrod abscissae of the k pending panels, one panel per row, ``row`` of
    shape (k, 1) the index of each panel's integral, and ``f`` returns ``x``'s
    shape.  The limits must be finite with ``b > a`` in every row, else
    ValueError naming the first row that breaks this.

    Returns an iterator of (value, error_estimate) float pairs in row order.
    The integrals are done when the call returns; a stalled row raises
    ConvergenceError, naming its index, only when the iterator reaches it, so
    a caller that stops early never sees the failure of a row it did not use.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    bad = ~(np.isfinite(a) & np.isfinite(b) & (b > a))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"integration limits must be finite with b > a, got a={a[i]}, "
                         f"b={b[i]} (row {i})")
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


# Gauss rows: a row stops climbing where its next rung would pass
# _ROW_MAX_NODES.  A rung's open rows go to f in calls of at most
# _ROW_CALL_ABSCISSAE abscissae (one row where its rule alone is larger):
# calls of a whole 64-row Matsubara block raised the peak memory of a sweep by
# about 0.5 MB.  Rules of up to _ROW_CACHED_NODES nodes are kept (2 MB full).
# The estimate is floored at 100 ulp of the row, as the T = 0 estimate is
_ROW_MAX_NODES = 2**16
_ROW_CALL_ABSCISSAE = 2**11
_ROW_CACHED_NODES = 2**12
_ROW_ROUNDOFF = 100.0 * sys.float_info.epsilon


@functools.lru_cache(maxsize=32)
def _w_rule(span: float, counts: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """A rule and its companion, Gauss-Legendre in w over [0, sqrt(span)]
    with v = zeta + w**2: read-only flat arrays of w**2 and of the weights
    2 w dw, the rule's counts[0] nodes first.  Neither depends on zeta."""
    top = math.sqrt(span)
    rules = []
    for n in counts:
        x, wx = gauss_legendre(n)
        w = 0.5 * top * (x + 1.0)
        rules.append((w * w, top * wx * w))
    arrays = tuple(np.concatenate(part) for part in zip(*rules))
    for x in arrays:
        x.flags.writeable = False
    return arrays


def gauss_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray], zetas: np.ndarray,
               span: float, counts: tuple[int, int],
               rel_tol: float) -> Iterator[tuple[float, float]]:
    """Integrate row i over [zetas[i], zetas[i] + span] by a ladder of Gauss rules in w.

    Rung 1 is the rule of ``counts[0]`` nodes in w, v = zetas[i] + w**2 over
    [0, sqrt(span)], and its companion of ``counts[1]``, in calls ``f(v, row)``
    as for :func:`adaptive_quad_rows`, ``v`` (rows, nodes).  A row's estimate is
    max(|rule - companion|, 100 ulp of the rule); the rows over ``rel_tol``
    of their value run again with both counts doubled.  Each row is summed on
    its own, so its bits do not depend on the other rows.  Returns an
    iterator of (value, estimate) in row order; the rows are done when the
    call returns, and a row whose value or estimate is not finite, or that is
    over its target when its next rung would pass _ROW_MAX_NODES, raises
    ConvergenceError naming it only when the iterator reaches it.
    """
    value = np.zeros(zetas.size)
    err = np.full(zetas.size, math.inf)
    todo = np.arange(zetas.size)
    while todo.size and sum(counts) <= _ROW_MAX_NODES:
        cached = sum(counts) <= _ROW_CACHED_NODES
        w2, wt = (_w_rule if cached else _w_rule.__wrapped__)(span, counts)
        per_call = max(1, _ROW_CALL_ABSCISSAE // w2.size)
        for start in range(0, todo.size, per_call):
            rows = todo[start:start + per_call]
            terms = f(zetas[rows, None] + w2, rows[:, None]) * wt
            # a row-wise pairwise sum: a product with the weights would give
            # a row other bits in a block of 1 or 3 rows
            fine = np.add.reduce(terms[:, :counts[0]], axis=1)
            coarse = np.add.reduce(terms[:, counts[0]:], axis=1)
            value[rows] = fine
            err[rows] = np.maximum(np.abs(fine - coarse), _ROW_ROUNDOFF * np.abs(fine))
        # NaN is neither met nor open: a non-finite row stops climbing
        todo = todo[err[todo] > rel_tol * np.abs(value[todo])]
        counts = (2 * counts[0], 2 * counts[1])
    return _met(value, err, rel_tol)


def _met(value: np.ndarray, err: np.ndarray, rel_tol: float) -> Iterator[tuple[float, float]]:
    """(value, estimate) per row; ConvergenceError, saying which, at the first row
    whose value or estimate is not finite or whose estimate is over rel_tol |value|."""
    for i, (val, e) in enumerate(zip(value.tolist(), err.tolist())):
        if not (math.isfinite(val) and e <= rel_tol * abs(val)):
            why = (f"over {rel_tol:.1e} of it at the cap of {_ROW_MAX_NODES} nodes"
                   if math.isfinite(val) and math.isfinite(e) else "not finite")
            raise ConvergenceError(f"Gauss row {i}: estimate {e:.3e} on integral {val:.3e}, {why}")
        yield val, e
