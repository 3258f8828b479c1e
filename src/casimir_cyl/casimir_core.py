r"""Matsubara summation and quadrature engine for the cylinder-plate force.

All integrands live in the dimensionless system (v, zeta, tau) with
tau = 4 pi k_B T a / (hbar c) and zeta_l = tau l; SI units enter only through
the prefactors at the result boundary.  The cylinder force per the
proximity-force approximation is

.. math::
   F(a,T) = -\frac{k_B T L}{4\sqrt{\pi}\,a^2}\sqrt{\frac{R}{2a}}
   \,{\sum_l}'\int_{\tau l}^\infty dv\, v^{3/2}
   \left[\mathrm{Li}_{1/2}(r_\mathrm{TM}^2 e^{-v})
       + \mathrm{Li}_{1/2}(r_\mathrm{TE}^2 e^{-v})\right],

its gradient carries ``v**2.5`` against ``Li_{-1/2}``, and the parallel-plate
pressure kernel ``v**2`` against ``Li_0``, the geometric sum
``v**2 / (exp(mu) - 1)``.  The l = 0 term (half weight) routes through the
material's zero-frequency channels, a ``ZeroFreqBehavior`` record -- mandatory
for Drude, whose permittivity diverges at zero frequency.  The terms l >= 1 are
computed in blocks of successive l, each term its own integral over
[zeta_l, zeta_l + span]: untilted, one lockstep adaptive quadrature per block,
all pending panels of the block in one kernel call per refinement level;
tilted (A > 0), a ladder of Gauss rules in w, v = zeta_l + w**2
(:func:`casimir_cyl.quadrature.gauss_rows`).  The untilted terms keep the
adaptive panels until the full-bit golden of an untilted sweep is regenerated.
The first block is sized from the decay exp(-tau l (1 - A)) of the terms, and
the three more that the stop rule reads, later ones from the last two; at most
64 rows each, as a block's kernel arrays set the peak memory.  The sum still
adds the terms one at a time in ascending l and stops on the same rule, and
each term is summed on its own, so the block sizes decide only how many terms
are computed.  T = 0 replaces the primed sum tau sum' I(tau l) by the integral
of I(zeta) over zeta = u**4, with v = w**2 inside: one tensor Gauss-Legendre
rule in (u, w) and a coarser companion, all nodes in one kernel call, whose
difference is the error estimate.  The node counts of the first rule grow
with the digits that rel_tol asks for.  Where its estimate misses rel_tol,
the same rule runs again with every node count doubled, rung by rung, until
one meets it or the next would pass a cap on the abscissae of one kernel call.

Three bounded caches serve a sweep.  The l = 0 term depends on the behavior,
the kernel, the tilt and rel_tol but not on a, so it is computed once per
(behavior, observable, tilt, rel_tol), in at most 256 entries, and a
separation sweep reuses it; only plasma's behavior, alpha = delta_0/(2a),
changes with a.  Where eps(i xi) does not depend on xi (the ideal metal and a
static dielectric), neither does the T = 0 integral depend on a, so it is
computed once per (model, observable, tilt, rel_tol), in at most 256 entries,
and every separation and every X(0) of a thermal correction scales it by its
prefactor.  The nodes and weights of a T = 0 rule depend only on the span and
the node counts, so each rule of up to 2**14 abscissae is built once and
kept, in at most 12 entries (about 4.8 MB full); force, gradient, every
separation and every X(0) at one tilt and rel_tol share it.

Force and gradient are two rows of one observable table: they differ only in
the kernel powers, the sign and the SI prefactor.  One function,
:func:`_evaluate`, runs either row at finite T or T = 0, parallel or tilted
(the length average of :mod:`casimir_cyl.tilt`).  The polarizations are axis 0
of one array, so each kernel evaluation is one polylog call.
"""
from __future__ import annotations

import functools
import math
import sys
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .constants import (BOLTZMANN_J_PER_K, HBAR_C_EV_NM, HBAR_C_J_M, HBAR_J_S,
                        SPEED_OF_LIGHT_M_S, SQRT_PI)
from .dielectric import (PermittivityModel, ZeroFreqBehavior, eps_imag_axis,
                         static_permittivity, zero_frequency_character)
from .quadrature import (ConvergenceError, QuadratureSpec, adaptive_quad,
                         adaptive_quad_rows, gauss_legendre, gauss_rows)
from .reflection import log_r2_pair, zero_frequency_mu_terms
# polylog is unused here: bench/tracer.py wraps it as an attribute of this module
from .specfun import polylog, polylog_exp_neg  # noqa: F401

__all__ = [
    "Geometry", "ThermalState", "ForceResult", "PFAValidityWarning",
    "plate_pressure", "cylinder_force", "cylinder_force_gradient",
    "zero_temperature_force", "zero_temperature_gradient",
    "high_temperature_force", "high_temperature_gradient",
    "thermal_correction", "ideal_metal_force_t0", "ideal_metal_gradient_t0",
    "matsubara_reduce", "zero_temperature_reduce",
]

# PFA error model 0.3*a/R assumes a << R
PFA_WARN_RATIO = 0.05


class PFAValidityWarning(UserWarning):
    """Separation is no longer small against the cylinder radius."""


@dataclass(frozen=True)
class Geometry:
    """Cylinder-plate configuration: separation a, radius R, length L (meters)."""

    a: float
    R: float
    L: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) and x > 0.0 for x in (self.a, self.R, self.L)):
            raise ValueError("a, R and L must all be positive and finite, "
                             f"got a={self.a}, R={self.R}, L={self.L}")

    @property
    def pfa_warning(self) -> bool:
        """True when a/R exceeds 0.05 and the PFA error model degrades."""
        # tolerance keeps an exact-boundary ratio from warning on float noise
        return self.a / self.R > PFA_WARN_RATIO * (1.0 + 1e-12)


def _tau(temperature: float, a: float) -> float:
    """tau = 4 pi k_B T a/(hbar c); raises where it underflows to 0 at T > 0."""
    tau = 4.0 * math.pi * BOLTZMANN_J_PER_K * temperature * a / (
        HBAR_J_S * SPEED_OF_LIGHT_M_S)
    if tau == 0.0 and temperature > 0.0:
        raise ValueError(f"tau = 4 pi k_B T a/(hbar c) underflows to 0 at "
                         f"T = {temperature} K and a = {a} m")
    return tau


def _check_temperature(temperature: float) -> None:
    if not (math.isfinite(temperature) and temperature >= 0.0):
        raise ValueError(f"temperature must be finite and nonnegative, got {temperature}")


@dataclass(frozen=True)
class ThermalState:
    """Temperature T (K); one state serves every separation of a sweep.

    The Matsubara scale tau = 4 pi k_B T a/(hbar c) depends on a, so each
    evaluation forms it from T and its geometry.
    """

    temperature: float

    def __post_init__(self) -> None:
        _check_temperature(self.temperature)

    @classmethod
    def at(cls, temperature: float, geometry: Geometry) -> "ThermalState":
        """The state at T, rejected where tau underflows at this geometry's a."""
        _tau(temperature, geometry.a)
        return cls(temperature)


_ZERO_T = ThermalState(0.0)


@dataclass(frozen=True)
class ForceResult:
    """Signed result in SI units with convergence diagnostics.

    ``value`` is the total force (N, negative = attraction) or gradient
    (N/m, positive); ``per_length`` is value/L.  ``l_used`` is the last
    Matsubara index added (0 for the continuous T = 0 integral).
    ``truncation_estimate`` is relative to the value: at finite T the
    magnitude of the last few terms, a same-order estimate of the neglected
    tail (each term is held to a tenth of ``rel_tol``: by adaptive panels
    for l = 0 and untilted, by a Gauss ladder in w for l >= 1 tilted);
    at T = 0 the difference of the product rule from its coarser
    companion, at least 100 ulp, on the first rung of the node-doubling
    ladder that meets ``rel_tol``.  Rung 1 is sized from the digits of
    ``rel_tol``, so the T = 0 estimate and error follow it: at the default
    the estimates run up to 1.6e-10 and the errors up to 3.4e-12.

    Two under-reports are known:

    * finite T, where the terms decay slowly and the tail is far longer than
      the last few terms.  At the default ``rel_tol``, against the same call
      at 1e-12, the ideal metal at 100 nm tilted to A = 0.9 reports 2.9e-9
      for a true error of 5.9e-8, and Drude at 100 nm and 3 K reports 3.0e-9
      for 5.3e-7;
    * T = 0, where the companion difference sits below the true error in 17
      of 3 744 grid cases (six models, 100-2000 nm, A up to 0.9, force and
      gradient, rel_tol 1e-4 to 1e-12), by up to 48x; each of those errors
      is at most 8.6e-3 ``rel_tol``.
    """

    value: float
    per_length: float
    l_used: int
    truncation_estimate: float


def _warn_pfa(geometry: Geometry, stacklevel: int = 3) -> None:
    """Warn when a/R is past the PFA error model; stacklevel names the caller."""
    if geometry.pfa_warning:
        warnings.warn(
            f"a/R = {geometry.a / geometry.R:.3g} exceeds {PFA_WARN_RATIO}; "
            "the proximity-force approximation degrades",
            PFAValidityWarning, stacklevel=stacklevel)


# ---------------------------------------------------------------------------
# the observable table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Observable:
    """One PFA observable: the kernel ``v**p Li_s(r^2 e^-v)`` and its SI scale.

    The prefactor is ``sign k_B T L / (4 sqrt(pi) a**a_power)`` at finite T
    and ``sign hbar c L / (16 pi**1.5 a**(a_power + 1))`` at T = 0, both times
    sqrt(R/2a).  The high-temperature asymptote is the l = 0 term alone, in
    closed form but for plasma's TE channel: that one counts at r^2 = 1, and
    the sum is multiplied by ``1 - c1 x + c2 x**2`` in the skin-depth ratio
    x = delta_0/a, ``skin_depth = (c1, c2)``.
    """

    v_power: float
    li_order: float
    sign: float
    a_power: int
    skin_depth: tuple[float, float]


_FORCE = _Observable(1.5, 0.5, -1.0, 2, (2.5, 8.75))
_GRADIENT = _Observable(2.5, -0.5, 1.0, 3, (3.5, 15.75))
_OBSERVABLES = {"force": _FORCE, "gradient": _GRADIENT}


# ---------------------------------------------------------------------------
# integrand kernels
# ---------------------------------------------------------------------------

def _li_kernel(v, mu, p: float, s: float, a_theta: float):
    """The kernel ``v**p Li_s(r^2 e^-v)`` summed over polarization channels.

    ``mu`` holds the exponents mu = v - ln r^2, one channel per row of axis 0,
    at every tilt.  At A = a_theta = 0 the kernel is ``v**p sum Li_s(e^-mu)``.
    At A > 0 the length average sinh(A n v)/(A n v) of each n-th summand folds,
    with h = A v, into ``sum [Li_{s+1}(e^{-(mu-h)}) - Li_{s+1}(e^{-(mu+h)})]
    / (2A v**(1-p))``.  One polylog call covers all channels and both tilt
    arguments, with the bits of separate calls.
    """
    A = a_theta
    if A == 0.0:
        return v**p * polylog_exp_neg(s, mu).sum(axis=0)
    h = A * v
    args = np.empty((2,) + mu.shape)
    np.subtract(mu, h, out=args[0])
    np.add(mu, h, out=args[1])
    li = polylog_exp_neg(s + 1.0, args)
    return v**(p - 1.0) / (2.0 * A) * (li[0] - li[1]).sum(axis=0)


# ---------------------------------------------------------------------------
# reduction drivers
# ---------------------------------------------------------------------------

# successive terms below rel_tol of the partial sum that end the Matsubara sum
_CONSECUTIVE_BELOW = 3
_V_TOL_SHARE = 0.1  # of rel_tol, per v-integral of the sum: the l = 0 term and each block row
# fewest Matsubara terms in a first block, and most in any block: the kernel
# arrays of one block set the peak memory of a finite-T point
_FIRST_BLOCK = 16
_MAX_BLOCK = 64
_MAX_TERMS = 100_000  # Matsubara terms before a sum is declared not converged


def _span(rel_tol: float, a_theta: float) -> float:
    """Length of each v-window past its lower limit: where the envelope
    v**2.5 exp(-v) has dropped far below rel_tol of the integral (at least 45,
    growing as ln(1/rel_tol)), widened by 1/(1 - a_theta) for the slower
    exp(-v(1 - a_theta)) decay of a tilt."""
    return max(45.0, -math.log(rel_tol) + 25.0) / (1.0 - a_theta)


def _first_block(decay: float, rel_tol: float) -> int:
    """Size of the first block for terms falling as exp(-decay l): 1.2 times
    the ln(1/(rel_tol decay))/decay terms until they drop to rel_tol of their
    sum, about 1/decay times the first, and the _CONSECUTIVE_BELOW read after
    them by the stop rule, within [_FIRST_BLOCK, _MAX_BLOCK]."""
    steps = 1.2 * (-math.log(rel_tol) - math.log(decay)) / decay + _CONSECUTIVE_BELOW
    return max(_FIRST_BLOCK, math.ceil(min(steps, _MAX_BLOCK)))


def _next_block(recent: deque, target: float) -> int:
    """Terms left until the stop rule holds, if they keep the last ratio.

    The terms decay geometrically, so the ratio q of the last two predicts
    how many more fall below ``target`` (``rel_tol * |sum|``), plus the
    ``_CONSECUTIVE_BELOW`` that must follow; capped, like every block, at
    ``_MAX_BLOCK`` rows, which bounds the kernel arrays and so peak memory.
    """
    if len(recent) < 2:
        return _MAX_BLOCK
    last, prev = recent[-1], recent[-2]
    if not (last < prev and target > 0.0):
        return _MAX_BLOCK
    if last <= target:
        return _CONSECUTIVE_BELOW
    steps = math.log(target / last) / math.log(last / prev)
    return min(_MAX_BLOCK, math.ceil(steps) + _CONSECUTIVE_BELOW)


def matsubara_reduce(block_integrals: Callable[[int, int], Iterable[float]],
                     zero_integral: float, quad: QuadratureSpec, first_block: int = _FIRST_BLOCK,
                     tau: float | None = None) -> tuple[float, int, float]:
    """Primed Matsubara sum: 0.5 * zero_integral + sum_{l>=1} I(tau l).

    ``block_integrals(l0, count)`` returns the v-integrals of l0, ...,
    l0 + count - 1 as an iterable in ascending l.  Terms are accumulated one
    at a time in ascending l; the sum truncates once the term magnitude
    stays below ``rel_tol`` of the partial sum for ``_CONSECUTIVE_BELOW``
    successive l, and the rest of that block is not read.  The first block
    has ``first_block`` terms (:func:`_first_block` sizes it from the decay);
    later ones are sized by :func:`_next_block`, at most ``_MAX_BLOCK``, and
    never reach past ``_MAX_TERMS``.  The block sizes decide only how many
    terms are computed, never the sum, ``l_used`` or the estimate; a term's
    ConvergenceError is raised again led by l (and zeta_l, given ``tau``).

    Returns
    -------
    (sum, l_used, truncation_estimate)
    """
    total = 0.5 * zero_integral
    recent: deque[float] = deque(maxlen=_CONSECUTIVE_BELOW)
    below = 0
    l = 0
    count = first_block
    while True:
        count = min(count, _MAX_TERMS - l)
        if count == 0:
            raise ConvergenceError(
                f"Matsubara sum not converged after {_MAX_TERMS} terms")
        try:
            for term in block_integrals(l + 1, count):
                l += 1
                total += term
                recent.append(abs(term))
                below = below + 1 if abs(term) < quad.rel_tol * abs(total) else 0
                if below >= _CONSECUTIVE_BELOW:
                    trunc = sum(recent) / abs(total) if total != 0.0 else 0.0
                    return total, l, trunc
        except ConvergenceError as exc:
            zeta = "" if tau is None else f", zeta_l = {tau * (l + 1):.6g}"
            raise ConvergenceError(f"Matsubara term l = {l + 1}{zeta}: {exc}") from exc
        count = _next_block(recent, quad.rel_tol * abs(total))


# T = 0 product rule: Gauss nodes per unit of u = zeta**(1/4), the share of
# them in its coarser companion, and the nodes in w of both, all of which
# rung 1 takes at 12 digits, the least rel_tol (1e-12) that QuadratureSpec
# accepts.  A Gauss rule's error falls geometrically with its node count, so
# the nodes needed grow linearly with the digits d = -log10(rel_tol): below
# 12, rung 1 takes the share (d + c)/(12 + c) of the u density and of the w
# nodes, c = 1.5 for u and -1.5 for w.  That fits the companion's worst estimate over six models at
# 100-2000 nm, A <= 0.9, force and gradient, which meets rel_tol with about
# 55%/45% of the u/w counts at d = 6, 75%/70% at d = 9 and 90%/90% at d = 11.
# Each rung of the ladder doubles all four counts; the cap on the abscissae of
# one kernel call leaves four rungs at A = 0 and three at A = 0.995, the top
# one near 60 MB.  The estimate is floored at the roundoff of sums over some
# 5000 nodes
_T0_U_DENSITY = 19.0
_T0_COARSE_U = 5.0 / 6.0
_T0_W_NODES = (64, 48)
_T0_FULL_DIGITS = 12.0
_T0_DIGIT_OFFSETS = (1.5, -1.5)
_T0_MAX_ABSCISSAE = 2**19
_T0_ROUNDOFF = 100.0 * sys.float_info.epsilon


def _digit_shares(rel_tol: float) -> tuple[float, float]:
    """The shares (d + c)/(12 + c) of the full u density and w nodes that
    rung 1 takes at d = -log10(rel_tol) digits, one offset c per direction."""
    digits = -math.log10(rel_tol)
    share_u, share_w = ((digits + c) / (_T0_FULL_DIGITS + c) for c in _T0_DIGIT_OFFSETS)
    return share_u, share_w


def zero_temperature_reduce(kernel_rows, span: float,
                            quad: QuadratureSpec) -> tuple[float, float]:
    """T = 0 limit of the primed sum tau sum' I(tau l): J = int_0^span dzeta I(zeta).

    I(zeta) = int_zeta^{zeta+span} dv K(v, zeta), as in a Matsubara term.  The
    outer integral runs over zeta = u**4, weight 4 u**3, which grades its nodes
    toward zeta = 0, where I(zeta) is not smooth in sqrt(zeta); the inner ones
    over v = w**2, w from u**2 = sqrt(zeta), which smooths the v**(1/2)-type
    behavior of the metallic kernels.  On these maps the integrand is analytic
    and a Gauss rule converges geometrically, so J comes from a ladder of
    tensor Gauss-Legendre rules (:func:`_t0_product_rule`).  Rung 1 takes
    the share (d + c)/(12 + c), at most 1 as rel_tol >= 1e-12, of
    ceil(_T0_U_DENSITY span**(1/4)) u nodes and of _T0_W_NODES w nodes, with
    d = -log10(rel_tol) and one offset c per direction (_T0_DIGIT_OFFSETS);
    so it grows with the digits asked for, and with the span and so with
    1/(1 - A) of a tilt.  Each further rung doubles every node count of the
    rule and its companion.  The first rung whose estimate is
    <= ``quad.rel_tol`` gives J.  The integrand ``f(v, row)`` is
    ``kernel_rows(zetas)``, one row per zeta.

    Returns (J, relative error estimate).  Raises ConvergenceError when J or
    its estimate is not finite, or when the next rung would pass
    _T0_MAX_ABSCISSAE abscissae.
    """
    share_u, share_w = _digit_shares(quad.rel_tol)
    n_u = math.ceil(share_u * _T0_U_DENSITY * math.sqrt(math.sqrt(span)))
    counts = ((n_u, math.ceil(share_w * _T0_W_NODES[0])),
              (math.ceil(_T0_COARSE_U * n_u), math.ceil(share_w * _T0_W_NODES[1])))
    rel = math.inf
    while sum(n * m for n, m in counts) <= _T0_MAX_ABSCISSAE:
        value, rel = _t0_product_rule(kernel_rows, span, counts)
        if not (math.isfinite(value) and math.isfinite(rel)):
            raise ConvergenceError(f"T = 0 integral {value} has estimate {rel}")
        if rel <= quad.rel_tol:
            return value, rel
        counts = tuple((2 * n, 2 * m) for n, m in counts)
    raise ConvergenceError(
        f"T = 0 integral: estimate {rel:.3e} above rel_tol {quad.rel_tol:.3e}, "
        f"and the next rule would exceed {_T0_MAX_ABSCISSAE} abscissae")


def _t0_rule_nodes(span: float, n_u: int, n_w: int):
    """Flat nodes of one T = 0 tensor Gauss-Legendre rule in (u, w).

    n_u nodes in u over [0, span**(1/4)], weight 4 u**3, and n_w nodes in w
    over [u**2, sqrt(u**4 + span)] for each u, weight 2 w.  Returns the zeta
    = u**4 of each u node and, per abscissa, v = w**2, the index of its zeta
    and its product weight, so that J = weight @ K(v, zeta[row]).
    """
    top = math.sqrt(math.sqrt(span))
    xu, wu = gauss_legendre(n_u)
    xw, ww = gauss_legendre(n_w)
    u = 0.5 * top * (xu + 1.0)
    root = u * u
    zetas = root * root
    half = 0.5 * (np.sqrt(zetas + span) - root)
    w = root[:, None] + half[:, None] * (xw + 1.0)
    weight = (0.5 * top * wu * 4.0 * u * root * half)[:, None] * (ww * 2.0 * w)
    return zetas, (w * w).ravel(), np.repeat(np.arange(n_u), n_w), weight.ravel()


# Rules of up to _T0_CACHED_ABSCISSAE abscissae are kept.  Larger ones, the
# upper rungs of the ladder at a steep tilt or at rel_tol near 1e-12 (up to
# _T0_MAX_ABSCISSAE), are built per call and not stored.  Full, the cache
# holds at most about 4.8 MB (12 entries of 2**14 abscissae, measured with
# tracemalloc); the default rel_tol at A = 0 takes one entry of about 75 kB
_T0_RULE_CACHE_SIZE = 12
_T0_CACHED_ABSCISSAE = 2**14


@functools.lru_cache(maxsize=_T0_RULE_CACHE_SIZE)
def _t0_rule(span: float, counts) -> tuple[np.ndarray, ...]:
    """A T = 0 rule and its companion (see :func:`_t0_rule_nodes`) as flat,
    read-only arrays: the zeta of every u node of both, then v and the row
    index of every abscissa, the companion's rows offset by the rule's u
    count, then the weights of the rule and of the companion."""
    (z_f, v_f, row_f, wt_f), (z_c, v_c, row_c, wt_c) = (
        _t0_rule_nodes(span, n_u, n_w) for n_u, n_w in counts)
    arrays = (np.concatenate((z_f, z_c)), np.concatenate((v_f, v_c)),
              np.concatenate((row_f, row_c + z_f.size)), wt_f, wt_c)
    for x in arrays:
        x.flags.writeable = False
    return arrays


def _t0_product_rule(kernel_rows, span: float, counts) -> tuple[float, float]:
    """J by a tensor Gauss-Legendre rule, with a coarser companion as its check.

    ``counts`` holds (n_u, n_w) of the rule, then of its companion (see
    :func:`_t0_rule_nodes`).  The nodes of both go to one kernel call,
    eps(i xi) once per u node.  Rules of up to _T0_CACHED_ABSCISSAE
    abscissae come from the bounded cache :func:`_t0_rule`.

    Returns (J, max(|J - J_coarse| / |J|, _T0_ROUNDOFF)).
    """
    cached = sum(n * m for n, m in counts) <= _T0_CACHED_ABSCISSAE
    zetas, v, rows, wt_f, wt_c = (_t0_rule if cached else _t0_rule.__wrapped__)(
        span, counts)
    vals = kernel_rows(zetas)(v, rows)
    fine, coarse = float(wt_f @ vals[:wt_f.size]), float(wt_c @ vals[wt_f.size:])
    rel = abs(fine - coarse) / abs(fine) if fine != 0.0 else math.inf
    return fine, max(rel, _T0_ROUNDOFF)


# Tilted Matsubara rows (A > 0): rung 1 of their Gauss ladder in w
# (:func:`casimir_cyl.quadrature.gauss_rows`) takes the w share of _T0_W_NODES
# at the digits of rel_tol, times (span / the span at A = 0)**(1/4), about
# (1 - A)**(-1/4).  A row's kernel is singular near w = i sqrt(zeta_l), where
# mu - A v vanishes, and a Gauss rule over [0, sqrt(span)] needs about
# (span / zeta_l)**(1/4) times the nodes for it.  On 1 440 grid cases (five
# models, 100-2000 nm, A up to 0.99, rel_tol 1e-4 to 1e-12, 300 and 30 K)
# rows climbed past rung 1 at 12%, 0.12%, 0.05% and 2.5% at rel_tol 1e-4,
# 1e-6, 1e-9 and 1e-12, and the grid took 26 s, against 59 s with the power 1/2
def _row_counts(span: float, rel_tol: float) -> tuple[int, int]:
    """Rung-1 w nodes of a tilted row rule and of its companion."""
    share = _digit_shares(rel_tol)[1] * math.sqrt(math.sqrt(span / _span(rel_tol, 0.0)))
    return math.ceil(share * _T0_W_NODES[0]), math.ceil(share * _T0_W_NODES[1])


# A sweep needs one l = 0 key per observable, tilt and rel_tol, plasma one per
# separation too; the bound keeps a long plasma sweep or a tilt scan from
# growing the cache for the life of the process (full, it holds about 80 kB).
_ZERO_FREQ_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_ZERO_FREQ_CACHE_SIZE)
def _zero_freq_term(behavior: ZeroFreqBehavior, p: float, s: float, a_theta: float,
                    rel_tol: float) -> float:
    """The l = 0 v-integral of ``v**p Li_s`` over v = w**2, once per key (the
    span follows from rel_tol and the tilt).  lru_cache stores no exception,
    so a failed integral raises on every call."""
    def integrand(w):
        v = w * w
        return 2.0 * w * _li_kernel(v, zero_frequency_mu_terms(behavior, v), p, s, a_theta)
    val, _ = adaptive_quad(integrand, 0.0, math.sqrt(_span(rel_tol, a_theta)),
                           rel_tol=rel_tol * _V_TOL_SHARE)
    return val


def _kernel_rows(model: PermittivityModel, omega_c_ev: float, p: float, s: float,
                 a_theta: float):
    """The integrand of both reductions: ``kernel_rows(zetas)`` is ``f(v, row)``,
    the kernel at zeta = zetas[row], with eps(i xi) at xi = zeta omega_c
    evaluated once per frequency.  The ideal metal (eps = +inf, r^2 = 1 in
    both channels) takes one channel, mu = v, doubled, and no eps: the same
    bits, as 2 (c x) == c x + c x."""
    if static_permittivity(model) == math.inf:
        return lambda zetas: lambda v, row: 2.0 * _li_kernel(v, v[None], p, s, a_theta)
    def kernel_rows(zetas: np.ndarray):
        eps = eps_imag_axis(model, zetas * omega_c_ev)
        return lambda v, row: _li_kernel(v, v - log_r2_pair(v, zetas[row], eps[row]),
                                         p, s, a_theta)
    return kernel_rows


# A sweep needs one T = 0 key per static model, observable, tilt and rel_tol;
# the bound keeps a tilt scan from growing the cache for the life of the
# process (full, it holds about 50 kB, measured with tracemalloc)
_STATIC_T0_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_STATIC_T0_CACHE_SIZE)
def _static_t0_integral(model: PermittivityModel, p: float, s: float, a_theta: float,
                        rel_tol: float) -> tuple[float, float]:
    """J and its estimate for a model of frequency-independent eps, which does
    not depend on a: once per key.  eps ignores the frequency scale, so any
    positive one (1 eV) gives the bits of every separation.  lru_cache stores
    no exception, so a failed integral raises on every call."""
    return zero_temperature_reduce(_kernel_rows(model, 1.0, p, s, a_theta),
                                   _span(rel_tol, a_theta), QuadratureSpec(rel_tol))


def _reduce(p: float, s: float, model: PermittivityModel, a: float, tau: float,
            quad: QuadratureSpec, a_theta: float = 0.0) -> tuple[float, int, float]:
    """Matsubara sum (tau > 0) or T = 0 integral of the kernel ``v**p Li_s``.

    Every v-window is :func:`_span` long.  The l = 0 term is computed once per
    (behavior, p, s, a_theta, rel_tol) by :func:`_zero_freq_term`, so a
    separation sweep reuses it, except for plasma, whose behavior carries
    alpha = delta_0/(2a).  So is the T = 0 integral of the ideal metal and of
    a static dielectric, by :func:`_static_t0_integral`.  Returns (total,
    l_used, error estimate).
    """
    if tau == 0.0 and static_permittivity(model) is not None:
        total, rel = _static_t0_integral(model, p, s, a_theta, quad.rel_tol)
        return total, 0, rel
    kernel_rows = _kernel_rows(model, HBAR_C_EV_NM / (2.0 * (a * 1e9)), p, s, a_theta)
    span = _span(quad.rel_tol, a_theta)
    if tau == 0.0:
        total, rel = zero_temperature_reduce(kernel_rows, span, quad)
        return total, 0, rel

    def block(l0: int, count: int) -> Iterator[float]:
        # one lockstep quadrature: each row is the lone term's integral, bit for bit
        zetas = tau * np.arange(l0, l0 + count)
        ends = zetas + span
        if np.any(ends <= zetas):
            raise ValueError(f"separation a = {a} m at T = {tau / _tau(1.0, a):.6g} K gives "
                             f"tau = {tau:.6g}, so large that zeta_l + {span:.3g} rounds "
                             "to zeta_l")
        if a_theta > 0.0:
            rows = gauss_rows(kernel_rows(zetas), zetas, span, _row_counts(span, quad.rel_tol),
                              quad.rel_tol * _V_TOL_SHARE)
        else:
            rows = adaptive_quad_rows(kernel_rows(zetas), zetas, ends,
                                      rel_tol=quad.rel_tol * _V_TOL_SHARE, initial_panels=4)
        return (val for val, _ in rows)

    try:
        zero = _zero_freq_term(zero_frequency_character(model, a), p, s, a_theta, quad.rel_tol)
    except ConvergenceError as exc:
        raise ConvergenceError(f"Matsubara term l = 0, zeta_l = 0: {exc}") from exc
    return matsubara_reduce(block, zero, quad,
                            _first_block(tau * (1.0 - a_theta), quad.rel_tol), tau)


def _evaluate(obs: _Observable, geometry: Geometry, thermal: ThermalState,
              model: PermittivityModel, quad: QuadratureSpec | None,
              a_theta: float = 0.0) -> ForceResult:
    """One observable of the table, by Matsubara sum or, at T = 0, frequency integral.

    ``a_theta`` > 0 averages the kernel over the length of a tilted cylinder.
    """
    quad = quad or QuadratureSpec()
    tau = _tau(thermal.temperature, geometry.a)
    prefactor = _prefactor(obs, geometry, thermal.temperature)
    _warn_pfa(geometry, stacklevel=4)
    total, l_used, err = _reduce(obs.v_power, obs.li_order, model, geometry.a,
                                 tau, quad, a_theta)
    value = prefactor * total
    return ForceResult(value, value / geometry.L, l_used, err)


def _si_factor(a: float, form: Callable[[], float]) -> float:
    """``form()``, an SI factor at separation a; raises ValueError naming a
    where a power of a overflows or the factor comes out zero, subnormal (with
    digits lost) or not finite."""
    try:
        factor = form()
    except (OverflowError, ZeroDivisionError):
        factor = math.nan
    if not sys.float_info.min <= abs(factor) < math.inf:
        raise ValueError(f"separation a = {a} m puts the SI prefactor out of the "
                         "normal float range")
    return factor


def _prefactor(obs: _Observable, geometry: Geometry, temperature: float) -> float:
    """The SI factor of the observable's dimensionless sum or T = 0 integral."""
    a, R, L = geometry.a, geometry.R, geometry.L

    def form() -> float:
        if temperature == 0.0:
            scale = HBAR_C_J_M * L / (16.0 * math.pi**1.5 * a**(obs.a_power + 1))
        else:
            scale = (BOLTZMANN_J_PER_K * temperature * L
                     / (4.0 * SQRT_PI * a**obs.a_power))
        return obs.sign * scale * math.sqrt(R / (2.0 * a))
    return _si_factor(a, form)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def cylinder_force(geometry: Geometry, thermal: ThermalState,
                   model: PermittivityModel,
                   quad: QuadratureSpec | None = None) -> ForceResult:
    """Casimir force (N, negative) on the cylinder at temperature T.

    At T = 0 this is :func:`zero_temperature_force`; otherwise it runs the
    primed Matsubara sum of polylogarithm v-integrals.  Temperatures so low
    that the sum cannot truncate within 100 000 terms raise
    ConvergenceError; the T = 0 limit should be requested exactly.
    """
    return _evaluate(_FORCE, geometry, thermal, model, quad)


def cylinder_force_gradient(geometry: Geometry, thermal: ThermalState,
                            model: PermittivityModel,
                            quad: QuadratureSpec | None = None) -> ForceResult:
    """Force gradient dF/da (N/m, positive) at temperature T."""
    return _evaluate(_GRADIENT, geometry, thermal, model, quad)


def zero_temperature_force(geometry: Geometry, model: PermittivityModel,
                           quad: QuadratureSpec | None = None) -> ForceResult:
    """T = 0 force from the continuous-frequency integral."""
    return _evaluate(_FORCE, geometry, _ZERO_T, model, quad)


def zero_temperature_gradient(geometry: Geometry, model: PermittivityModel,
                              quad: QuadratureSpec | None = None) -> ForceResult:
    """T = 0 force gradient from the continuous-frequency integral."""
    return _evaluate(_GRADIENT, geometry, _ZERO_T, model, quad)


def plate_pressure(a: float, temperature: float, model: PermittivityModel,
                   quad: QuadratureSpec | None = None) -> float:
    """Parallel-plate Casimir pressure (Pa, negative = attractive).

    The per-strip kernel behind the PFA integrals; kept public both as the
    physical pressure and as an oracle surface (ideal metal at T = 0 must
    recover -pi^2 hbar c/(240 a^4)).
    """
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"separation must be positive and finite, got {a}")
    _check_temperature(temperature)
    quad = quad or QuadratureSpec()
    tau = _tau(temperature, a)
    scale = _si_factor(a, lambda: HBAR_C_J_M / (32.0 * math.pi**2 * a**4)
                       if temperature == 0.0
                       else BOLTZMANN_J_PER_K * temperature / (8.0 * math.pi * a**3))
    # the geometric sum v**2 / (exp(mu) - 1) is the kernel with (p, s) = (2, 0)
    total, _, _ = _reduce(2.0, 0.0, model, a, tau, quad)
    return -scale * total


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def ideal_metal_force_t0(geometry: Geometry) -> float:
    """Ideal-metal T = 0 force: -pi^3 hbar c L/(384 a^3) sqrt(R/2a); raises
    ValueError naming a where it leaves the normal float range."""
    a, R, L = geometry.a, geometry.R, geometry.L
    return _si_factor(a, lambda: -math.pi**3 * HBAR_C_J_M * L / (384.0 * a**3)
                      * math.sqrt(R / (2.0 * a)))


def ideal_metal_gradient_t0(geometry: Geometry) -> float:
    """Ideal-metal T = 0 gradient: 7 pi^3 hbar c L/(768 a^4) sqrt(R/2a); raises
    ValueError naming a where it leaves the normal float range."""
    a, R, L = geometry.a, geometry.R, geometry.L
    return _si_factor(a, lambda: 7.0 * math.pi**3 * HBAR_C_J_M * L / (768.0 * a**4)
                      * math.sqrt(R / (2.0 * a)))


def _high_temperature(obs: _Observable, geometry: Geometry, temperature: float,
                      behavior: ZeroFreqBehavior) -> float:
    """The l = 0 term at half weight: a channel of constant r^2 integrates to
    Gamma(p + 1) Li_{s+p+1}(r^2), read from the channel record at v = 0 (where
    plasma's TE channel has r^2 = 1), and the skin-depth factor scales the
    sum.  It is the T -> infinity form, so T must be positive."""
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValueError("the high-temperature asymptote needs a finite T > 0, "
                         f"got T = {temperature}")
    order = obs.v_power + obs.li_order + 1.0
    li = float(polylog_exp_neg(order, zero_frequency_mu_terms(behavior, np.zeros(1))).sum())
    if behavior.alpha is not None:
        x = 2.0 * behavior.alpha  # alpha = delta_0/(2a)
        if not x < 0.5:
            raise ValueError(
                f"skin-depth expansion invalid: delta_0/a = {x} is not in [0, 0.5)")
        c1, c2 = obs.skin_depth
        li *= 1.0 - c1 * x + c2 * x**2
    return (_prefactor(obs, geometry, temperature)
            * (0.5 * math.gamma(obs.v_power + 1.0) * li))


def high_temperature_force(geometry: Geometry, temperature: float,
                           behavior: ZeroFreqBehavior) -> float:
    """Closed-form high-temperature (zero-frequency) force asymptote (N).

    The l = 0 term of ``behavior`` alone: ideal metal, Drude-like (exactly half
    the ideal value), static dielectric through Li_3(r0^2), and plasma with
    the skin-depth expansion through second order.  Raises ValueError unless
    T > 0: the asymptote is the T -> infinity form.
    """
    return _high_temperature(_FORCE, geometry, temperature, behavior)


def high_temperature_gradient(geometry: Geometry, temperature: float,
                              behavior: ZeroFreqBehavior) -> float:
    """Closed-form high-temperature gradient asymptote (N/m)."""
    return _high_temperature(_GRADIENT, geometry, temperature, behavior)


def thermal_correction(geometry: Geometry, model: PermittivityModel,
                       quad: QuadratureSpec | None = None,
                       which: str = "force",
                       temperature: float = 300.0) -> float:
    """Relative thermal correction [X(a,T) - X(a,0)] / X(a,T).

    ``which`` selects the force or its gradient; the reference temperature
    defaults to 300 K.  Negative for the Drude approach at short separations,
    positive for the plasma approach.
    """
    if which not in _OBSERVABLES:
        raise ValueError("which must be 'force' or 'gradient'")
    if temperature == 0.0:
        return 0.0
    obs = _OBSERVABLES[which]
    x_t = _evaluate(obs, geometry, ThermalState(temperature), model, quad).value
    x_0 = _evaluate(obs, geometry, _ZERO_T, model, quad).value
    return (x_t - x_0) / x_t
