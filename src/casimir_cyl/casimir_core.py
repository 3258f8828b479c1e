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
zero-frequency reflection behavior of the material model -- mandatory for
Drude, whose permittivity diverges at zero frequency.  The terms l >= 1 are
computed in blocks of successive l, one lockstep quadrature per block: each
term keeps its own integral over [zeta_l, zeta_l + span], and all pending
panels of the block go to the kernel in one call per refinement level.  The
first block is sized from the decay exp(-tau l (1 - A)) of the terms, later
ones from the last two; at most 64 rows each, as a block's kernel arrays set
the peak memory.  The sum still adds the terms one at a time in ascending l
and stops on the same rule, so the block sizes decide only how many terms are
computed.  T = 0 replaces the primed sum tau sum' I(tau l) by the integral of
I(zeta) over zeta = u**4, with v = w**2 inside: one tensor Gauss-Legendre
rule in (u, w) and a coarser companion, all nodes in one kernel call, whose
difference is the error estimate.  The node counts of the first rule grow
with the digits that rel_tol asks for.  Where its estimate misses rel_tol,
the same rule runs again with every node count doubled, rung by rung, until
one meets it or the next would pass a cap on the abscissae of one kernel call.

Force and gradient are two rows of one observable table: they differ only in
the kernel powers, the sign and the SI prefactor.  One function,
:func:`_evaluate`, runs either row at finite T or T = 0, parallel or tilted
(the length average of :mod:`casimir_cyl.tilt`).  The polarizations are axis 0
of one array, so each kernel evaluation is one polylog call.
"""
from __future__ import annotations

import math
import sys
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .constants import (BOLTZMANN_J_PER_K, HBAR_C_EV_NM, HBAR_C_J_M, HBAR_J_S,
                        SPEED_OF_LIGHT_M_S, SQRT_PI)
from .dielectric import (PermittivityModel, ZeroFreqBehavior,
                         ZeroFreqDielectric, ZeroFreqDrudeLike, ZeroFreqIdeal,
                         ZeroFreqMixed, ZeroFreqPlasmaLike, eps_imag_axis,
                         zero_frequency_character)
from .quadrature import (ConvergenceError, QuadratureSpec, adaptive_quad,
                         adaptive_quad_rows, gauss_legendre)
from .reflection import log_r2_pair, zero_frequency_mu_terms
from .specfun import ZETA_3, polylog, polylog_exp_neg

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
    return 4.0 * math.pi * BOLTZMANN_J_PER_K * temperature * a / (
        HBAR_J_S * SPEED_OF_LIGHT_M_S)


def _check_temperature(temperature: float) -> None:
    if not (math.isfinite(temperature) and temperature >= 0.0):
        raise ValueError(f"temperature must be finite and nonnegative, got {temperature}")


@dataclass(frozen=True)
class ThermalState:
    """Temperature paired with the derived dimensionless Matsubara scale tau."""

    temperature: float
    tau: float

    def __post_init__(self) -> None:
        _check_temperature(self.temperature)
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        if (self.tau == 0.0) != (self.temperature == 0.0):
            raise ValueError("tau vanishes exactly when T does")

    @classmethod
    def at(cls, temperature: float, geometry: Geometry) -> "ThermalState":
        """Build the state for a geometry, deriving tau = 4 pi k_B T a/(hbar c)."""
        return cls(temperature=temperature, tau=_tau(temperature, geometry.a))


_ZERO_T = ThermalState(temperature=0.0, tau=0.0)


@dataclass(frozen=True)
class ForceResult:
    """Signed result in SI units with convergence diagnostics.

    ``value`` is the total force (N, negative = attraction) or gradient
    (N/m, positive); ``per_length`` is value/L.  ``l_used`` is the last
    Matsubara index added (0 for the continuous T = 0 integral).
    ``truncation_estimate`` is relative to the value: at finite T the
    magnitude of the last few terms, a same-order estimate of the neglected
    tail; at T = 0 the difference of the product rule from its coarser
    companion, at least 100 ulp, on the first rung of the node-doubling
    ladder that meets ``rel_tol``.  Rung 1 is sized from the digits of
    ``rel_tol``, so the T = 0 estimate and error follow it: at the default
    the estimates run up to 1.6e-10 and the errors up to 3.4e-12.
    """

    value: float
    per_length: float
    l_used: int
    truncation_estimate: float


def _check_thermal(geometry: Geometry, thermal: ThermalState) -> None:
    expected = _tau(thermal.temperature, geometry.a)
    if abs(thermal.tau - expected) > 1e-12 * max(expected, 1e-300):
        raise ValueError(
            "ThermalState.tau is inconsistent with this geometry; "
            "build it with ThermalState.at(T, geometry)")


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
    sqrt(R/2a).  The high-temperature asymptote of an ideal metal is
    ``sign (num zeta(3) k_B T L / (den a**a_power)) sqrt(R/2a)`` with
    ``high_t = (num, den)``; the plasma model multiplies it by
    ``1 - c1 x + c2 x**2`` in the skin-depth ratio x, ``skin_depth = (c1, c2)``.
    """

    v_power: float
    li_order: float
    sign: float
    a_power: int
    high_t: tuple[float, float]
    skin_depth: tuple[float, float]


_FORCE = _Observable(1.5, 0.5, -1.0, 2, (3.0, 16.0), (2.5, 8.75))
_GRADIENT = _Observable(2.5, -0.5, 1.0, 3, (15.0, 32.0), (3.5, 15.75))
_OBSERVABLES = {"force": _FORCE, "gradient": _GRADIENT}


# ---------------------------------------------------------------------------
# integrand kernels
# ---------------------------------------------------------------------------

def _li_kernel(v, exps, p: float, s: float, a_theta: float):
    """The kernel ``v**p Li_s(r^2 e^-v)`` summed over polarization channels.

    ``exps`` has one channel per row of axis 0.  At A = a_theta = 0 they are
    the exponents mu = v - ln r^2 and the kernel is ``v**p sum Li_s(e^-mu)``.
    At A > 0 they are the offsets m0 = mu - v, and the length average
    sinh(A n v)/(A n v) of each n-th summand folds into ``(v**(p-1) / 2A) sum
    [Li_{s+1}(e^{-v(1-A)-m0}) - Li_{s+1}(e^{-v(1+A)-m0})]``.  One polylog call
    covers all channels and both tilt arguments, with the bits of separate calls.
    """
    A = a_theta
    if A == 0.0:
        return v**p * polylog_exp_neg(s, exps).sum(axis=0)
    li = polylog_exp_neg(s + 1.0, np.stack((v * (1.0 - A) + exps, v * (1.0 + A) + exps)))
    return v**(p - 1.0) / (2.0 * A) * (li[0] - li[1]).sum(axis=0)


def _li_finite(v, zeta, eps, p: float, s: float, a_theta: float):
    """Kernel at a Matsubara frequency zeta > 0 with permittivity eps."""
    ln_r2 = log_r2_pair(v, zeta, eps)
    return _li_kernel(v, v - ln_r2 if a_theta == 0.0 else -ln_r2, p, s, a_theta)


def _li_zero_freq(v, behavior: ZeroFreqBehavior, p: float, s: float, a_theta: float):
    """Kernel of the l = 0 term, from the model's zero-frequency behavior."""
    mus = zero_frequency_mu_terms(behavior, v)
    return _li_kernel(v, mus if a_theta == 0.0 else mus - v, p, s, a_theta)


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


def _first_block(decay: float, rel_tol: float) -> int:
    """Size of the first block for terms falling as exp(-decay l): 1.2 times
    the ln(1/(rel_tol decay))/decay terms until they drop to rel_tol of their
    sum, about 1/decay times the first, within [_FIRST_BLOCK, _MAX_BLOCK]."""
    steps = 1.2 * (-math.log(rel_tol) - math.log(decay)) / decay
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
                     zero_integral: float, quad: QuadratureSpec,
                     first_block: int = _FIRST_BLOCK) -> tuple[float, int, float]:
    """Primed Matsubara sum: 0.5 * zero_integral + sum_{l>=1} I(tau l).

    ``block_integrals(l0, count)`` returns the v-integrals of l0, ...,
    l0 + count - 1 as an iterable in ascending l.  Terms are accumulated one
    at a time in ascending l; the sum truncates once the term magnitude
    stays below ``rel_tol`` of the partial sum for ``_CONSECUTIVE_BELOW``
    successive l, and the rest of that block is not read.  The first block
    has ``first_block`` terms (:func:`_first_block` sizes it from the decay);
    later ones are sized by :func:`_next_block`, at most ``_MAX_BLOCK``, and
    never reach past ``quad.max_terms``.  The block sizes decide only how
    many terms are computed, never the sum, ``l_used`` or the estimate.

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
        count = min(count, quad.max_terms - l)
        if count == 0:
            raise ConvergenceError(
                f"Matsubara sum not converged after {quad.max_terms} terms")
        for term in block_integrals(l + 1, count):
            l += 1
            total += term
            recent.append(abs(term))
            below = below + 1 if abs(term) < quad.rel_tol * abs(total) else 0
            if below >= _CONSECUTIVE_BELOW:
                trunc = sum(recent) / abs(total) if total != 0.0 else 0.0
                return total, l, trunc
        count = _next_block(recent, quad.rel_tol * abs(total))


# T = 0 product rule: Gauss nodes per unit of u = zeta**(1/4), the share of
# them in its coarser companion, and the nodes in w of both, all of which
# rung 1 takes from 12 digits of rel_tol on.  A Gauss rule's error falls
# geometrically with its node count, so the nodes needed grow linearly with
# the digits d = -log10(rel_tol): below 12, rung 1 takes the share
# (d + c)/(12 + c) of the u density and of the w nodes, c = 1.5 for u and
# -1.5 for w.  That fits the companion's worst estimate over six models at
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
    the share (d + c)/(12 + c), capped at 1, of
    ceil(_T0_U_DENSITY span**(1/4)) u nodes and of _T0_W_NODES w nodes, with
    d = -log10(rel_tol) and one offset c per direction (_T0_DIGIT_OFFSETS);
    so it grows with the digits asked for, and with the span and so with
    1/(1 - A) of a tilt.  Each further rung doubles every node count of the
    rule and its companion.  The first rung whose estimate is
    <= ``quad.rel_tol`` gives J.  The integrand ``f(v, row)`` is
    ``kernel_rows(zetas)``, one row per zeta.

    Returns (J, relative error estimate).  Raises ConvergenceError before any
    kernel call when ``quad.rel_tol`` is below _T0_ROUNDOFF, the least
    estimate a rung reports; when J or its estimate is not finite; or when
    the next rung would pass _T0_MAX_ABSCISSAE abscissae.
    """
    if quad.rel_tol < _T0_ROUNDOFF:
        raise ConvergenceError(
            f"T = 0 integral: rel_tol {quad.rel_tol:.3e} is below the roundoff "
            f"floor {_T0_ROUNDOFF:.3e} of every rung's estimate")
    digits = -math.log10(quad.rel_tol)
    share_u, share_w = (min(1.0, (digits + c) / (_T0_FULL_DIGITS + c))
                        for c in _T0_DIGIT_OFFSETS)
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


def _t0_product_rule(kernel_rows, span: float, counts) -> tuple[float, float]:
    """J by a tensor Gauss-Legendre rule, with a coarser companion as its check.

    ``counts`` holds (n_u, n_w) of the rule, then of its companion: n_u nodes
    in u over [0, span**(1/4)], weight 4 u**3, and n_w nodes in w over
    [u**2, sqrt(u**4 + span)] for each u, weight 2 w.  The nodes of both go to
    one kernel call, eps(i xi) once per u node.

    Returns (J, max(|J - J_coarse| / |J|, _T0_ROUNDOFF)).
    """
    top = math.sqrt(math.sqrt(span))
    # (u nodes, u weights, w nodes, w weights) of the rule and its companion
    rules = [gauss_legendre(n) + gauss_legendre(m) for n, m in counts]
    u = 0.5 * top * (np.concatenate([rule[0] for rule in rules]) + 1.0)
    root = u * u
    zetas = root * root
    half = 0.5 * (np.sqrt(zetas + span) - root)
    # one row of w nodes per u node, the rows of both rules in one kernel call
    grids, first = [], 0
    for xu, wu, xw, ww in rules:
        rows = np.arange(first, first + xu.size)
        grids.append((rows, wu, ww, root[rows, None] + half[rows, None] * (xw + 1.0)))
        first += xu.size
    w = np.concatenate([grid.ravel() for *_, grid in grids])
    owner = np.concatenate([np.repeat(rows, grid.shape[1]) for rows, *_, grid in grids])
    vals = 2.0 * w * kernel_rows(zetas)(w * w, owner)
    totals, first = [], 0
    for rows, wu, ww, grid in grids:
        inner = half[rows] * (vals[first:first + grid.size].reshape(grid.shape) @ ww)
        totals.append(0.5 * top * float(wu @ (4.0 * u[rows] * root[rows] * inner)))
        first += grid.size
    fine, coarse = totals
    rel = abs(fine - coarse) / abs(fine) if fine != 0.0 else math.inf
    return fine, max(rel, _T0_ROUNDOFF)


def _zero_freq_int(integrand, span: float, quad: QuadratureSpec) -> float:
    """l = 0 v-integral of integrand(v) with the v = w**2 substitution."""
    val, _ = adaptive_quad(lambda w: 2.0 * w * integrand(w * w), 0.0,
                           math.sqrt(span), rel_tol=quad.rel_tol * _V_TOL_SHARE)
    return val


def _reduce(p: float, s: float, model: PermittivityModel, a: float, tau: float,
            quad: QuadratureSpec, a_theta: float = 0.0) -> tuple[float, int, float]:
    """Matsubara sum (tau > 0) or T = 0 integral of the kernel ``v**p Li_s``.

    A tilt a_theta widens every window by 1/(1 - a_theta) for the slower
    exp(-v(1 - a_theta)) decay.  Returns (total, l_used, error estimate).
    """
    omega_c_ev = HBAR_C_EV_NM / (2.0 * (a * 1e9))
    span = quad.v_span() / (1.0 - a_theta)

    def kernel_rows(zetas: np.ndarray):
        # eps(i xi) once per frequency; each row reads its own
        eps = eps_imag_axis(model, zetas * omega_c_ev)
        return lambda v, row: _li_finite(v, zetas[row], eps[row], p, s, a_theta)

    if tau == 0.0:
        total, rel = zero_temperature_reduce(kernel_rows, span, quad)
        return total, 0, rel
    behavior = zero_frequency_character(model, a)

    def block(l0: int, count: int) -> Iterator[float]:
        # one lockstep quadrature: each row is the lone term's integral, bit for bit
        zetas = tau * np.arange(l0, l0 + count)
        rows = adaptive_quad_rows(kernel_rows(zetas), zetas, zetas + span,
                                  rel_tol=quad.rel_tol * _V_TOL_SHARE, initial_panels=4)
        return (val for val, _ in rows)

    zero = _zero_freq_int(lambda v: _li_zero_freq(v, behavior, p, s, a_theta), span, quad)
    return matsubara_reduce(block, zero, quad,
                            _first_block(tau * (1.0 - a_theta), quad.rel_tol))


def _evaluate(obs: _Observable, geometry: Geometry, thermal: ThermalState,
              model: PermittivityModel, quad: QuadratureSpec | None,
              a_theta: float = 0.0) -> ForceResult:
    """One observable of the table, by Matsubara sum or, at T = 0, frequency integral.

    ``a_theta`` > 0 averages the kernel over the length of a tilted cylinder.
    """
    quad = quad or QuadratureSpec()
    _check_thermal(geometry, thermal)
    _warn_pfa(geometry, stacklevel=4)
    a, R, L = geometry.a, geometry.R, geometry.L
    total, l_used, err = _reduce(obs.v_power, obs.li_order, model, a,
                                 thermal.tau, quad, a_theta)
    if thermal.temperature == 0.0:
        scale = HBAR_C_J_M * L / (16.0 * math.pi**1.5 * a**(obs.a_power + 1))
    else:
        scale = (BOLTZMANN_J_PER_K * thermal.temperature * L
                 / (4.0 * SQRT_PI * a**obs.a_power))
    value = obs.sign * scale * math.sqrt(R / (2.0 * a)) * total
    return ForceResult(value, value / L, l_used, err)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def cylinder_force(geometry: Geometry, thermal: ThermalState,
                   model: PermittivityModel,
                   quad: QuadratureSpec | None = None) -> ForceResult:
    """Casimir force (N, negative) on the cylinder at temperature T.

    At T = 0 this is :func:`zero_temperature_force`; otherwise it runs the
    primed Matsubara sum of polylogarithm v-integrals.  Temperatures so low
    that the sum cannot truncate within ``quad.max_terms`` raise
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
    # the geometric sum v**2 / (exp(mu) - 1) is the kernel with (p, s) = (2, 0)
    total, _, _ = _reduce(2.0, 0.0, model, a, _tau(temperature, a), quad)
    if temperature == 0.0:
        return -(HBAR_C_J_M / (32.0 * math.pi**2 * a**4)) * total
    return -(BOLTZMANN_J_PER_K * temperature / (8.0 * math.pi * a**3)) * total


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def ideal_metal_force_t0(geometry: Geometry) -> float:
    """Ideal-metal T = 0 force: -pi^3 hbar c L/(384 a^3) sqrt(R/2a)."""
    a, R, L = geometry.a, geometry.R, geometry.L
    return -math.pi**3 * HBAR_C_J_M * L / (384.0 * a**3) * math.sqrt(R / (2.0 * a))


def ideal_metal_gradient_t0(geometry: Geometry) -> float:
    """Ideal-metal T = 0 gradient: 7 pi^3 hbar c L/(768 a^4) sqrt(R/2a)."""
    a, R, L = geometry.a, geometry.R, geometry.L
    return 7.0 * math.pi**3 * HBAR_C_J_M * L / (768.0 * a**4) * math.sqrt(R / (2.0 * a))


def _high_temperature(obs: _Observable, geometry: Geometry, temperature: float,
                      behavior: ZeroFreqBehavior) -> float:
    _check_temperature(temperature)
    a, R, L = geometry.a, geometry.R, geometry.L
    num, den = obs.high_t
    base = obs.sign * (num * ZETA_3 * BOLTZMANN_J_PER_K * temperature * L
                       / (den * a**obs.a_power)) * math.sqrt(R / (2.0 * a))
    if isinstance(behavior, ZeroFreqIdeal):
        return base
    if isinstance(behavior, ZeroFreqDrudeLike):
        return 0.5 * base
    if isinstance(behavior, ZeroFreqPlasmaLike):
        x = 2.0 * behavior.alpha  # alpha = delta_0/(2a)
        if not 0.0 <= x < 0.5:
            raise ValueError(
                f"skin-depth expansion invalid: delta_0/a = {x} is not in [0, 0.5)")
        c1, c2 = obs.skin_depth
        return base * (1.0 - c1 * x + c2 * x**2)
    if isinstance(behavior, ZeroFreqDielectric):
        return 0.5 * base * polylog(3.0, behavior.r0**2) / ZETA_3
    if isinstance(behavior, ZeroFreqMixed):
        return 0.5 * base * polylog(3.0, behavior.r0) / ZETA_3
    raise TypeError(f"unknown behavior {type(behavior).__name__}")


def high_temperature_force(geometry: Geometry, temperature: float,
                           behavior: ZeroFreqBehavior) -> float:
    """Closed-form high-temperature (zero-frequency) force asymptote (N).

    Ideal metal, Drude-like (exactly half the ideal value), plasma with the
    skin-depth expansion through second order, static dielectric through
    Li_3(r0^2), and the metal-dielectric cross case through Li_3(r0).
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
    x_t = _evaluate(obs, geometry, ThermalState.at(temperature, geometry),
                    model, quad).value
    x_0 = _evaluate(obs, geometry, _ZERO_T, model, quad).value
    return (x_t - x_0) / x_t
