r"""Nonparallelism corrections: cylinder axis tilted by a small angle.

Averaging the strip separations over the cylinder length multiplies each
n-th Matsubara summand by ``sinh(A n v)/(A n v)`` with the tilt parameter
``A = theta L/(2a)``.  The paper holds A fixed as the separation varies, so
:class:`TiltParams` stores A alone and one record serves a whole sweep; an
angle theta converts to the A of one separation.  Factoring the hyperbolic
sine,

.. math::
   e^{-nv}\,\frac{\sinh(A n v)}{A n v}
     = \frac{e^{-nv(1-A)} - e^{-nv(1+A)}}{2 A n v},

restores a polylogarithm structure: with the exponent mu = v - ln r^2 of
each channel and h = A v, the n-sum of the kernel ``v**p Li_s(e^{-mu})``
collapses to ``[Li_{s+1}(e^{-(mu-h)}) - Li_{s+1}(e^{-(mu+h)})]/(2A v**(1-p))``
(s + 1 = 3/2 and p = 3/2 for the force, 1/2 and 5/2 for the gradient).  The
kernel in :mod:`casimir_cyl.casimir_core` takes the same exponents mu as the
parallel case and alone forms mu -+ h.  The multiplicative ideal-metal factor

.. math::
   \kappa(A) = \frac{1}{5A}\left[(1-A)^{-5/2} - (1+A)^{-5/2}\right]

is exact at T = 0 for perfect reflectors; the nonmultiplicative ratio
``kappa_nm = F(a,T,theta)/F(a,T)`` quantifies how far real materials at
finite temperature depart from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .casimir_core import (_FORCE, _GRADIENT, ForceResult, Geometry,
                           ThermalState, _evaluate, cylinder_force)
from .dielectric import PermittivityModel
from .quadrature import QuadratureSpec

# Unused here: bench/tracer.py wraps these names as attributes of this module
# and fails on a missing one.
from .casimir_core import (adaptive_quad, cylinder_force_gradient, log_r2_pair,  # noqa: F401
                           matsubara_reduce, polylog_exp_neg, zero_frequency_character,
                           zero_frequency_mu_terms, zero_temperature_reduce)

__all__ = ["TiltParams", "kappa", "kappa_nm", "tilted_force",
           "tilted_gradient", "multiplicative_force"]


@dataclass(frozen=True)
class TiltParams:
    """Tilt parameter a_theta = theta L/(2a), held fixed over a sweep as in the paper.

    One record serves every separation; :meth:`from_angle` gives the a_theta
    of an angle theta at one separation.  The formulas diverge as
    a_theta -> 1, where the cylinder end would touch the plate; construction
    rejects a_theta >= 1.
    """

    a_theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a_theta) and 0.0 <= self.a_theta < 1.0):
            raise ValueError(f"a_theta must be finite and in [0, 1) (at 1 the cylinder "
                             f"end reaches the plate), got {self.a_theta}")

    @classmethod
    def from_angle(cls, theta: float, geometry: Geometry) -> "TiltParams":
        """The tilt of angle theta (rad) at this geometry's separation."""
        if not (math.isfinite(theta) and theta >= 0.0):
            raise ValueError(f"theta must be finite and nonnegative, got {theta}")
        return cls(theta * geometry.L / (2.0 * geometry.a))

    @classmethod
    def from_a_theta(cls, a_theta: float, geometry: Geometry) -> "TiltParams":
        """The tilt a_theta, the same at every separation (geometry unused)."""
        return cls(a_theta)


def kappa(a_theta: float) -> float:
    """Multiplicative tilt factor (1/(5A)) [(1-A)^{-5/2} - (1+A)^{-5/2}].

    Equals 1 at A = 0 and grows without bound as A -> 1.  With
    ((1-A)/(1+A))^{5/2} = exp(-5 atanh A) the bracket is
    (1-A)^{-5/2} (-expm1(-5 atanh A)), which does not cancel at small A.
    The factor taken out is (1-A)^{-5/2}, not (1+A)^{-5/2}, because 1 - A
    is exact for A >= 1/2, where kappa grows fastest.
    """
    if not 0.0 <= a_theta < 1.0:
        raise ValueError(f"a_theta must lie in [0, 1), got {a_theta}")
    if a_theta == 0.0:
        return 1.0
    return (1.0 - a_theta)**-2.5 * -math.expm1(-5.0 * math.atanh(a_theta)) / (5.0 * a_theta)


def tilted_force(geometry: Geometry, thermal: ThermalState,
                 model: PermittivityModel, tilt: TiltParams,
                 quad: QuadratureSpec | None = None) -> ForceResult:
    """Casimir force with the cylinder tilted to tilt.a_theta (N, negative).

    a_theta = 0 reduces identically to :func:`cylinder_force`; the separation
    in the geometry is the mean minimum separation.
    """
    return _evaluate(_FORCE, geometry, thermal, model, quad, tilt.a_theta)


def tilted_gradient(geometry: Geometry, thermal: ThermalState,
                    model: PermittivityModel, tilt: TiltParams,
                    quad: QuadratureSpec | None = None) -> ForceResult:
    """Force gradient with tilt (N/m, positive); v**2.5 sqrt(n) kernel.

    Consistent with differentiating :func:`tilted_force` at fixed physical
    angle, i.e. through the separation dependence of a_theta.
    """
    return _evaluate(_GRADIENT, geometry, thermal, model, quad, tilt.a_theta)


def kappa_nm(geometry: Geometry, thermal: ThermalState,
             model: PermittivityModel, tilt: TiltParams,
             quad: QuadratureSpec | None = None) -> float:
    """Nonmultiplicative tilt ratio tilted_force/cylinder_force (same quad)."""
    tilted = tilted_force(geometry, thermal, model, tilt, quad).value
    plain = cylinder_force(geometry, thermal, model, quad).value
    return tilted / plain


def multiplicative_force(geometry: Geometry, thermal: ThermalState,
                         model: PermittivityModel, tilt: TiltParams,
                         quad: QuadratureSpec | None = None) -> ForceResult:
    """Approximate tilted force kappa(a_theta) * F(a,T).

    Exact for ideal metals at T = 0; elsewhere it ignores the correlation
    between material dispersion and the tilt geometry that
    :func:`tilted_force` retains.
    """
    k = kappa(tilt.a_theta)
    base = cylinder_force(geometry, thermal, model, quad)
    return ForceResult(k * base.value, k * base.per_length,
                       base.l_used, base.truncation_estimate)
