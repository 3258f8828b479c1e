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

restores a polylogarithm structure: the n-sum of the force kernel collapses
to ``[Li_{3/2}(r^2 e^{-v(1-A)}) - Li_{3/2}(r^2 e^{-v(1+A)})]/(2Av)`` (order
1/2 for the gradient), evaluated with the same stable exponents as the
parallel case by the kernel in :mod:`casimir_cyl.casimir_core`.  The
multiplicative ideal-metal factor

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


# Taylor coefficients of kappa about A = 0 (even powers):
# kappa = 1 + (21/8) A^2 + (9009/1920) A^4 + O(A^6)
_KAPPA_A2 = 21.0 / 8.0
_KAPPA_A4 = 9009.0 / 1920.0
_KAPPA_SERIES_CUT = 1e-3


def kappa(a_theta: float) -> float:
    """Multiplicative tilt factor (1/(5A)) [(1-A)^{-5/2} - (1+A)^{-5/2}].

    Equals 1 at A = 0 (evaluated by Taylor series below A = 1e-3 to avoid
    the 0/0) and grows without bound as A -> 1.
    """
    if not 0.0 <= a_theta < 1.0:
        raise ValueError(f"a_theta must lie in [0, 1), got {a_theta}")
    if a_theta < _KAPPA_SERIES_CUT:
        a2 = a_theta * a_theta
        return 1.0 + a2 * (_KAPPA_A2 + a2 * _KAPPA_A4)
    return ((1.0 - a_theta)**-2.5 - (1.0 + a_theta)**-2.5) / (5.0 * a_theta)


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
