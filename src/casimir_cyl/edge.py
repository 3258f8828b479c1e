r"""Finite-cylinder-length (edge) corrections and the PFA error budget.

All formulas here are ideal-metal, zero-temperature estimates, exposed as
error-budget tools rather than real-material corrections.  The starting
point is the world-line result for a finite Dirichlet plate of area S and
real edge length l at separation z,

.. math::
   F(z) = -\frac{\pi^2 \hbar c S}{480 z^4} - \gamma_a \frac{\hbar c\, l}{z^3},
   \qquad \gamma_a = 5.23\times10^{-3},

doubled for the electromagnetic field.  Integrating it across the cylinder
profile multiplies the infinite-cylinder force and gradient by
``(1 + 0.610 a/L)`` and ``(1 + 0.436 a/L)``; combined in quadrature-or-sum
with the curvature error of the proximity-force approximation itself this
gives the 95%-confidence total error rule.

The partial-overhang geometry (cylinder axis a distance L1 < R from the
plate edge) subtracts the lost strip contributions in closed form through
the profile integrals

.. math::
   \int_{L_1}^{R} \frac{dx}{(R-\sqrt{R^2-x^2})^k},\quad k = 3, 4,

whose exact polynomial forms are ``overhang_f2`` and ``overhang_f1`` below.
Note the z**2 coefficient of ``overhang_f1``: the symbolic integral gives
-168, which is what makes f1(1) = 0 so the correction vanishes continuously
as the overhang disappears.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .casimir_core import (Geometry, _warn_pfa, ideal_metal_force_t0,
                           ideal_metal_gradient_t0)
from .constants import HBAR_C_J_M

__all__ = [
    "WORLD_LINE_EDGE_COEFF", "EDGE_FORCE_COEFF", "EDGE_GRADIENT_COEFF",
    "PFA_FORCE_COEFF", "PFA_GRADIENT_COEFF",
    "EdgeParams", "EdgeValidityWarning", "finite_plate_force",
    "edge_corrected_force", "edge_corrected_gradient", "total_pfa_error",
    "overhang_force", "overhang_f1", "overhang_f2",
]

# world-line coefficient for a Dirichlet scalar (taken as given)
WORLD_LINE_EDGE_COEFF = 5.23e-3

# edge corrections: force 1152 gamma_a/pi^2 ~ 0.610, gradient 5/7 of that
EDGE_FORCE_COEFF = 1152.0 * WORLD_LINE_EDGE_COEFF / math.pi**2
EDGE_GRADIENT_COEFF = 5.0 / 7.0 * EDGE_FORCE_COEFF

# curvature (infinite-cylinder PFA) errors: 4/pi^2 - 7/60 ~ 0.2886 and 5/7 of it
PFA_FORCE_COEFF = 4.0 / math.pi**2 - 7.0 / 60.0
PFA_GRADIENT_COEFF = 5.0 / 7.0 * PFA_FORCE_COEFF

# soft validity floor for the overhang formulas (they assume L1, H >> a)
_OVERHANG_MARGIN = 20.0


class EdgeValidityWarning(UserWarning):
    """Overhang geometry too close to the separation scale for the expansion."""


@dataclass(frozen=True)
class EdgeParams:
    """Partial-overhang geometry: axis projection a distance L1 from the edge.

    ``H = R - sqrt(R^2 - L1^2)`` is the height of the cylinder surface above
    the plate edge.  Requires 0 < L1 <= R; the closed forms further assume
    L1, H >> a (softly enforced with a warning below 20a).
    """

    L1: float
    R: float

    def __post_init__(self) -> None:
        if not 0.0 < self.L1 <= self.R:
            raise ValueError(f"need 0 < L1 <= R, got L1={self.L1}, R={self.R}")

    @property
    def H(self) -> float:
        return self.R - math.sqrt(self.R**2 - self.L1**2)

    @property
    def gamma_a(self) -> float:
        """World-line edge coefficient; fixed, not a fit parameter."""
        return WORLD_LINE_EDGE_COEFF


def finite_plate_force(S: float, l_edge: float, z: float,
                       em: bool = True) -> float:
    """World-line force between an infinite plate and a finite plate (N).

    Scalar-Dirichlet by default halves both terms; ``em=True`` gives the
    electromagnetic doubling used for metal surfaces.

    Parameters
    ----------
    S : float
        Finite plate area (m^2).
    l_edge : float
        Total real edge length (m).
    z : float
        Separation (m), > 0.
    em : bool
        Electromagnetic field if True, Dirichlet scalar if False.
    """
    if z <= 0.0:
        raise ValueError("separation must be positive")
    if S <= 0.0 or l_edge < 0.0:
        raise ValueError("need S > 0 and l_edge >= 0")
    area = -math.pi**2 * HBAR_C_J_M * S / (480.0 * z**4)
    edge = -WORLD_LINE_EDGE_COEFF * HBAR_C_J_M * l_edge / z**3
    scale = 2.0 if em else 1.0
    return scale * (area + edge)


def edge_corrected_force(geometry: Geometry) -> float:
    """Ideal-metal T = 0 force including the finite-length edge term (N).

    The edge term deepens the attraction: magnitude grows by exactly the
    factor ``1 + 0.610 a/L`` relative to the infinite-cylinder result.
    """
    _warn_pfa(geometry)
    return ideal_metal_force_t0(geometry) * (
        1.0 + EDGE_FORCE_COEFF * geometry.a / geometry.L)


def edge_corrected_gradient(geometry: Geometry) -> float:
    """Ideal-metal T = 0 gradient including the edge term (N/m)."""
    _warn_pfa(geometry)
    return ideal_metal_gradient_t0(geometry) * (
        1.0 + EDGE_GRADIENT_COEFF * geometry.a / geometry.L)


def total_pfa_error(geometry: Geometry, which: str = "force") -> float:
    """Combined 95%-CL systematic error of PFA plus edge effects.

    ``min(C1 a/R + C2 a/L, 1.1 sqrt((C1 a/R)^2 + (C2 a/L)^2))`` treating the
    two systematics as uniformly distributed random errors; dimensionless.
    """
    if which == "force":
        c1, c2 = PFA_FORCE_COEFF, EDGE_FORCE_COEFF
    elif which == "gradient":
        c1, c2 = PFA_GRADIENT_COEFF, EDGE_GRADIENT_COEFF
    else:
        raise ValueError("which must be 'force' or 'gradient'")
    t1 = c1 * geometry.a / geometry.R
    t2 = c2 * geometry.a / geometry.L
    return min(t1 + t2, 1.1 * math.hypot(t1, t2))


def overhang_f1(z):
    """Profile integral polynomial: 105 z^7 * int_z^1 dx (1-sqrt(1-x^2))^-4.

    Decreases from 240 at z = 0 to 0 at z = 1.
    """
    z = np.asarray(z, dtype=float)
    root = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    poly = 120.0 - 168.0 * z**2 + 35.0 * z**4 + 13.0 * z**7
    rad = 4.0 * root * (30.0 - 27.0 * z**2 - z**4 - 2.0 * z**6)
    out = poly + rad
    return float(out) if out.ndim == 0 else out


def overhang_f2(z):
    """Profile integral polynomial: 5 z^5 * int_z^1 dx (1-sqrt(1-x^2))^-3.

    Decreases from 8 at z = 0 to 0 at z = 1.
    """
    z = np.asarray(z, dtype=float)
    root = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    out = 4.0 - 5.0 * z**2 + z**5 + root * (4.0 - 3.0 * z**2 - z**4)
    return float(out) if out.ndim == 0 else out


def _overhang_f(edge: EdgeParams, L: float) -> float:
    """Weight of the lost-strip term in the overhang force."""
    z = edge.L1 / edge.R
    g = WORLD_LINE_EDGE_COEFF
    return (8.0 * math.sqrt(2.0) / (525.0 * math.pi) * (edge.R / edge.L1)**4
            * overhang_f1(z)
            + 1536.0 * math.sqrt(2.0) * g / (5.0 * math.pi**3)
            * edge.R**3 / (L * edge.L1**2) * overhang_f2(z))


def overhang_force(geometry: Geometry, edge: EdgeParams) -> float:
    """Ideal-metal T = 0 force with the cylinder partly beyond the plate edge (N).

    Relative to the fully-supported case this removes the strips past L1 and
    adds the boundary running along the cylinder at height a + H:

    ``F = F_cyl * [1 + 0.610 a/L - f(L1/R) sqrt(a/R) (a/L1)^3
    + (768 sqrt(2) gamma/pi^3) sqrt(a/R) (a/H)^3]``.

    Both extra terms vanish as L1 -> R, joining edge_corrected_force
    continuously.
    """
    if edge.R != geometry.R:
        raise ValueError("EdgeParams.R must match the geometry radius")
    a, L = geometry.a, geometry.L
    H = edge.H
    if edge.L1 < _OVERHANG_MARGIN * a or H < _OVERHANG_MARGIN * a:
        warnings.warn(
            f"overhang expansion assumes L1, H >> a; have L1/a = {edge.L1/a:.1f}, "
            f"H/a = {H/a:.1f}", EdgeValidityWarning, stacklevel=2)
    _warn_pfa(geometry)
    sqrt_ar = math.sqrt(a / geometry.R)
    bracket = (1.0
               + EDGE_FORCE_COEFF * a / L
               - _overhang_f(edge, L) * sqrt_ar * (a / edge.L1)**3
               + 768.0 * math.sqrt(2.0) * WORLD_LINE_EDGE_COEFF / math.pi**3
               * sqrt_ar * (a / H)**3)
    return ideal_metal_force_t0(geometry) * bracket
