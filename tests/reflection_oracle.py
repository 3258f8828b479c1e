r"""Scalar TM/TE reflection coefficients, the test oracle for the engine's exponents.

The engine needs only the exponents ``ln r**2`` (``casimir_cyl.reflection``).
The coefficients themselves, one point at a time, live here:

.. math::
   r_\mathrm{TM} = \frac{\varepsilon v - s}{\varepsilon v + s}, \qquad
   r_\mathrm{TE} = \frac{v - s}{v + s}, \qquad
   s = \sqrt{v^2 + (\varepsilon-1)\zeta^2},

and the zero-frequency pairs of each material behavior.  Only the
zero-frequency tags come from ``casimir_cyl``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from casimir_cyl.dielectric import (ZeroFreqBehavior, ZeroFreqDielectric,
                                    ZeroFreqDrudeLike, ZeroFreqIdeal,
                                    ZeroFreqPlasmaLike)


@dataclass(frozen=True)
class DimensionlessPoint:
    """Integration point: v = 2 q a and the scaled Matsubara frequency zeta."""

    v: float
    zeta: float

    def __post_init__(self) -> None:
        if not (self.v >= self.zeta >= 0.0):
            raise ValueError(f"need v >= zeta >= 0, got v={self.v}, zeta={self.zeta}")


@dataclass(frozen=True)
class ReflectionPair:
    """TM and TE amplitudes; for eps >= 1 these satisfy 1 >= r_tm >= 0 >= r_te >= -1."""

    r_tm: float
    r_te: float

    def __post_init__(self) -> None:
        if not (abs(self.r_tm) <= 1.0 and abs(self.r_te) <= 1.0):
            raise ValueError("reflection coefficients must lie in [-1, 1]")


def fresnel(point: DimensionlessPoint, eps_l: float) -> ReflectionPair:
    """Reflection pair at a dimensionless point for permittivity eps_l >= 1."""
    if eps_l < 1.0:
        raise ValueError(f"permittivity below 1 not supported, got {eps_l}")
    v, zeta = point.v, point.zeta
    if v == 0.0:
        return ReflectionPair(0.0, 0.0)
    # factor s = v*sqrt(1 + (eps-1) zeta^2/v^2): no overflow for eps ~ 1e6
    s = v * math.sqrt(1.0 + (eps_l - 1.0) * (zeta / v) ** 2)
    r_tm = (eps_l * v - s) / (eps_l * v + s)
    r_te = -(eps_l - 1.0) * zeta**2 / (v + s) ** 2  # = (v-s)/(v+s), stable form
    return ReflectionPair(r_tm, r_te)


def zero_frequency_pair(behavior: ZeroFreqBehavior, v: float) -> ReflectionPair:
    """Zero-frequency reflection pair for dimensionless v > 0.

    Ideal metal: (1, -1).  Drude-like: (1, 0).  Static dielectric: (r0, 0).
    Plasma-like keeps a TE amplitude ``-(alpha v - sqrt(alpha^2 v^2 + 1))^2``
    running from -1 at v = 0 to 0 as alpha*v grows.
    """
    if v <= 0.0:
        raise ValueError("v must be positive")
    if isinstance(behavior, ZeroFreqIdeal):
        return ReflectionPair(1.0, -1.0)
    if isinstance(behavior, ZeroFreqDrudeLike):
        return ReflectionPair(1.0, 0.0)
    if isinstance(behavior, ZeroFreqDielectric):
        return ReflectionPair(behavior.r0, 0.0)
    if isinstance(behavior, ZeroFreqPlasmaLike):
        av = behavior.alpha * v
        return ReflectionPair(1.0, -(math.sqrt(av * av + 1.0) - av) ** 2)
    raise TypeError(f"unknown zero-frequency behavior {type(behavior).__name__}")
