r"""TM/TE reflection coefficients in the dimensionless variables (v, zeta).

With :math:`s = \sqrt{v^2 + (\varepsilon-1)\zeta^2}`,

.. math::
   r_\mathrm{TM} = \frac{\varepsilon v - s}{\varepsilon v + s}, \qquad
   r_\mathrm{TE} = \frac{v - s}{v + s},

where v = 2 q a >= zeta = xi/omega_c and eps = eps(i xi).  The engine never
needs the coefficients themselves but the exponents ``mu = v - ln r**2`` of
the polylogarithm arguments, so this module holds only those: the
finite-frequency pair, formed cancellation-free in :func:`log_r2_pair`
(Drude permittivities reach ~1e6 at the first Matsubara frequency of
micrometer separations, where the naive difference ``eps*v - s`` would shed
digits), and the zero-frequency channels in :func:`zero_frequency_mu_terms`.
The scalar coefficients themselves are a test oracle
(``tests/reflection_oracle.py``).
"""
from __future__ import annotations

import math

import numpy as np

from .dielectric import (ZeroFreqBehavior, ZeroFreqDielectric, ZeroFreqDrudeLike,
                         ZeroFreqIdeal, ZeroFreqMixed, ZeroFreqPlasmaLike)

__all__ = ["log_r2_pair", "zero_frequency_mu_terms"]

def log_r2_pair(v, zeta, eps):
    """Return (ln r_TM^2, ln r_TE^2) for broadcastable ndarray arguments.

    Uses log1p of the exact complements 1 - r = 2s/(eps v + s) and
    1 - |r_TE| = 2v/(v + s); eps may be +inf (ideal metal limit, ln r^2 = 0).
    """
    v = np.asarray(v, dtype=float)
    eps = np.asarray(eps, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    shape = np.broadcast_shapes(v.shape, eps.shape, zeta.shape)
    if np.all(np.isinf(eps)):
        zero = np.zeros(shape)
        return zero, zero.copy()
    s = np.sqrt(v * v + (eps - 1.0) * zeta * zeta)
    ln_rtm2 = 2.0 * np.log1p(-2.0 * s / (eps * v + s))
    ln_rte2 = 2.0 * np.log1p(-2.0 * v / (v + s))
    return ln_rtm2, ln_rte2


def zero_frequency_mu_terms(behavior: ZeroFreqBehavior, v: np.ndarray) -> list[np.ndarray]:
    """Exponents mu = v - ln r^2 of the surviving zero-frequency channels.

    One array per polarization that contributes to the l = 0 term; the plasma
    TE exponent uses the identity ln(sqrt(1+x^2) - x) = -asinh(x) to stay
    exact for alpha*v anywhere from 0 to overflow.  ``ZeroFreqMixed`` encodes
    the metal-dielectric cross term whose series runs over r0^n, i.e. a
    single channel with mu = v - ln r0.
    """
    v = np.asarray(v, dtype=float)
    if isinstance(behavior, ZeroFreqIdeal):
        return [v, v.copy()]
    if isinstance(behavior, ZeroFreqDrudeLike):
        return [v]
    if isinstance(behavior, ZeroFreqPlasmaLike):
        return [v, v + 4.0 * np.arcsinh(behavior.alpha * v)]
    if isinstance(behavior, ZeroFreqDielectric):
        return [v - 2.0 * math.log(behavior.r0)]
    if isinstance(behavior, ZeroFreqMixed):
        return [v - math.log(behavior.r0)]
    raise TypeError(f"unknown zero-frequency behavior {type(behavior).__name__}")
