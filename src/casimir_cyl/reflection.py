r"""TM/TE reflection coefficients in the dimensionless variables (v, zeta).

With :math:`s = \sqrt{v^2 + (\varepsilon-1)\zeta^2}`,

.. math::
   r_\mathrm{TM} = \frac{\varepsilon v - s}{\varepsilon v + s}, \qquad
   r_\mathrm{TE} = \frac{v - s}{v + s},

where v = 2 q a >= zeta = xi/omega_c and eps = eps(i xi).  The engine never
needs the coefficients themselves but the exponents ``mu = v - ln r**2`` of
the polylogarithm arguments, so this module holds only those: the
finite-frequency pair, formed cancellation-free in :func:`log_r2_pair` (Drude
permittivities reach ~1e6 at the first Matsubara frequency of micrometer
separations, where the naive difference ``eps*v - s`` would shed digits), and
the zero-frequency channels of a ``ZeroFreqBehavior`` record in
:func:`zero_frequency_mu_terms`.  Both put the channels on axis 0 of one
array.  The scalar coefficients themselves are a test oracle
(``tests/reflection_oracle.py``).
"""
from __future__ import annotations

import numpy as np

from .dielectric import ZeroFreqBehavior

__all__ = ["log_r2_pair", "zero_frequency_mu_terms"]

def log_r2_pair(v, zeta, eps):
    """Return ln r^2 of both channels, shape ``(2,) + broadcast(v, zeta, eps)``.

    Row 0 is ln r_TM^2, row 1 ln r_TE^2.  Uses log1p of the exact complements
    1 - r = 2s/(eps v + s) and 1 - |r_TE| = 2v/(v + s); eps may be +inf (ideal
    metal limit, ln r^2 = 0).  Where (eps - 1) zeta**2 is below the rounding of
    v**2, s rounds to v and ln r_TE^2 is -inf, without a warning: the exponent
    mu = v - ln r^2 is then +inf and the polylog term 0.
    """
    v = np.asarray(v, dtype=float)
    eps = np.asarray(eps, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if np.all(np.isinf(eps)):
        return np.zeros((2,) + np.broadcast_shapes(v.shape, eps.shape, zeta.shape))
    s = np.sqrt(v * v + (eps - 1.0) * zeta * zeta)
    out = np.empty((2,) + s.shape)
    with np.errstate(divide="ignore"):
        np.log1p(-2.0 * s / (eps * v + s), out=out[0])
        np.log1p(-2.0 * v / (v + s), out=out[1])
    out *= 2.0
    return out


def zero_frequency_mu_terms(behavior: ZeroFreqBehavior, v: np.ndarray) -> np.ndarray:
    """Exponents mu = v - ln r^2 of the surviving zero-frequency channels.

    One row of axis 0 per entry of ``behavior.log_r2``, then the plasma TE row
    if ``behavior.alpha`` is set, whose exponent uses ln(sqrt(1+x^2) - x) =
    -asinh(x) to stay exact for alpha*v anywhere from 0 to overflow.
    """
    v = np.asarray(v, dtype=float)
    rows = [v - log_r2 for log_r2 in behavior.log_r2]
    if behavior.alpha is not None:
        rows.append(v + 4.0 * np.arcsinh(behavior.alpha * v))
    return np.stack(rows)
