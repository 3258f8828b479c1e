r"""Independent Lifshitz-PFA recomposition of the cylinder force and gradient.

Reference implementation for the short-separation checks of acceptance
criterion 07 (analysis in ``docs/criterion07.md``) and for the Drude and
static-dielectric models.  It shares no code with ``casimir_cyl``: numpy and
the standard library only, its own constants, its own permittivities and
reflection coefficients, a summed geometric series in place of
polylogarithms, and fixed Gauss-Legendre rules in place of adaptive
quadrature.

The plate pressure is summed directly.  With y = 2 q z and zeta = 2 xi z/c,
each model gives its eps(i xi) as the pair w = (eps - 1) zeta^2 and 1/eps,
both finite at zeta = 0:

* plasma, eps = 1 + omega_p^2/xi^2: w = Omega^2, 1/eps = zeta^2/(zeta^2 + Omega^2),
* Drude, eps = 1 + omega_p^2/(xi (xi + gamma)): w = Omega^2 zeta/(zeta + g),
  1/eps = d/(d + Omega^2) with d = zeta (zeta + g),
* static dielectric, eps = eps0: w = (eps0 - 1) zeta^2, 1/eps = 1/eps0,

with Omega = 2 omega_p z/c and g = 2 gamma z/c.  Then

.. math::
   s = \sqrt{y^2 + w}, \quad
   r_\mathrm{TE} = -\frac{w}{(y + s)^2}, \quad
   r_\mathrm{TM} = \frac{y - s/\epsilon}{y + s/\epsilon},

so the l = 0 term needs no special case: r_TM = 1 for the two metals and
(eps0 - 1)/(eps0 + 1) for the dielectric, and r_TE = 0 except for the
plasma model, so under Drude the TE l = 0 term drops out.  With the
occupation n = 1/(r^{-2} e^y - 1) = sum_k r^{2k} e^{-k y} summed over both
polarizations,

.. math::
   P(z, T) = -\frac{k_B T}{8\pi z^3}{\sum_l}'\int_{\zeta_l}^\infty y^2 n\,dy,
   \qquad
   P(z, 0) = -\frac{\hbar c}{32\pi^2 z^4}\int_0^\infty d\zeta
   \int_\zeta^\infty y^2 n\,dy.

The z-derivative at fixed (q, xi) turns y^2 n into -(y/z) y^2 n(1 + n).  The
proximity-force sums over the cylinder surface are

.. math::
   F(a) = L\sqrt{2R}\int_a^\infty \frac{P(z)}{\sqrt{z - a}}\,dz, \qquad
   \frac{dF}{da} = L\sqrt{2R}\int_a^\infty \frac{P'(z)}{\sqrt{z - a}}\,dz,

taken with z = a / cos^2(phi), which removes the endpoint singularity and
maps the power-law tail onto an analytic integrand on [0, pi/2].
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

K_B_J_PER_K = 1.380649e-23       # exact (SI 2019)
E_CHARGE_C = 1.602176634e-19     # J per eV, exact (SI 2019)
HBAR_C_EV_NM = 197.3269804       # CODATA 2018

# the criterion-07 configuration, R = L = 100 um: gold's omega_p = 9 eV in
# the plasma and Drude models (gamma = 0.035 eV), and a dielectric with eps0 = 11.7
OMEGA_P_EV = 9.0
GAMMA_EV = 0.035
EPS0 = 11.7
R_M = 100e-6
L_M = 100e-6

# Panels in x = y - zeta, and at T = 0 in u = sqrt(zeta); the integrands fall
# off like x^3 exp(-x), so the part beyond x = 64 is below 1e-22 of the total.
# The first panels are short, and zeta = u^2: at small zeta the Drude TE
# reflection turns over at y ~ sqrt(w), which makes the y-integral go like
# zeta^1.5, and w has a pole at zeta = -g (g = 2 gamma z/c >= 0.035 here).
# With panels from 0.5 up, the Drude T = 0 values move by 1e-8 under node
# doubling; with these, by 7e-15.
_X_EDGES = (0.0, 0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
_X_NODES = 16
_PHI_NODES = 48
# Matsubara terms run to zeta_l = 60, where exp(-zeta) zeta^3 ~ 2e-21
_ZETA_CUT = 60.0


def _gauss(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _composite(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    parts = [_gauss(lo, hi, n) for lo, hi in zip(edges[:-1], edges[1:])]
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]))


def _response(model: str, zeta, z_nm):
    """(w, 1/eps) = ((eps - 1) zeta^2, 1/eps) of ``model`` at zeta = 2 xi z/c."""
    omega2 = (2.0 * OMEGA_P_EV * z_nm / HBAR_C_EV_NM) ** 2
    if model == "plasma":
        z2 = zeta * zeta
        return omega2, z2 / (z2 + omega2)
    if model == "drude":
        g = 2.0 * GAMMA_EV * z_nm / HBAR_C_EV_NM
        d = zeta * (zeta + g)
        return omega2 * zeta / (zeta + g), d / (d + omega2)
    if model == "dielectric":
        return (EPS0 - 1.0) * zeta * zeta, 1.0 / EPS0
    raise ValueError(f"unknown model {model!r}")


def _occupations(y, w, inv_eps):
    """Return (n, n(1 + n)) summed over TM and TE."""
    s = np.sqrt(y * y + w)
    r_tm = (y - s * inv_eps) / (y + s * inv_eps)
    r_te = -w / (y + s) ** 2
    n_sum = 0.0
    nn_sum = 0.0
    for r in (r_tm, r_te):
        # r^{-2} e^y - 1 = expm1(y - ln r^2): no cancellation at small y;
        # r = 0 (TE at l = 0 but for plasma) gives mu = inf and n = 0
        with np.errstate(divide="ignore"):
            mu = y - 2.0 * np.log(np.abs(r))
        n = 1.0 / np.expm1(mu)
        n_sum = n_sum + n
        nn_sum = nn_sum + n * (1.0 + n)
    return n_sum, nn_sum


class _Rules:
    """Fixed quadrature nodes; ``refine`` multiplies every node count."""

    def __init__(self, refine: int) -> None:
        self.x, self.wx = _composite(_X_EDGES, _X_NODES * refine)
        u, wu = _composite(np.sqrt(_X_EDGES), _X_NODES * refine)
        self.zeta, self.wzeta = u * u, 2.0 * u * wu  # zeta = u^2
        self.phi, self.wphi = _gauss(0.0, 0.5 * math.pi, _PHI_NODES * refine)


def _plate(model: str, z_nm: float, kt_ev: float,
           rules: _Rules) -> tuple[float, float]:
    """(P, dP/dz) in Pa and Pa/m at separation z and thermal energy kT (eV).

    Both weigh the y-integrals at fixed zeta over zeta: the primed Matsubara
    sum at zeta_l = tau l, and at kT = 0 its limit, kT sum' -> hbar c/(4 pi z)
    int dzeta, on the rule of x.
    """
    if kt_ev > 0.0:
        tau = 4.0 * math.pi * kt_ev * z_nm / HBAR_C_EV_NM
        l = np.arange(int(_ZETA_CUT / tau) + 1)
        zeta, weight = tau * l, kt_ev * np.where(l == 0, 0.5, 1.0)
    else:
        zeta, weight = rules.zeta, HBAR_C_EV_NM / (4.0 * math.pi * z_nm) * rules.wzeta
    y = zeta[:, None] + rules.x[None, :]
    n, nn = _occupations(y, *_response(model, zeta[:, None], z_nm))
    sum_p = float(weight @ ((y**2 * n) @ rules.wx))
    sum_d = float(weight @ ((y**3 * nn) @ rules.wx))
    z = z_nm * 1e-9
    return (-E_CHARGE_C / (8.0 * math.pi * z**3) * sum_p,
            E_CHARGE_C / (8.0 * math.pi * z**4) * sum_d)


@lru_cache(maxsize=None)
def cylinder_force_and_gradient(a: float, temperature: float, refine: int = 1,
                                model: str = "plasma") -> tuple[float, float]:
    """PFA force F (N) and gradient dF/da (N/m) of the cylinder.

    ``a`` in meters, ``temperature`` in K (0 for the continuous-frequency
    limit), ``model`` "plasma", "drude" or "dielectric".  ``refine``
    multiplies every node count, for convergence checks.
    """
    rules = _Rules(refine)
    sec2 = 1.0 / np.cos(rules.phi) ** 2
    z_nm = a * 1e9 * sec2
    kt_ev = K_B_J_PER_K * temperature / E_CHARGE_C
    p, dp = np.array([_plate(model, z, kt_ev, rules) for z in z_nm]).T
    # dz / sqrt(z - a) = 2 sqrt(a) sec^2(phi) dphi
    weight = 2.0 * L_M * math.sqrt(2.0 * R_M * a) * sec2 * rules.wphi
    return float(p @ weight), float(dp @ weight)


def thermal_corrections(a: float, refine: int = 1,
                        model: str = "plasma") -> tuple[float, float]:
    """Relative corrections [X(300 K) - X(0)]/X(300 K) of force and gradient."""
    f_t, g_t = cylinder_force_and_gradient(a, 300.0, refine, model)
    f_0, g_0 = cylinder_force_and_gradient(a, 0.0, refine, model)
    return (f_t - f_0) / f_t, (g_t - g_0) / g_t
