r"""Exact Matsubara sums for the ideal metal, sharing no code with the engine.

The ideal metal has r^2 = 1 in both polarizations at every frequency, so the
v-integral of one Matsubara row of the kernel ``v**p Li_s(e^-v)`` (two equal
channels) is a sum of upper incomplete gamma functions, with q = s + p + 1:

* untilted: I(zeta) = 2 sum_k k**-q Gamma(p + 1, k zeta);
* tilted to A = a_theta, where the length average turns the kernel into
  ``(v**(p-1) / 2A) [Li_{s+1}(e^{-v(1-A)}) - Li_{s+1}(e^{-v(1+A)})]`` per
  channel: I(zeta) = (1/A) sum_k k**-q [(1 - A)**-p Gamma(p, k (1 - A) zeta)
  - (1 + A)**-p Gamma(p, k (1 + A) zeta)].

The orders are half-integers (p + 1 in {5/2, 7/2}, p in {3/2, 5/2} for the
force and the gradient), so Gamma(n + 1/2, x) comes from Gamma(1/2, x) =
sqrt(pi) erfc(sqrt(x)) and the upward recurrence Gamma(a + 1, x) = a Gamma(a, x)
+ x**a e**-x, whose terms are all positive, in Python floats.

The primed sum S(tau) = I(0)/2 + sum_{l >= 1} I(tau l) is summed per k: the
rows l >= 1 until k tau l (1 - A) passes ``CUT``, where Gamma(p, x) has fallen
to about e**-60 of Gamma(p); past k_max = CUT / (tau (1 - A)) only the l = 0
half-term is left, a Hurwitz zeta tail zeta(q, k_max + 1) from mpmath.  The
engine integrates each row over [zeta, zeta + span] rather than to infinity;
the difference, about e**-45, is far below any gate.

tau = 4 pi k_B T a / (hbar c) is an argument, so a test can form it as the
engine does or from another value of hbar c.
"""
from __future__ import annotations

import math

import mpmath

# k_B in J/K (exact in the 2019 SI)
BOLTZMANN_J_PER_K = 1.380649e-23
# a row's argument k (1 - A) zeta past which its terms are dropped
CUT = 60.0


def upper_gamma(a: float, x: float) -> float:
    """Gamma(a, x) for half-integer a >= 1/2 and x >= 0."""
    if not (a >= 0.5 and (a - 0.5).is_integer() and x >= 0.0):
        raise ValueError(f"need a half-integer a >= 1/2 and x >= 0, got a={a}, x={x}")
    g = math.sqrt(math.pi) * math.erfc(math.sqrt(x))
    b = 0.5
    while b < a:
        g = b * g + x**b * math.exp(-x)
        b += 1.0
    return g


def _summand(k: int, zeta: float, p: float, a_theta: float) -> float:
    """The k-th summand of I(zeta), both channels, without k**-q."""
    A = a_theta
    if A == 0.0:
        return 2.0 * upper_gamma(p + 1.0, k * zeta)
    return ((1.0 - A)**-p * upper_gamma(p, k * (1.0 - A) * zeta)
            - (1.0 + A)**-p * upper_gamma(p, k * (1.0 + A) * zeta)) / A


def row(zeta: float, p: float, s: float, a_theta: float = 0.0) -> float:
    """I(zeta), the v-integral of one row from zeta to infinity."""
    q = s + p + 1.0
    if zeta == 0.0:
        return _summand(1, 0.0, p, a_theta) * float(mpmath.zeta(q))
    terms = []
    k = 1
    while k * (1.0 - a_theta) * zeta <= CUT:
        terms.append(k**-q * _summand(k, zeta, p, a_theta))
        k += 1
    return math.fsum(terms)


def primed_sum(tau: float, p: float, s: float, a_theta: float = 0.0) -> float:
    """S(tau) = I(0)/2 + sum_{l >= 1} I(tau l), summed per k (see the module)."""
    q = s + p + 1.0
    half_zero = 0.5 * _summand(1, 0.0, p, a_theta)
    decay = tau * (1.0 - a_theta)
    k_max = math.floor(CUT / decay)
    terms = [half_zero * float(mpmath.zeta(q, k_max + 1))]
    for k in range(1, k_max + 1):
        rows = [half_zero]
        l = 1
        while k * l * decay <= CUT:
            rows.append(_summand(k, tau * l, p, a_theta))
            l += 1
        terms.append(k**-q * math.fsum(rows))
    return math.fsum(terms)


# (v power p, polylog order s, sign, power of a in the prefactor)
KERNELS = {"force": (1.5, 0.5, -1.0, 2), "gradient": (2.5, -0.5, 1.0, 3)}


def finite_t_value(which: str, a: float, R: float, L: float, temperature: float,
                   tau: float, a_theta: float = 0.0) -> float:
    """PFA force (N) or gradient (N/m) of an ideal-metal cylinder at T > 0:
    sign k_B T L / (4 sqrt(pi) a**n) sqrt(R / 2a) S(tau)."""
    p, s, sign, n = KERNELS[which]
    scale = BOLTZMANN_J_PER_K * temperature * L / (4.0 * math.sqrt(math.pi) * a**n)
    return sign * scale * math.sqrt(R / (2.0 * a)) * primed_sum(tau, p, s, a_theta)
