import math

import numpy as np
import pytest

from casimir_cyl import Geometry, casimir_core


@pytest.fixture(autouse=True)
def _cold_static_t0_cache():
    """Each test starts without a cached T = 0 integral of a static model, so
    a test that counts or patches the T = 0 rule sees it run."""
    casimir_core._static_t0_integral.cache_clear()


def geometry_at(a_nm: float, R_um: float = 100.0, L_um: float = 100.0) -> Geometry:
    """Standard R = L = 100 um cylinder at the given separation."""
    return Geometry(a=a_nm * 1e-9, R=R_um * 1e-6, L=L_um * 1e-6)


def direct_polylog_series(s: float, x: float, terms: int = 2000) -> float:
    """Brute-force partial sum of x^n/n^s; independent oracle for the tests."""
    return float(sum(x**n / n**s for n in range(1, terms + 1)))


def expansion_noninteger_loop(s: float, mu: np.ndarray, zt: np.ndarray,
                              terms: int) -> np.ndarray:
    """The small-mu expansion of Li_s(e^-mu), non-integer s, as a loop that
    allocates new arrays for every term (the bit oracle of the in-place one)."""
    out = math.gamma(1.0 - s) * mu ** (s - 1.0) + zt[0]
    term = np.ones_like(mu)
    for k in range(1, terms + 1):
        term = term * (-mu) / k
        out = out + zt[k] * term
    return out


def expansion_integer_loop(s: int, mu: np.ndarray, zt: np.ndarray,
                           terms: int) -> np.ndarray:
    """The integer-s variant, (H_{s-1} - ln mu) mu^(s-1)/(s-1)! at k = s - 1,
    as the same allocating loop (bit oracle)."""
    harmonic = sum(1.0 / j for j in range(1, s))
    out = np.zeros_like(mu)
    term = np.ones_like(mu)
    for k in range(terms + 1):
        if k == s - 1:
            out = out + term * (harmonic - np.log(mu))
        else:
            out = out + zt[k] * term
        term = term * (-mu) / (k + 1)
    return out
