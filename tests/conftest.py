import math
import os

import numpy as np
import pytest

from casimir_cyl import Geometry, casimir_core

# The bit pins (_PINNED, _PINNED_T0) and bench/golden were recorded with this
# numpy at this SIMD dispatch level; numpy's AVX-512 loops for exp, log,
# expm1, log1p, power, arctan and arccos round differently from its AVX2 and
# baseline ones, so below it six bit pins fail.
_RECORDED_AT = "numpy 2.4.6 at X86_V4"


def pytest_report_header(config):
    """The numpy version and SIMD dispatch this run's bits come from."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    enabled = " ".join(d for d in __cpu_dispatch__ if __cpu_features__.get(d)) or "none"
    lines = [f"numpy {np.__version__}, SIMD dispatch enabled: {enabled} "
             f"(bit pins recorded with {_RECORDED_AT})"]
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES")
    if disabled is not None:
        lines.append(f"NPY_DISABLE_CPU_FEATURES={disabled}")
    return lines


@pytest.fixture(autouse=True)
def _cold_static_caches():
    """Each test starts without a cached T = 0 integral or piece of ln I of a
    static model, so a test that counts or patches the T = 0 rule or the row
    integrators sees them run."""
    casimir_core._static_t0_integral.cache_clear()
    casimir_core._row_piece.cache_clear()


@pytest.fixture(scope="module")
def steep_table(tmp_path_factory):
    """steep.dat: 400 Drude rows, each scaled by a random factor in [0.5, 2]
    (|slope| up to 79), whose steep segments get finer sub-segments where a
    flat 4/2-point rule fails the dispersion accuracy check."""
    w = np.geomspace(0.1, 100, 400)
    f = np.random.default_rng(7).uniform(0.5, 2, 400)
    path = tmp_path_factory.mktemp("optical") / "steep.dat"
    np.savetxt(path, np.column_stack([w, 81 * 0.035 / (w * (w * w + 0.035**2)) * f]))
    return path


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
