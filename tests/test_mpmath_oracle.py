"""The engine's special functions against mpmath, which shares no code with them.

``polylog_exp_neg`` is checked against mpmath's polylogarithm at 30 digits;
it is the oracle for moving the crossover between the series and the small-mu
expansion (now at mu = 0.5).  ``log_r2_pair`` is checked against the Fresnel
coefficients evaluated at 40 digits from the same float inputs.
"""
import numpy as np
import pytest

from casimir_cyl.reflection import log_r2_pair
from casimir_cyl.specfun import polylog_exp_neg

mpmath = pytest.importorskip("mpmath")

# log-spaced over the whole range, plus a dense run across 0.5-2.5, where the
# crossover sits now and where it may move
MU = np.concatenate([np.geomspace(1e-6, 45.0, 60), np.linspace(0.5, 2.5, 41)])


@pytest.mark.parametrize("s", [-0.5, 0.5, 1.5, 3.0])
def test_polylog_exp_neg_matches_mpmath(s):
    got = polylog_exp_neg(s, MU)
    with mpmath.workdps(30):
        want = [mpmath.polylog(mpmath.mpf(s), mpmath.exp(-mpmath.mpf(float(mu))))
                for mu in MU]
        rel = [abs((mpmath.mpf(float(g)) - w) / w) for g, w in zip(got, want)]
    worst = int(np.argmax([float(r) for r in rel]))
    assert float(rel[worst]) <= 1e-14, (s, MU[worst])


# permittivities from a weak dielectric to Drude gold at the first Matsubara
# frequency of micrometer separations; zeta/v from grazing to zeta = v
EPS = [1.5, 11.7, 1e2, 1e4, 1e6, 3e7]
V = np.geomspace(1e-3, 45.0, 40)
ZETA_OVER_V = [1e-3, 0.01, 0.5, 0.999, 1.0]


@pytest.mark.parametrize("eps", EPS)
def test_log_r2_pair_matches_mpmath(eps):
    v = np.repeat(V, len(ZETA_OVER_V))
    zeta = v * np.tile(ZETA_OVER_V, V.size)
    ln_tm, ln_te = log_r2_pair(v, zeta, eps)
    worst_r2 = worst_ln_tm = 0.0
    with mpmath.workdps(40):
        e = mpmath.mpf(eps)
        for vi, zi, lt, le in zip(v, zeta, ln_tm, ln_te):
            vm, zm = mpmath.mpf(float(vi)), mpmath.mpf(float(zi))
            s = mpmath.sqrt(vm * vm + (e - 1) * zm * zm)
            r2_tm = ((e * vm - s) / (e * vm + s)) ** 2
            r2_te = ((vm - s) / (vm + s)) ** 2
            lt, le = mpmath.mpf(float(lt)), mpmath.mpf(float(le))
            worst_r2 = max(worst_r2, float(abs(mpmath.exp(lt) - r2_tm)),
                           float(abs(mpmath.exp(le) - r2_te)))
            worst_ln_tm = max(worst_ln_tm, float(abs(lt - mpmath.log(r2_tm))))
    # the TE logarithm is not gated: it loses digits where |r_TE| is tiny,
    # though r_TE^2 itself, which the kernels use, does not
    assert worst_r2 <= 1e-15
    assert worst_ln_tm <= 1e-14
