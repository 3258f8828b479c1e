"""polylog_exp_neg against mpmath's polylogarithm at 30 digits.

mpmath shares no code with the engine's series and small-mu expansion, so it
is the oracle for moving the crossover between them (now at mu = 0.5).
"""
import numpy as np
import pytest

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
