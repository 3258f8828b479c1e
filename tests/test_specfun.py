"""Polylogarithm and zeta tests: series oracles, branch consistency, limits."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_cyl.specfun import (_TAIL_BLOCK, ZETA_3, polylog, polylog_exp_neg,
                                 riemann_zeta)
from conftest import (direct_polylog_series, expansion_integer_loop,
                      expansion_noninteger_loop)

# frozen from the direct-series oracle (sum sqrt(n) e^-n, ~400 terms, 1e-14)
LI_MINUS_HALF_AT_E_INV = 0.707240718486804
# frozen from the direct-series oracle (sum 0.25^n/n^3 to 1e-14)
LI_3_AT_QUARTER = 0.25846139579657323


def test_empty_series_at_zero():
    assert polylog(0.5, 0.0) == 0.0
    assert polylog(-0.5, 0.0) == 0.0


def test_li_minus_half_series_oracle():
    oracle = direct_polylog_series(-0.5, math.exp(-1.0), terms=400)
    assert oracle == pytest.approx(LI_MINUS_HALF_AT_E_INV, rel=1e-14)
    assert polylog(-0.5, math.exp(-1.0)) == pytest.approx(oracle, rel=1e-12)


def test_li3_series_oracle():
    oracle = direct_polylog_series(3.0, 0.25, terms=200)
    assert oracle == pytest.approx(LI_3_AT_QUARTER, rel=1e-14)
    assert polylog(3.0, 0.25) == pytest.approx(oracle, rel=1e-12)


def test_zeta3_constant():
    assert ZETA_3 == 1.2020569031595943
    # the series machinery must agree with the frozen constant
    assert riemann_zeta(3.0) == pytest.approx(ZETA_3, rel=1e-14)


def test_zeta_pole_raises():
    with pytest.raises(ValueError, match="pole at s = 1"):
        riemann_zeta(1.0)


def test_zeta4_pi4_over_90():
    assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-14)


def test_li3_limit_to_zeta3():
    assert polylog(3.0, 1.0 - 1e-8) == pytest.approx(ZETA_3, abs=1e-6)
    assert polylog(3.0, 1.0) == ZETA_3


@pytest.mark.parametrize("s", [1.5, 2.5, 3.0])
def test_x_one_is_zeta_for_s_above_one(s):
    # Li_s(1) = zeta(s) converges for s > 1, the half-integer orders included
    got = polylog(s, 1.0)
    assert got == polylog_exp_neg(s, 0.0)
    assert got == pytest.approx(float(mpmath.zeta(s)), rel=1e-14)
    batch = polylog(s, np.array([0.5, 1.0]))
    assert batch[1] == got and batch[0] == polylog(s, 0.5)


@pytest.mark.parametrize("s", [-0.5, 0.0, 0.5, 1.0])
def test_x_one_raises_for_s_up_to_one(s):
    # the series diverges at x = 1 for s <= 1
    with pytest.raises(ValueError, match="below 1 for s <= 1"):
        polylog(s, 1.0)
    with pytest.raises(ValueError, match="below 1 for s <= 1"):
        polylog(s, np.array([0.5, 1.0]))


def test_monotone_in_x():
    xs = np.linspace(0.0, 0.999, 80)
    for s in (-0.5, 0.5, 1.5, 3.0):
        vals = polylog(s, xs)
        assert np.all(np.diff(vals) > 0.0)


def test_lower_bound_x():
    xs = np.linspace(0.0, 0.999, 50)
    for s in (-0.5, 0.5, 3.0):
        assert np.all(polylog(s, xs) >= xs)


def test_li1_closed_form():
    xs = np.linspace(0.0, 0.99, 50)
    got = polylog(1.0, xs)
    want = -np.log1p(-xs)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_branch_overlap_agreement():
    # direct series and small-mu expansion must agree across the crossover
    from casimir_cyl.specfun import _expansion, _series
    xs = np.linspace(math.exp(-0.6), math.exp(-0.4), 25)
    for s in (-0.5, 0.5, 1.5):
        series = _series(s, xs)
        expansion = _expansion(s, -np.log(xs))
        assert np.allclose(series, expansion, rtol=1e-10)


def test_asymptotic_law_minus_half():
    mu = 1e-4
    val = polylog_exp_neg(-0.5, mu) * mu**1.5
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-3)


def test_domain_errors():
    with pytest.raises(ValueError):
        polylog(0.5, -0.1)
    with pytest.raises(ValueError):
        polylog(0.5, 1.0)
    with pytest.raises(ValueError):
        polylog(0.5, 1.5)
    with pytest.raises(ValueError):
        polylog(-1.0, 0.5)
    with pytest.raises(ValueError):
        polylog_exp_neg(0.5, -1e-3)


def test_deterministic_and_batch_consistent():
    xs = np.array([0.3, 0.61, 0.95, 0.3])
    batch = polylog(0.5, xs)
    assert batch[0] == batch[3]
    assert batch[0] == polylog(0.5, 0.3)
    assert batch[1] == polylog(0.5, 0.61)
    assert polylog(0.5, 0.3) == polylog(0.5, 0.3)


def test_exp_neg_matches_polylog():
    for mu in (0.05, 0.4, 0.6, 3.0):
        assert polylog_exp_neg(0.5, mu) == pytest.approx(
            polylog(0.5, math.exp(-mu)), rel=1e-11)


@pytest.mark.parametrize("s", [-0.5, 0.0, 0.5, 1.0, 1.5, 3.0])
def test_polylog_is_exp_neg_of_minus_log(s):
    # Li_s(x) goes through polylog_exp_neg(s, -ln x), bit for bit, scalar and
    # batch: x = 0 (mu = +inf, so 0), both sides of the crossover e^-1/2, and
    # for s > 1 the x = 1 end (mu = -0.0, so the zeta table's zeta(s))
    cross = math.exp(-0.5)
    xs = np.array([0.0, 1e-300, 0.01, 0.3, np.nextafter(cross, 0.0), cross,
                   np.nextafter(cross, 1.0), 0.7, 0.99, 1.0 - 2.0**-40]
                  + ([1.0] if s > 1.0 else []))
    with np.errstate(divide="ignore"):
        mu = -np.log(xs)
    assert np.array_equal(polylog(s, xs), polylog_exp_neg(s, mu))
    for x, m in zip(xs, mu):
        assert polylog(s, float(x)) == polylog_exp_neg(s, float(m))
    assert polylog(s, 0.0) == 0.0
    if s == 3.0:
        assert polylog(s, 1.0) == ZETA_3


def test_mu_infinity_is_zero():
    for s in (-0.5, 0.0, 0.5, 3.0):
        assert polylog_exp_neg(s, np.inf) == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(min_value=0.0, max_value=0.9999),
       st.sampled_from([-0.5, 0.5, 1.5, 3.0]))
def test_values_positive_and_bounded_below(x, s):
    val = polylog(s, x)
    assert val >= x - 1e-15
    if x > 0:
        assert val > 0.0


def _terms_oracle(s: float, x: float) -> int:
    """The scalar term-count rule, one element at a time (reference)."""
    if x <= 0.0:
        return 1
    decay = -math.log(x)
    n = (36.9 + abs(s) * 3.0) / decay
    if n > 3.0:
        n = (36.9 + abs(s) * math.log(n)) / decay
    return max(3, int(n) + 1)


def _all_counts(s: float, x: np.ndarray) -> np.ndarray:
    """Every element's term count; ``_series_terms`` returns those above 3."""
    from casimir_cyl.specfun import _series_terms
    more, counts = _series_terms(s, x)
    out = np.where(x > 0.0, 3, 1)
    out[more] = counts
    return out


@pytest.mark.parametrize("s", [-0.5, 0.5, 1.5, 3.0])
def test_series_term_counts_match_scalar_rule(s):
    rng = np.random.default_rng(12345)
    xs = np.concatenate([
        [0.0, 1e-300, math.exp(-0.5)],
        np.geomspace(1e-300, math.exp(-0.5), 20001),
        np.exp(-rng.uniform(0.5, 2.0, 20000)),  # where counts pass 20
        # where counts pass 3, on both sides of the prefilter's cutoff
        np.exp(-np.linspace(0.95, 1.05, 20001) * (36.9 + 3.0 * abs(s)) / 3.0),
    ])
    got = _all_counts(s, xs)
    want = np.array([_terms_oracle(s, float(x)) for x in xs])
    assert np.array_equal(got, want)


def _masked_series(s: float, x: np.ndarray) -> np.ndarray:
    """The direct series as one loop over the whole batch: every element runs
    to the largest term count and gains +0.0 past its own (the oracle)."""
    nterms = _all_counts(s, x)
    out = np.zeros_like(x)
    xn = np.ones_like(x)
    for n in range(1, int(nterms.max(initial=1)) + 1):
        xn = xn * x
        out = out + np.where(n <= nterms, xn / float(n)**s, 0.0)
    return out


@pytest.mark.parametrize("s", [-0.5, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_series_sorted_by_term_count_matches_masked_loop(s):
    from casimir_cyl.specfun import _series
    rng = np.random.default_rng(7)
    x = rng.permutation(np.concatenate([
        [0.0, 1e-300, 1e-20, math.exp(-0.5)],
        np.exp(-rng.uniform(0.5, 40.0, 3000)),
        np.exp(-rng.uniform(0.5, 0.52, 200))]))  # a run of the longest sums
    counts = _all_counts(s, x)
    assert counts[x > 0].min() == 3 and counts.max() >= 79
    got = _series(s, x)
    assert np.array_equal(got.view(np.int64), _masked_series(s, x).view(np.int64))
    assert np.array_equal(_series(s, x[:0]), x[:0])


@pytest.mark.parametrize("s", [-0.5, 1.0, 2.5])
@pytest.mark.parametrize("tail", [0, 1, _TAIL_BLOCK - 1, _TAIL_BLOCK, _TAIL_BLOCK + 1],
                         ids=["none", "one", "block-1", "block", "block+1"])
def test_series_tail_sizes_match_masked_loop(s, tail):
    # tails on both sides of the switch from suffix updates to the one block
    from casimir_cyl.specfun import _series
    rng = np.random.default_rng(tail)
    x = rng.permutation(np.concatenate([
        [0.0, 1e-300], np.exp(-rng.uniform(20.0, 40.0, 300)),  # 3 terms or 1
        np.exp(-rng.uniform(0.5, 8.0, tail))]))                 # 5 to ~100
    assert np.count_nonzero(_all_counts(s, x) > 3) == tail
    got = _series(s, x)
    assert np.array_equal(got.view(np.int64), _masked_series(s, x).view(np.int64))


@pytest.mark.parametrize("s", [-0.5, 0.5, 1.5, 2.5, 1, 2, 3])
def test_expansions_match_allocating_loops(s):
    # one expansion for every order; integer s has the log-variant k = s - 1 term
    from casimir_cyl.specfun import _EXPANSION_TERMS, _expansion, _zeta_table
    # dense: a term's last-bit change reaches the sum only now and then
    rng = np.random.default_rng(3)
    mu = np.concatenate([[1e-12, 0.4999999], np.geomspace(1e-9, 0.5, 400)[:-1],
                         rng.uniform(0.0, 0.5, 20000)])
    zt = _zeta_table(float(s))
    loop = expansion_integer_loop if isinstance(s, int) else expansion_noninteger_loop
    want = loop(s, mu, zt, _EXPANSION_TERMS)
    # the whole batch, then every element again in batches of 16 and 17, on
    # both sides of any switch on batch size, and every 8th alone
    for size in (mu.size, 16, 17):
        got = np.concatenate([_expansion(float(s), mu[i:i + size])
                              for i in range(0, mu.size, size)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), size
    lone = np.concatenate([_expansion(float(s), mu[i:i + 1]) for i in range(0, mu.size, 8)])
    assert np.array_equal(lone.view(np.int64), want[::8].view(np.int64))


@pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0, 4.0])
def test_mu_zero_is_zeta(s):
    want = float(mpmath.zeta(s))
    assert polylog_exp_neg(s, 0.0) == pytest.approx(want, rel=1e-14)
    batch = polylog_exp_neg(s, np.array([0.0, 0.25, 0.0, 2.0]))
    assert batch[0] == batch[2] == polylog_exp_neg(s, 0.0)
    assert batch[1] == polylog_exp_neg(s, 0.25) and batch[3] == polylog_exp_neg(s, 2.0)


@pytest.mark.parametrize("s", [-0.5, 0.0, 0.5, 1.0])
def test_mu_zero_diverges_without_warning(s):
    # a RuntimeWarning fails the test (pytest filterwarnings)
    assert polylog_exp_neg(s, 0.0) == math.inf
    batch = polylog_exp_neg(s, np.array([0.0, 0.25, 0.0]))
    assert batch[0] == batch[2] == math.inf
    assert batch[1] == polylog_exp_neg(s, 0.25)


# mu in both regimes and at both ends, subnormals included
_MU = st.one_of(st.floats(0.0, 0.5, exclude_max=True), st.floats(0.5, 60.0),
                st.just(0.0), st.just(5e-324), st.just(math.inf))


@pytest.mark.parametrize("s", [-0.5, 0.01, 0.5])
def test_tiny_mu_overflows_without_warning(s):
    # Gamma(1-s) mu^(s-1) passes the float range for subnormal mu at s = -1/2
    # and 0.01: +inf, as at mu = 0; a RuntimeWarning fails the test (pytest
    # filterwarnings)
    mu = np.array([5e-324, 1e-310, 1e-200])
    got = polylog_exp_neg(s, mu)
    for m, v in zip(mu, got):
        assert v.hex() == polylog_exp_neg(s, float(m)).hex()
        # the leading terms; the rest are below 1e-150 of them
        want = mpmath.gamma(1 - s) * mpmath.mpf(float(m))**(s - 1) + mpmath.zeta(s)
        assert v == (math.inf if want > 1.7e308 else pytest.approx(float(want), rel=1e-12))
    assert (got[0] == math.inf) == (s < 0.5)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
       st.lists(_MU, min_size=1, max_size=60), st.integers(1, 8),
       st.integers(0, 3 * _TAIL_BLOCK), st.integers(0, 2**32 - 1), st.data())
def test_exp_neg_bits_independent_of_batch(s, mu, repeats, wide, seed, data):
    # a permutation and a split of the batch: each element keeps the bits of
    # its lone scalar call.  The `wide` draws from (0.5, 4) take 5 to ~100
    # series terms each, so the tail runs on both sides of the block switch.
    rng = np.random.default_rng(seed)
    batch = rng.permutation(np.concatenate([mu * repeats, rng.uniform(0.5, 4.0, wide)]))
    cut = data.draw(st.integers(0, batch.size))
    single = {m: polylog_exp_neg(s, m).hex() for m in set(batch.tolist())}
    got = np.concatenate([polylog_exp_neg(s, batch[:cut]),
                          polylog_exp_neg(s, batch[cut:])])
    assert [v.hex() for v in got] == [single[m] for m in batch.tolist()]


@pytest.mark.parametrize("s", [-0.5, 0.0, 0.5, 1.5, 2.5, 3.0])
def test_exp_neg_batch_bits_match_scalar_calls(s):
    # both regimes, their crossover, underflow to zero and mu = inf in one
    # 2-D batch; every element must carry the bits of its lone scalar call
    mu = np.concatenate([[1e-9, 0.4999999, 0.5, 0.5000001, 800.0, np.inf],
                         np.geomspace(1e-6, 60.0, 57)]).reshape(7, 9)
    with np.errstate(over="ignore"):  # expm1(800) of the s = 0 closed form
        batch = polylog_exp_neg(s, mu)
        single = [polylog_exp_neg(s, float(m)).hex() for m in mu.ravel()]
    assert batch.shape == mu.shape
    assert [v.hex() for v in batch.ravel()] == single
    # a batch with every mu past the crossover, and batches mixing 1, 16, 17
    # and 300 mu below it among large ones, on both sides of any switch on
    # the number of small elements
    rng = np.random.default_rng(5)
    large = rng.uniform(0.5, 60.0, 200)
    batches = [large] + [rng.permutation(np.concatenate([rng.uniform(0.0, 0.5, n), large]))
                         for n in (1, 16, 17, 300)]
    for mu in batches:
        single = [polylog_exp_neg(s, m).hex() for m in mu.tolist()]
        assert [v.hex() for v in polylog_exp_neg(s, mu)] == single


@pytest.mark.parametrize("call", [
    lambda: riemann_zeta(float("nan")),
    lambda: riemann_zeta(float("-inf")),
    lambda: polylog_exp_neg(0.5, float("nan")),
    lambda: polylog_exp_neg(0.5, np.array([1.0, float("nan")])),
    lambda: polylog_exp_neg(float("nan"), 1.0),
    lambda: polylog(0.5, float("nan")),
    lambda: polylog(0.5, np.array([0.5, float("nan")])),
    lambda: polylog(float("inf"), 0.5),
], ids=["zeta_nan", "zeta_neg_inf", "li_mu_nan", "li_mu_nan_in_array",
        "li_order_nan", "polylog_x_nan", "polylog_x_nan_in_array",
        "polylog_order_inf"])
def test_non_finite_input_rejected(call):
    with pytest.raises(ValueError):
        call()
