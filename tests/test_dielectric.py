"""Permittivity models, the dispersion transform, and table ingestion."""
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_cyl import dielectric
from casimir_cyl.dielectric import (Dielectric, Drude, IdealMetal, OpticalTable,
                                    OpticalTableError, Oscillator,
                                    PlasmaOscillators, Tabulated,
                                    ZeroFreqBehavior, eps_imag_axis, gold_drude, kk_transform,
                                    load_optical_table,
                                    zero_frequency_character)
from casimir_cyl.quadrature import gauss_legendre

AU = gold_drude()


def drude_im_eps(omega: float, wp: float = 9.0, g: float = 0.035) -> float:
    """Im of 1 - wp^2/(omega(omega + i g)) on the real axis."""
    return wp**2 * g / (omega * (omega**2 + g**2))


def synthetic_drude_table(n: int = 600) -> OpticalTable:
    omega = np.geomspace(0.125, 1.0e4, n)
    return OpticalTable(omega, [drude_im_eps(w) for w in omega])


# frozen hand evaluation of 1 + 81/(9.0 * 9.035)
DRUDE_EPS_AT_9EV = 1.9961261759822913


def test_drude_hand_value():
    assert eps_imag_axis(AU, 9.0) == pytest.approx(DRUDE_EPS_AT_9EV, rel=1e-14)
    assert eps_imag_axis(AU, 9.0) == pytest.approx(1.0 + 81.0 / (9.0 * 9.035),
                                                   rel=1e-15)


def test_plasma_at_omega_p():
    model = PlasmaOscillators(omega_p=9.0)
    assert eps_imag_axis(model, 9.0) == 2.0


def test_drude_high_frequency_transparency():
    assert eps_imag_axis(AU, 1e6) == pytest.approx(1.0, abs=1e-9)


def test_eps_monotone_decreasing_and_above_one():
    xi = np.geomspace(1e-3, 1e3, 60)
    for model in (AU, PlasmaOscillators(omega_p=9.0)):
        eps = eps_imag_axis(model, xi)
        assert np.all(eps >= 1.0)
        assert np.all(np.diff(eps) < 0.0)


def test_oscillator_contribution():
    osc = Oscillator(g=10.0, omega=3.0, gamma=0.5)
    model = PlasmaOscillators(omega_p=9.0, oscillators=(osc,))
    xi = 2.0
    expected = 1.0 + 81.0 / 4.0 + 10.0 / (9.0 + 4.0 + 1.0)
    assert eps_imag_axis(model, xi) == pytest.approx(expected, rel=1e-14)
    assert np.all(eps_imag_axis(model, np.geomspace(0.1, 100, 40)) >= 1.0)


def test_unsupported_models_rejected():
    # ideal metal and static dielectric have a permittivity at every xi > 0
    assert eps_imag_axis(IdealMetal(), 1.0) == np.inf
    assert eps_imag_axis(Dielectric(eps0=3.0), 1.0) == 3.0
    with pytest.raises(ValueError):
        eps_imag_axis(IdealMetal(), 0.0)
    with pytest.raises(ValueError):
        eps_imag_axis(AU, 0.0)
    with pytest.raises(ValueError):
        eps_imag_axis(AU, -1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Drude(omega_p=0.0, gamma=0.035)
    with pytest.raises(ValueError):
        Drude(omega_p=9.0, gamma=-1.0)
    with pytest.raises(ValueError):
        Dielectric(eps0=1.0)
    with pytest.raises(ValueError):
        Oscillator(g=1.0, omega=0.0)
    # a negative strength would give eps(i 1 eV) = -108 here
    with pytest.raises(ValueError, match=r"\bg\b.*nonnegative"):
        Oscillator(g=-2000.0, omega=3.0, gamma=0.5)
    assert Oscillator(g=0.0, omega=3.0).g == 0.0
    with pytest.raises(ValueError):
        PlasmaOscillators(omega_p=-9.0)


@pytest.mark.parametrize("make, name", [
    (lambda: Drude(omega_p=float("nan"), gamma=0.035), "omega_p"),
    (lambda: Drude(omega_p=float("inf"), gamma=0.035), "omega_p"),
    (lambda: Drude(omega_p=9.0, gamma=float("inf")), "gamma"),
    (lambda: Drude(omega_p=9.0, gamma=float("nan")), "gamma"),
    (lambda: Oscillator(g=float("nan"), omega=3.0), "g"),
    (lambda: Oscillator(g=1.0, omega=float("inf")), "omega"),
    (lambda: Oscillator(g=1.0, omega=3.0, gamma=float("nan")), "gamma"),
    (lambda: PlasmaOscillators(omega_p=float("nan")), "omega_p"),
    (lambda: PlasmaOscillators(omega_p=float("inf")), "omega_p"),
    (lambda: Dielectric(eps0=float("inf")), "eps0"),
    (lambda: Dielectric(eps0=float("nan")), "eps0"),
])
def test_non_finite_parameters_rejected(make, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b.*finite"):
        make()


@pytest.mark.parametrize("model", [
    AU,
    PlasmaOscillators(omega_p=9.0, oscillators=(Oscillator(20.0, 3.0, 1.0),)),
    Tabulated(table=synthetic_drude_table(80), tail=AU),
    IdealMetal(),
    Dielectric(eps0=11.7),
], ids=["drude", "plasma_osc", "tabulated", "ideal", "dielectric"])
def test_eps_any_xi_shape_matches_raveled(model):
    xi = np.geomspace(0.01, 200.0, 3 * 17).reshape(3, 17)
    grid = eps_imag_axis(model, xi)
    flat = eps_imag_axis(model, xi.ravel())
    assert grid.shape == xi.shape
    assert [v.hex() for v in grid.ravel()] == [v.hex() for v in flat]


# ----------------------------------------------------------------- KK


def test_kk_self_consistency_at_1ev():
    table = synthetic_drude_table()
    got = kk_transform(table, AU, 1.0)
    want = eps_imag_axis(AU, 1.0)
    assert abs(got / want - 1.0) < 1e-3


def test_kk_self_consistency_wide_range():
    table = synthetic_drude_table()
    model = Tabulated(table=table, tail=AU)
    for xi in np.geomspace(0.01, 100.0, 15):
        got = eps_imag_axis(model, float(xi))
        want = eps_imag_axis(AU, float(xi))
        assert abs(got / want - 1.0) < 5e-3, f"xi={xi}"


def test_kk_vacuum_limit():
    omega = np.geomspace(0.125, 1e4, 50)
    table = OpticalTable(omega, np.full_like(omega, 1e-30))
    tail = Drude(omega_p=1e-12, gamma=0.035)
    assert kk_transform(table, tail, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_kk_high_frequency_limit():
    table = synthetic_drude_table(100)
    assert kk_transform(table, AU, 1e7) == pytest.approx(1.0, abs=1e-6)


def test_kk_confluent_tail_branch():
    # xi == gamma hits the double pole of the partial-fraction split; eps is
    # smooth there, so it is the mean of its values 1e-8 away (curvature ~2e-16)
    table = synthetic_drude_table(100)
    at = kk_transform(table, AU, 0.035)
    around = kk_transform(table, AU, 0.035 * np.array([1 - 1e-8, 1 + 1e-8]))
    assert at == pytest.approx(around.mean(), rel=1e-14)


def test_kk_vectorized_matches_scalar():
    table = synthetic_drude_table(80)
    # 40 values: the batch spans several Chebyshev pieces
    xi = np.concatenate([[0.1, 1.0, 10.0], np.geomspace(0.02, 50.0, 37)])
    vec = kk_transform(table, AU, xi)
    for i, x in enumerate(xi):
        assert vec[i] == kk_transform(table, AU, float(x))


# ------------------------------------------------- zero-frequency character


def test_drude_zero_behavior():
    # the TM channel alone, at r^2 = 1
    assert zero_frequency_character(AU, 500e-9) == ZeroFreqBehavior((0.0,))


def test_tabulated_is_drude_like():
    model = Tabulated(table=synthetic_drude_table(50), tail=AU)
    assert zero_frequency_character(model, 1e-6) == ZeroFreqBehavior((0.0,))


def test_plasma_skin_depth():
    beh = zero_frequency_character(PlasmaOscillators(omega_p=9.0), 500e-9)
    assert beh.log_r2 == (0.0,)
    delta0_nm = 2.0 * beh.alpha * 500.0  # alpha = delta_0/(2a)
    assert 21.5 < delta0_nm < 22.5


def test_dielectric_r0():
    # the TM channel alone, at r^2 = r0^2 = ((eps0 - 1)/(eps0 + 1))^2 = 1/4
    beh = zero_frequency_character(Dielectric(eps0=3.0), 1e-6)
    assert beh.alpha is None
    assert beh.log_r2 == (pytest.approx(math.log(0.25), rel=1e-15),)


def test_ideal_zero_behavior():
    # both channels at r^2 = 1
    assert zero_frequency_character(IdealMetal(), 1e-6) == ZeroFreqBehavior((0.0, 0.0))


def test_zero_behavior_stores_a_tuple():
    beh = ZeroFreqBehavior([0.0, -0.5])
    assert beh.log_r2 == (0.0, -0.5)
    assert beh == ZeroFreqBehavior((0.0, -0.5))
    assert hash(beh) == hash(ZeroFreqBehavior((0.0, -0.5)))
    assert ZeroFreqBehavior((), alpha=0.1).log_r2 == ()  # the plasma TE channel alone


@pytest.mark.parametrize("log_r2,alpha,field", [
    ((), None, "log_r2"),                        # no channel
    ((float("nan"),), None, "log_r2"),
    ((-math.inf,), None, "log_r2"),              # r = 0: no channel, not a constant one
    ((0.0, math.inf), None, "log_r2"),
    ((2.0 * math.log(2.0),), None, "log_r2"),    # r0 = 2: r^2 > 1
    ((0.0,), float("nan"), "alpha"),
    ((0.0,), math.inf, "alpha"),
    ((0.0,), -0.01, "alpha"),
], ids=["no_channel", "nan", "minus_inf", "inf", "r2_above_one",
        "alpha_nan", "alpha_inf", "alpha_negative"])
def test_malformed_zero_behavior_rejected(log_r2, alpha, field):
    with pytest.raises(ValueError, match=field):
        ZeroFreqBehavior(log_r2, alpha)


# ------------------------------------------------------------ file loading


def test_load_two_column(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text("# omega_eV  im_eps\n0.5 4.0\n1.0 2.0\n2.0 0.5\n")
    table = load_optical_table(p)
    assert table.omega.size == 3
    assert table.omega_min == 0.5 and table.omega_max == 2.0


def test_load_three_column_nk(tmp_path):
    p = tmp_path / "nk.txt"
    p.write_text("0.5 1.5 2.0\n1.0 1.2 0.8\n")
    table = load_optical_table(p)
    # Im eps = 2 n k
    assert table.im_eps[0] == pytest.approx(2.0 * 1.5 * 2.0)
    assert table.im_eps[1] == pytest.approx(2.0 * 1.2 * 0.8)


def test_load_rejects_descending(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0 2.0\n0.5 1.0\n")
    with pytest.raises(OpticalTableError) as excinfo:
        load_optical_table(p)
    assert excinfo.value.line == 2


def test_load_rejects_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0.5 1.0\nhello world\n")
    with pytest.raises(OpticalTableError) as excinfo:
        load_optical_table(p)
    assert excinfo.value.line == 2


@pytest.mark.parametrize("text, message", [
    ("0.5 1.0\n1.0 2.0 3.0\n", "inconsistent column count"),
    ("0.5 1.0 2.0\n1.0 2.0\n", "inconsistent column count"),
    ("0.5 1.0\n0.0 2.0\n", "photon energy must be positive"),
    ("-0.5 1.0\n1.0 2.0\n", "photon energy must be positive"),
], ids=["two_then_three", "three_then_two", "zero_energy", "negative_energy"])
def test_load_rejects_bad_row_naming_its_line(tmp_path, text, message):
    p = tmp_path / "bad.txt"
    p.write_text("# header\n" + text)
    bad_line = 2 if text.startswith("-") else 3
    with pytest.raises(OpticalTableError, match=message) as excinfo:
        load_optical_table(p)
    assert excinfo.value.line == bad_line
    assert str(excinfo.value).startswith(f"line {bad_line}: ")


def test_load_rejects_single_row(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0.5 1.0\n")
    with pytest.raises(OpticalTableError):
        load_optical_table(p)


def test_table_invariants():
    with pytest.raises(OpticalTableError):
        OpticalTable([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(OpticalTableError):
        OpticalTable([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(OpticalTableError):
        OpticalTable([1.0], [1.0])
    for omega in ([0.0, 1.0], [-1.0, 1.0], [-2.0, -1.0]):
        with pytest.raises(OpticalTableError, match="photon energies must be positive"):
            OpticalTable(omega, [1.0, 1.0])


def _segment_loop_nodes(table: OpticalTable):
    """The dispersion nodes built one table segment at a time (the oracle)."""
    ln_w = np.log(table.omega)
    ln_g = np.log(table.im_eps)
    rules = (gauss_legendre(dielectric._RULE_NODES), gauss_legendre(dielectric._PROBE_NODES))
    sinks = ([], [])
    for i in range(table.omega.size - 1):
        width = ln_w[i + 1] - ln_w[i]
        rise = ln_g[i + 1] - ln_g[i]
        slope = rise / width
        span = max(width, (abs(rise + width) + width) / dielectric._SLOPE_SCALE)
        nsub = min(max(1, int(math.ceil(span / dielectric._LN_STEP))),
                   dielectric._MAX_SUBSEGMENTS)
        edges = np.linspace(ln_w[i], ln_w[i + 1], nsub + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        halves = 0.5 * np.diff(edges)
        for (pts, wts), sink in zip(rules, sinks):
            ln_pts = (centers[:, None] + halves[:, None] * pts[None, :]).ravel()
            w_pts = (halves[:, None] * wts[None, :]).ravel()
            om = np.exp(ln_pts)
            gval = np.exp(ln_g[i] + slope * (ln_pts - ln_w[i]))
            sink.append(np.stack([om * om, w_pts * om * om * gval]))
    return [np.concatenate(sink, axis=1) for sink in sinks]


@pytest.mark.parametrize("omega", [
    np.geomspace(0.125, 1.0e4, 600),                   # every segment narrower than the step
    np.geomspace(0.5, 1.0e4, 400),
    [0.01, 0.0100001, 0.02, 0.5, 0.51, 3.0, 1.0e3],    # 5e-4 to 290 steps wide
    [1.0, 1.0 + 1e-12, 2.0],                           # one sub-segment of 1e-12
    np.geomspace(1e-3, 1e5, 7),
], ids=["fine600", "fine400", "mixed", "tiny", "wide"])
def test_nodes_match_segment_loop_bits(omega):
    omega = np.asarray(omega, dtype=float)
    rng = np.random.default_rng(omega.size)
    table = OpticalTable(omega, [drude_im_eps(w) * rng.uniform(0.5, 2.0) for w in omega])
    full, half = _segment_loop_nodes(table)
    for got, want in ((table._om2, full[0]), (table._wt, full[1]),
                      (table._om2_probe, half[0]), (table._wt_probe, half[1])):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_smooth_dense_table_takes_six_nodes_per_segment():
    # Drude slope ~-3 at steps of 0.019 in ln omega: one sub-segment each
    table = synthetic_drude_table(600)
    assert (table._om2.size, table._om2_probe.size) == (4 * 599, 2 * 599)


def _stress_table(n: int, lo: float, hi: float) -> OpticalTable:
    """Drude rows on 0.1-100 eV, each scaled by a random factor in [lo, hi]."""
    omega = np.geomspace(0.1, 100.0, n)
    scale = np.random.default_rng(n).uniform(lo, hi, n)
    return OpticalTable(omega, drude_im_eps(omega) * scale)


def _probe_gap(table: OpticalTable, xi: np.ndarray) -> float:
    """Largest relative gap between the rule and the probe, as kk_transform checks it."""
    eps = kk_transform(table, AU, xi)
    gap = table.dispersion_integral(xi) - table.dispersion_integral_coarse(xi)
    return float(np.max(np.abs(gap) / eps))


# the probe's worst relative miss on one sub-segment of an exponential
# integrand that changes by _SLOPE_SCALE * _LN_STEP in its log: 5.6e-9
_PROBE_BOUND = (dielectric._SLOPE_SCALE * dielectric._LN_STEP) ** 4 / 4320


@pytest.mark.parametrize("n, lo, hi", [
    (100, 0.5, 2.0), (400, 0.5, 2.0), (600, 0.5, 2.0), (400, 0.1, 10.0), (2000, 0.1, 10.0),
], ids=["100x2", "400x2", "600x2", "400x10", "2000x10"])
def test_steep_tables_accepted(n, lo, hi):
    # rows scaled by random factors: |slope| up to 78 (400x2) and 1242 (2000x10);
    # a width-only 8/4-point rule refuses the last two
    table = _stress_table(n, lo, hi)
    assert _probe_gap(table, np.geomspace(1e-4, 1e3, 60)) <= _PROBE_BOUND


@pytest.mark.parametrize("slope", [-60.0, -7.0, -3.0, -1.0, 0.0, 2.0, 5.0, 60.0])
def test_probe_gap_bounded_on_widest_sub_segment(slope):
    # one segment as wide as a single sub-segment may be, with Im eps so large
    # that it dominates eps; where the slope sets that width the gap reaches
    # the bound
    growth = abs(slope + 1.0) + 1.0  # max(|slope|, |slope + 2|)
    width = dielectric._LN_STEP * min(1.0, dielectric._SLOPE_SCALE / growth)
    omega = np.array([1.0, math.exp(width * 0.999)])
    table = OpticalTable(omega, 1e8 * omega**slope)
    assert table._om2.size == dielectric._RULE_NODES
    gap = _probe_gap(table, np.geomspace(1e-6, 1e6, 200))
    assert gap <= 1.01 * _PROBE_BOUND
    if growth >= dielectric._SLOPE_SCALE:
        assert gap > 0.9 * _PROBE_BOUND


def test_pathological_table_bounded_and_rejected():
    # Im eps jumping by 1e400 between rows would need ~1.3e4 sub-segments each
    omega = np.geomspace(0.1, 100.0, 20)
    table = OpticalTable(omega, np.where(np.arange(20) % 2, 1e-200, 1e200))
    assert table._om2.size <= 19 * dielectric._MAX_SUBSEGMENTS * dielectric._RULE_NODES
    with pytest.raises(OpticalTableError, match="accuracy check"):
        kk_transform(table, AU, np.array([0.1, 1.0, 10.0]))


def test_failed_piece_names_its_node_and_is_not_kept():
    omega = np.geomspace(0.1, 100.0, 20)
    table = OpticalTable(omega, np.where(np.arange(20) % 2, 1e-200, 1e200))
    for _ in range(2):  # nothing was kept, so the same call checks and fails again
        with pytest.raises(OpticalTableError, match="accuracy check") as excinfo:
            kk_transform(table, AU, 1.0)
        message = str(excinfo.value)
        xi = float(message.split("at xi = ")[1].split(" eV")[0])
        gap = float(message.split("differ by ")[1].split(" of eps")[0])
        # the worst node of the piece [0, 1) in ln xi, past the bound
        assert 1.0 < xi < math.e and gap > 1e-8 and message.endswith("over the 1e-8 bound")
        assert not table._pieces[AU][1].any()


def _node_sum_eps(table: OpticalTable, tail: Drude, xi: np.ndarray) -> np.ndarray:
    """eps(i xi) from the exact node sums, as the pieces are built."""
    return 1.0 + dielectric._drude_tail_integral(tail, table.omega_min, xi) \
        + table.dispersion_integral(xi)


def _assert_pieces_match_node_sums(table: OpticalTable, xi: np.ndarray) -> None:
    got = kk_transform(table, AU, xi)
    want = _node_sum_eps(table, AU, xi)
    # the documented interpolation bound; 2.4e-15 measured on 200 random tables
    assert np.max(np.abs(got / want - 1.0)) <= 1e-14


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(20, 800), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.integers(0, 2**32 - 1),
       st.lists(st.floats(-12.0, 6.0), min_size=1, max_size=50))
def test_pieces_match_node_sums_on_random_tables(n, lg_a, lg_b, seed, lg_xi):
    # rows of a Drude spectrum between edges in [1e-3, 1e3] eV (at least 1%
    # apart), each scaled by a random factor in [0.1, 10]
    lo, hi = sorted((10.0**lg_a, 10.0**lg_b))
    omega = np.geomspace(lo, max(hi, lo * 1.01), n)
    scale = np.random.default_rng(seed).uniform(0.1, 10.0, n)
    table = OpticalTable(omega, drude_im_eps(omega) * scale)
    _assert_pieces_match_node_sums(table, 10.0 ** np.array(lg_xi))


@pytest.mark.parametrize("n, lo, hi", [
    (100, 0.5, 2.0), (400, 0.5, 2.0), (600, 0.5, 2.0), (400, 0.1, 10.0), (2000, 0.1, 10.0),
], ids=["100x2", "400x2", "600x2", "400x10", "2000x10"])
def test_pieces_match_node_sums_on_steep_tables(n, lo, hi):
    _assert_pieces_match_node_sums(_stress_table(n, lo, hi), np.geomspace(1e-12, 1e6, 400))


def test_extreme_xi_finite_and_builds_only_its_pieces():
    table = synthetic_drude_table(80)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eps = kk_transform(table, AU, np.array([1e-300, 1e300]))
        assert np.all(np.isfinite(eps)) and eps[0] > 1e303 and eps[1] == 1.0
        # floor(ln xi) = -691 and 690: two pieces, nothing between
        built = np.flatnonzero(table._pieces[AU][1])
        assert list(built + dielectric._PIECE_LO) == [-691, 690]
        # the largest float has the last row, whose piece reaches past the float range
        assert eps_imag_axis(Tabulated(table=table, tail=AU), sys.float_info.max) == 1.0
    assert table._pieces[AU][1][-1] and table._pieces[AU][1].sum() == 3
    # the smallest positive float has the first row: every one has a row
    assert math.floor(math.log(math.ulp(0.0))) == dielectric._PIECE_LO


def test_piece_coefficients_do_not_depend_on_build_order():
    xi = np.array([0.01, 1.5, 30.0])
    alone = synthetic_drude_table(80)
    kk_transform(alone, AU, 1.5)
    batch = synthetic_drude_table(80)
    kk_transform(batch, AU, xi[::-1])
    row = math.floor(math.log(1.5)) - dielectric._PIECE_LO
    assert batch._pieces[AU][1].sum() == 3
    assert np.array_equal(alone._pieces[AU][0][row], batch._pieces[AU][0][row])
    assert kk_transform(alone, AU, xi)[1] == kk_transform(batch, AU, xi)[1]


def test_pieces_are_kept_per_tail():
    # the accuracy check takes the tail into eps, so a piece is checked per tail
    table = synthetic_drude_table(80)
    other = Drude(omega_p=3.0, gamma=0.1)
    kk_transform(table, AU, 1.0)
    got = kk_transform(table, other, np.array([1.0, 10.0]))
    assert table._pieces[AU][1].sum() == 1 and table._pieces[other][1].sum() == 2
    want = _node_sum_eps(table, other, np.array([1.0, 10.0]))
    assert np.max(np.abs(got / want - 1.0)) <= 1e-14


def test_table_copies_and_freezes_its_inputs():
    omega = np.geomspace(0.125, 1.0e4, 50)
    im_eps = drude_im_eps(omega)
    table = OpticalTable(omega, im_eps)
    omega[0] = 5.0
    im_eps[0] = 5.0
    assert table.omega[0] == 0.125 and table.im_eps[0] == drude_im_eps(0.125)
    for arr in (table.omega, table.im_eps, table._om2, table._wt,
                table._om2_probe, table._wt_probe):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        table.omega[0] = 5.0


@pytest.mark.parametrize("omega, im_eps", [
    ([1.0, float("nan")], [1.0, 1.0]),
    ([1.0, float("inf")], [1.0, 1.0]),
    ([1.0, 2.0], [float("nan"), 1.0]),
    ([1.0, 2.0], [1.0, float("inf")]),
], ids=["nan_omega", "inf_omega", "nan_im", "inf_im"])
def test_table_rejects_non_finite(omega, im_eps):
    with pytest.raises(OpticalTableError, match="finite"):
        OpticalTable(omega, im_eps)


@pytest.mark.parametrize("row", [
    "nan 1.0", "inf 1.0", "3.0 nan", "3.0 inf", "3.0 -inf",
    "3.0 1.0 nan", "3.0 inf 1.0", "3.0 1e200 1e200",
], ids=["nan_omega", "inf_omega", "nan_im", "inf_im", "neg_inf_im",
        "nan_k", "inf_n", "overflowing_nk"])
def test_load_rejects_non_finite(tmp_path, row):
    p = tmp_path / "bad.txt"
    ncols = len(row.split())
    first = "0.5 1.0" if ncols == 2 else "0.5 1.0 1.0"
    p.write_text(f"# header\n{first}\n{row}\n")
    with pytest.raises(OpticalTableError, match="finite") as excinfo:
        load_optical_table(p)
    assert excinfo.value.line == 3


_TABLE = synthetic_drude_table(40)


@pytest.mark.parametrize("call", [
    lambda: eps_imag_axis(AU, float("nan")),
    lambda: eps_imag_axis(AU, np.array([1.0, float("nan")])),
    lambda: eps_imag_axis(IdealMetal(), float("nan")),
    lambda: kk_transform(_TABLE, AU, float("nan")),
    lambda: kk_transform(_TABLE, AU, np.array([1.0, float("nan")])),
    lambda: zero_frequency_character(PlasmaOscillators(omega_p=9.0), float("nan")),
    lambda: zero_frequency_character(AU, float("inf")),
], ids=["eps_nan", "eps_nan_in_array", "eps_ideal_nan", "kk_nan",
        "kk_nan_in_array", "zero_freq_nan_a", "zero_freq_inf_a"])
def test_non_finite_input_rejected(call):
    with pytest.raises(ValueError):
        call()


_MODELS = [AU, PlasmaOscillators(omega_p=9.0, oscillators=(Oscillator(g=20.0, omega=3.0),)),
           Tabulated(table=_TABLE, tail=AU), IdealMetal(),
           Dielectric(eps0=11.7)]


@pytest.mark.parametrize("model", _MODELS,
                         ids=["drude", "plasma_osc", "tabulated", "ideal", "dielectric"])
@pytest.mark.parametrize("xi", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_xi_outside_the_positive_floats_rejected(model, xi):
    # an infinite xi used to give 1.0 for Drude and plasma and NaN for a table
    for arg in (xi, np.array([1.0, xi])):
        with pytest.raises(ValueError, match="xi must be positive and finite"):
            eps_imag_axis(model, arg)
    with pytest.raises(ValueError, match="xi must be positive and finite"):
        kk_transform(_TABLE, AU, np.array([[1.0], [xi]]))
