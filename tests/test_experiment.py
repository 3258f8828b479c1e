"""Oscillator frequency-shift mapping."""
import math

import pytest

from casimir_cyl import (OscillatorParams, infer_gradient, resonant_frequency,
                         sensitivity_floor)
from casimir_cyl.experiment import STATIC_FORCE_FLOOR_N

OSC = OscillatorParams(omega_0=2.0 * math.pi * 700.0, b=200e-6,
                       moment_I=4.0e-17)


def test_zero_gradient_keeps_natural_frequency():
    assert resonant_frequency(OSC, 0.0) == OSC.omega_0


def test_round_trip_inverse():
    for g in (1e-7, 3.2e-5, -4e-6):
        assert infer_gradient(OSC, resonant_frequency(OSC, g)) == \
            pytest.approx(g, rel=1e-12)


def test_shift_linear_in_gradient():
    g = 1e-5
    d1 = resonant_frequency(OSC, g) - OSC.omega_0
    d2 = resonant_frequency(OSC, 2.0 * g) - OSC.omega_0
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)


def test_attractive_gradient_lowers_resonance():
    # positive dF/da, as the force engine produces, pulls omega_res down
    assert resonant_frequency(OSC, 1e-5) < OSC.omega_0


def test_instability_guard():
    runaway = 1.1 / OSC.shift_factor
    with pytest.raises(ValueError):
        resonant_frequency(OSC, runaway)


def test_parameter_validation():
    with pytest.raises(ValueError):
        OscillatorParams(omega_0=0.0, b=1e-4, moment_I=1e-17)
    with pytest.raises(ValueError):
        infer_gradient(OSC, -1.0)


def test_sensitivity_floor_formula():
    df = 6e-3  # 6 mHz frequency resolution
    floor = sensitivity_floor(OSC, df)
    want = 2.0 * math.pi * df / OSC.omega_0 * (
        OSC.moment_I * OSC.omega_0**2 / OSC.b**2)
    assert floor.gradient_n_per_m == pytest.approx(want, rel=1e-14)
    assert floor.static_force_n == STATIC_FORCE_FLOOR_N == 0.1e-12


def test_floor_vanishes_with_resolution():
    tiny = sensitivity_floor(OSC, 1e-12).gradient_n_per_m
    assert tiny < sensitivity_floor(OSC, 1e-3).gradient_n_per_m
    assert tiny == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        sensitivity_floor(OSC, 0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda: OscillatorParams(NAN, 200e-6, 4.0e-17),
    lambda: OscillatorParams(INF, 200e-6, 4.0e-17),
    lambda: OscillatorParams(1.0, NAN, 4.0e-17),
    lambda: OscillatorParams(1.0, 200e-6, INF),
    lambda: resonant_frequency(OSC, NAN),
    lambda: resonant_frequency(OSC, INF),
    lambda: infer_gradient(OSC, NAN),
    lambda: infer_gradient(OSC, INF),
    lambda: sensitivity_floor(OSC, NAN),
    lambda: sensitivity_floor(OSC, INF),
], ids=["omega0_nan", "omega0_inf", "b_nan", "moment_inf", "resonance_nan",
        "resonance_inf", "infer_nan", "infer_inf", "floor_nan", "floor_inf"])
def test_non_finite_input_rejected(call):
    with pytest.raises(ValueError):
        call()
