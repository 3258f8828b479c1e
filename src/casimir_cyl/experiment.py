"""Torsional-oscillator mapping between force gradient and resonance shift.

In dynamic mode the oscillator resonance shifts linearly with the force
gradient, ``omega_res = omega_0 (1 - b^2/(I omega_0^2) dF/da)``; an
attractive-geometry gradient (positive, as produced by the force engine)
lowers the resonance.  The 0.1 pN static-mode force floor and the 6 mHz
frequency resolution are the instrument sensitivities this design targets;
the oscillator constants (omega_0, b, I) are setup-specific and ship with
no defaults, so they are mandatory user inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["OscillatorParams", "SensitivityFloor", "resonant_frequency",
           "infer_gradient", "sensitivity_floor", "STATIC_FORCE_FLOOR_N"]

STATIC_FORCE_FLOOR_N = 0.1e-12  # static-mode force sensitivity, 0.1 pN


@dataclass(frozen=True)
class OscillatorParams:
    """Natural angular frequency (rad/s), lever arm (m), moment of inertia (kg m^2)."""

    omega_0: float
    b: float
    moment_I: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) and x > 0.0
                   for x in (self.omega_0, self.b, self.moment_I)):
            raise ValueError("oscillator parameters must all be positive and finite")

    @property
    def shift_factor(self) -> float:
        """b^2/(I omega_0^2), the gradient-to-relative-shift conversion (m/N)."""
        return self.b**2 / (self.moment_I * self.omega_0**2)


def resonant_frequency(osc: OscillatorParams, grad: float) -> float:
    """Resonance (rad/s) in the presence of a force gradient (N/m)."""
    if not math.isfinite(grad):
        raise ValueError(f"force gradient must be finite, got {grad}")
    shift = osc.shift_factor * grad
    if abs(shift) >= 1.0:
        raise ValueError(
            f"relative shift {shift:.3g} reaches 1: oscillator unstable")
    return osc.omega_0 * (1.0 - shift)


def infer_gradient(osc: OscillatorParams, omega_res: float) -> float:
    """Force gradient (N/m) back from a measured resonance (rad/s)."""
    if not (math.isfinite(omega_res) and omega_res > 0.0):
        raise ValueError(f"resonant frequency must be positive and finite, got {omega_res}")
    return (1.0 - omega_res / osc.omega_0) / osc.shift_factor


@dataclass(frozen=True)
class SensitivityFloor:
    """Minimal detectable gradient (dynamic mode) and force (static mode)."""

    gradient_n_per_m: float
    static_force_n: float = STATIC_FORCE_FLOOR_N


def sensitivity_floor(osc: OscillatorParams, df_res: float) -> SensitivityFloor:
    """Minimal detectable gradient for a frequency resolution df_res (Hz).

    Differencing the resonance relation: delta_g = (2 pi df_res/omega_0) *
    I omega_0^2 / b^2.  The static-mode force floor rides along unchanged.
    """
    if not (math.isfinite(df_res) and df_res > 0.0):
        raise ValueError(f"frequency resolution must be positive and finite, got {df_res}")
    dg = 2.0 * math.pi * df_res / (osc.omega_0 * osc.shift_factor)
    return SensitivityFloor(gradient_n_per_m=dg)
