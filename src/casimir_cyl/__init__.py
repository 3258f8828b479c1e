"""Thermal Casimir force between a coated cylinder and a plate.

Proximity-force-approximation Lifshitz formulas with Drude / plasma /
static-dielectric / tabulated-optical-data material models, tilt and
finite-length corrections, and the torsional-oscillator frequency mapping.
"""
from .casimir_core import (ForceResult, Geometry, PFAValidityWarning,
                           ThermalState, cylinder_force,
                           cylinder_force_gradient, high_temperature_force,
                           high_temperature_gradient, ideal_metal_force_t0,
                           ideal_metal_gradient_t0, plate_pressure,
                           thermal_correction, zero_temperature_force,
                           zero_temperature_gradient)
from .dielectric import (Dielectric, Drude, IdealMetal, OpticalTable,
                         OpticalTableError, Oscillator, PlasmaOscillators,
                         Tabulated, ZeroFreqDielectric, ZeroFreqDrudeLike,
                         ZeroFreqIdeal, ZeroFreqPlasmaLike,
                         eps_imag_axis, gold_drude, kk_transform,
                         load_optical_table, zero_frequency_character)
from .edge import (EDGE_FORCE_COEFF, EDGE_GRADIENT_COEFF, PFA_FORCE_COEFF,
                   PFA_GRADIENT_COEFF, WORLD_LINE_EDGE_COEFF, EdgeParams,
                   EdgeValidityWarning, edge_corrected_force,
                   edge_corrected_gradient, finite_plate_force,
                   overhang_force, total_pfa_error)
from .experiment import (OscillatorParams, SensitivityFloor, infer_gradient,
                         resonant_frequency, sensitivity_floor)
from .quadrature import ConvergenceError, QuadratureSpec
from .specfun import ZETA_3, polylog, polylog_exp_neg, riemann_zeta
from .tilt import (TiltParams, kappa, kappa_nm, multiplicative_force,
                   tilted_force, tilted_gradient)

__version__ = "0.1.0"
