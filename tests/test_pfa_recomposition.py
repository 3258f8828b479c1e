"""Checks on the independent recomposition behind criterion 07.

``pfa_recomposition`` is the reference the short-separation plasma tests
compare against, so its own convergence is tested here, and its absolute
T = 0 values are compared with the engine: the relative corrections that
criterion 07 asserts cannot see an error common to X(T) and X(0), such as a
wrong prefactor.  The Drude and static-dielectric recompositions, each with
its own eps(i xi), check the engine's force and gradient at T = 0 and 300 K;
under Drude the TE l = 0 term drops out, which is the Drude side of the
paper's Drude-versus-plasma contrast.
"""
import pytest

from casimir_cyl import (Dielectric, Drude, PlasmaOscillators, QuadratureSpec,
                         ThermalState, cylinder_force, cylinder_force_gradient,
                         thermal_correction, zero_temperature_force,
                         zero_temperature_gradient)
from conftest import geometry_at
from pfa_recomposition import (EPS0, GAMMA_EV, OMEGA_P_EV, cylinder_force_and_gradient,
                               thermal_corrections)

# the engine's model for each recomposition beyond plasma
ENGINE_MODELS = {"drude": Drude(omega_p=OMEGA_P_EV, gamma=GAMMA_EV),
                 "dielectric": Dielectric(eps0=EPS0)}

HBAR_C_XFAIL = (
    "tau = 4 pi k_B T a/(hbar c) is built from HBAR_J_S * SPEED_OF_LIGHT_M_S "
    "(197.32698034 eV nm), every other hbar c from HBAR_C_EV_NM "
    "(197.3269804 eV nm): 3.1e-10 apart, which is the finite-T floor; with "
    "tau built from HBAR_C_J_M the agreement is 2e-12")


def _engine(model, a_nm: float, temperature: float, rel_tol: float) -> tuple[float, float]:
    """The engine's force and gradient at a_nm, T = 0 on its continuum path."""
    geom = geometry_at(a_nm)
    quad = QuadratureSpec(rel_tol)
    if temperature == 0.0:
        return (zero_temperature_force(geom, model, quad).value,
                zero_temperature_gradient(geom, model, quad).value)
    thermal = ThermalState.at(temperature, geom)
    return (cylinder_force(geom, thermal, model, quad).value,
            cylinder_force_gradient(geom, thermal, model, quad).value)


def test_recomposition_converged_under_node_doubling():
    """Doubling every node count moves delta_T by far less than the test bound."""
    base = thermal_corrections(150e-9)
    fine = thermal_corrections(150e-9, refine=2)
    for coarse, ref in zip(base, fine):
        assert abs(coarse - ref) <= 1e-12, (coarse, ref)


@pytest.mark.parametrize("a_nm", [150.0, 750.0])
def test_zero_temperature_plasma_matches_recomposition(a_nm):
    """Absolute T = 0 force and gradient agree within the requested rel_tol."""
    rel_tol = 1e-9
    geom = geometry_at(a_nm)
    model = PlasmaOscillators(omega_p=9.0)
    quad = QuadratureSpec(rel_tol)
    force, gradient = cylinder_force_and_gradient(geom.a, 0.0)
    assert zero_temperature_force(geom, model, quad).value == pytest.approx(
        force, rel=rel_tol, abs=0.0)
    assert zero_temperature_gradient(geom, model, quad).value == pytest.approx(
        gradient, rel=rel_tol, abs=0.0)


@pytest.mark.xfail(strict=True, reason=HBAR_C_XFAIL)
def test_finite_temperature_plasma_matches_recomposition():
    """Finite-T force and gradient at 150 nm agree to 1e-11 at rel_tol 1e-12."""
    geom = geometry_at(150.0)
    model = PlasmaOscillators(omega_p=9.0)
    quad = QuadratureSpec(1e-12)
    thermal = ThermalState.at(300.0, geom)
    force, gradient = cylinder_force_and_gradient(geom.a, 300.0)
    assert cylinder_force(geom, thermal, model, quad).value == pytest.approx(
        force, rel=1e-11, abs=0.0)
    assert cylinder_force_gradient(geom, thermal, model, quad).value == pytest.approx(
        gradient, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("model", ["drude", "dielectric"])
@pytest.mark.parametrize("temperature", [0.0, 300.0])
def test_recomposition_beyond_plasma_converged_under_node_doubling(model, temperature):
    """Doubling every node count moves the Drude and dielectric values by < 1e-12."""
    base = cylinder_force_and_gradient(150e-9, temperature, 1, model)
    fine = cylinder_force_and_gradient(150e-9, temperature, 2, model)
    for coarse, ref in zip(base, fine):
        assert coarse == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model", ["drude", "dielectric"])
@pytest.mark.parametrize("temperature", [0.0, 300.0])
@pytest.mark.parametrize("a_nm", [150.0, 750.0])
def test_drude_and_dielectric_match_recomposition(model, temperature, a_nm):
    """Force and gradient agree within 10 rel_tol at T = 0 and at 300 K."""
    rel_tol = 1e-9
    got = _engine(ENGINE_MODELS[model], a_nm, temperature, rel_tol)
    want = cylinder_force_and_gradient(a_nm * 1e-9, temperature, 1, model)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=10.0 * rel_tol, abs=0.0)


def test_drude_thermal_correction_matches_recomposition():
    """Drude delta_T of force and gradient at 150 nm within 10 rel_tol (fractions)."""
    rel_tol = 1e-9
    geom = geometry_at(150.0)
    want = thermal_corrections(geom.a, model="drude")
    for which, w in zip(("force", "gradient"), want):
        got = thermal_correction(geom, ENGINE_MODELS["drude"], QuadratureSpec(rel_tol),
                                 which=which, temperature=300.0)
        assert abs(got - w) <= 10.0 * rel_tol, (which, got, w)


@pytest.mark.xfail(strict=True, reason=HBAR_C_XFAIL)
@pytest.mark.parametrize("model", ["drude", "dielectric"])
def test_finite_temperature_beyond_plasma_matches_recomposition_tightly(model):
    """Finite-T force and gradient at 150 nm agree to 1e-11 at rel_tol 1e-12."""
    got = _engine(ENGINE_MODELS[model], 150.0, 300.0, 1e-12)
    want = cylinder_force_and_gradient(150e-9, 300.0, 1, model)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-11, abs=0.0)
