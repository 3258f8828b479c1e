"""Physical constants (CODATA 2018) used throughout the package.

Internal computations run in the dimensionless system; energies on the
imaginary-frequency axis are carried in eV and converted with ``HBAR_C_EV_NM``
only at the SI boundary.
"""
from __future__ import annotations

import math

BOLTZMANN_J_PER_K = 1.380649e-23        # k_B, exact (SI 2019)
HBAR_J_S = 1.054571817e-34              # reduced Planck constant
SPEED_OF_LIGHT_M_S = 299792458.0        # exact
EV_J = 1.602176634e-19                  # electron volt, exact
HBAR_C_EV_NM = 197.3269804              # hbar*c in eV nm
HBAR_C_J_M = HBAR_C_EV_NM * EV_J * 1e-9  # hbar*c in J m

SQRT_PI = math.sqrt(math.pi)

