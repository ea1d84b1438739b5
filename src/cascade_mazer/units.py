"""Laboratory scales behind the dimensionless units.

The coupling g1 and the atom mass fix the coupling wavenumber kappa through
hbar*g1 = (hbar*kappa)^2 / (2 m); lengths kappa*L and momenta k/kappa then
map to metres and kelvin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scattering import _require_nonnegative, _require_positive

__all__ = ["PhysicalScale", "physical_scale", "RB85_MASS_KG", "DEFAULT_G1_RAD_PER_S"]

# CODATA 2022, as scipy.constants gives them: the atomic mass constant in kg,
# hbar in J s and Boltzmann's constant in J/K.  Written out so that this
# module does not import scipy.
ATOMIC_MASS_KG = 1.66053906892e-27
HBAR = 1.0545718176461565e-34
K_B = 1.380649e-23

RB85_MASS_KG = 84.911789738 * ATOMIC_MASS_KG
DEFAULT_G1_RAD_PER_S = 2.0 * math.pi * 1.0e7


@dataclass(frozen=True)
class PhysicalScale:
    """Laboratory anchors fixing the dimensionless units."""

    g1_rad_per_s: float = DEFAULT_G1_RAD_PER_S
    atom_mass_kg: float = RB85_MASS_KG

    def __post_init__(self):
        for name in ("g1_rad_per_s", "atom_mass_kg"):
            _require_positive(name, getattr(self, name))


def physical_scale(
    ps: PhysicalScale, kappa_l: float, k_ratio: float
) -> tuple[float, float, float]:
    """(cavity length in m, atom temperature in K, kappa in 1/m).

    kappa is fixed by hbar*g1 = (hbar*kappa)^2 / (2 m); the temperature is
    the kinetic energy scale (k/kappa)^2 hbar g1 / k_B.  A stationary atom
    (k_ratio = 0) has zero temperature here, though CavityBeam refuses it.
    """
    _require_nonnegative("kappa_l", kappa_l)
    _require_nonnegative("k_ratio", k_ratio)
    kappa = math.sqrt(2.0 * ps.atom_mass_kg * ps.g1_rad_per_s / HBAR)
    if kappa == 0.0:
        raise ValueError("kappa underflows to 0; bring g1 and the mass to a physical scale")
    length = kappa_l / kappa
    temperature = k_ratio * k_ratio * HBAR * ps.g1_rad_per_s / K_B
    return length, temperature, kappa
