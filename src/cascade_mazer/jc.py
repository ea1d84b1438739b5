"""Resonant two-mode Jaynes-Cummings gains for a classically moving atom.

When the atomic kinetic energy dwarfs the coupling, the cavity no longer
acts as a potential and the atom simply spends a transit time tau inside
the field.  The cascade then Rabi-oscillates with the dressed frequency
Omega = g1 * sqrt((n1+1) + gamma^2 (n2+1)) and the emission probabilities
reduce to closed trigonometric forms.

Transit-time mapping used throughout: an atom of momentum hbar*k crosses a
cavity of length L in tau = L m / (hbar k).  With the energy unit fixed by
hbar g1 = (hbar kappa)^2 / (2 m) this gives g1*tau = g1 L m / (hbar k)
= kappa*L / (2 k/kappa), which is how the sweep commands convert a cavity
length into an interaction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scattering import (
    GainProbabilities, _dressed, _require_count, _require_nonnegative, _require_positive
)

__all__ = ["JcInput", "jc_gain", "g1_tau_from_beam"]


@dataclass(frozen=True)
class JcInput:
    """Couplings, photon numbers and accumulated interaction time g1*tau."""

    gamma: float
    n1: int
    n2: int
    g1_tau: float

    def __post_init__(self):
        _require_nonnegative("gamma", self.gamma)
        _require_nonnegative("g1_tau", self.g1_tau)
        _require_count("n1", self.n1)
        _require_count("n2", self.n2)


def g1_tau_from_beam(kappa_l: float, k_ratio: float) -> float:
    """Interaction time g1*tau of a fast atom crossing the cavity.

    See the module docstring for the derivation; valid when the kinetic
    energy is far above the coupling, i.e. (k/kappa)^2 >> Omega/g1.  Raises
    ValueError if g1*tau overflows.
    """
    _require_positive("k_ratio", k_ratio)
    _require_nonnegative("kappa_l", kappa_l)
    g1_tau = kappa_l / (2.0 * k_ratio)
    if not math.isfinite(g1_tau):
        raise ValueError(f"g1_tau = kappa_l / (2 k_ratio) overflows at kappa_l={kappa_l!r}, "
                         f"k_ratio={k_ratio!r}; raise k_ratio or lower kappa_l")
    return g1_tau


def jc_gain(inp: JcInput) -> GainProbabilities:
    """One- and two-photon emission probabilities after a timed transit.

    p_one = u^2 sin^2(Omega tau) and p_two = 4 u^2 v^2 sin^4(Omega tau / 2),
    with u, v the dressed-doublet and dark-state weights of the initial
    state.  At Omega tau = pi the one-photon channel closes while the pair
    channel peaks at 4 u^2 v^2.  Raises ValueError if Omega tau overflows.
    """
    a, b, omega, _, _ = _dressed(inp.gamma, inp.n1, inp.n2)
    # Python floats: an infinite Omega makes the phase inf or nan, without a numpy warning
    phase = float(inp.g1_tau) * float(omega)
    if not math.isfinite(phase):
        raise ValueError(f"Omega * g1_tau of {inp} overflows; lower gamma or g1_tau")
    # u^2 = a / Omega^2 and v^2 = b / Omega^2, each rounded once
    omega_sq = a + b
    u_sq = a / omega_sq
    v_sq = b / omega_sq
    p_one = u_sq * math.sin(phase) ** 2
    p_two = 4.0 * u_sq * v_sq * math.sin(0.5 * phase) ** 4
    return GainProbabilities(p_one=p_one, p_two=p_two)
