"""Scattering of a slow cascade atom crossing a two-mode cavity.

A three-level atom in a ladder configuration (a -> b1 -> b2) moves through
a cavity sustaining two field modes with flat (mesa) profiles.  Inside the
cavity the coupled atom-field states split into two dressed components that
see a barrier and a well of equal depth, plus one dark component that
crosses freely.  Everything here is dimensionless: the incoming wavenumber
k and the cavity length L are measured against the coupling wavenumber
kappa (kappa = 1 internally), couplings enter only through gamma = g2/g1,
and g1 = 1 fixes the energy unit.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from . import _numpy as np

__all__ = [
    "CavityBeam",
    "ScatterInput",
    "DressedCoefficients",
    "BranchAmplitudes",
    "ScatterChannels",
    "GainProbabilities",
    "dressed_coefficients",
    "branch_wavenumbers",
    "branch_amplitudes",
    "scatter_channels",
    "gain_probabilities",
    "ultracold_approx",
]

# Why an amplitude or gain came out non-finite, and what to change.
_OVERFLOW_HINT = "the beam overflows; bring k_ratio, kappa_l and gamma to a physical scale"


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_nonnegative(name: str, value: float) -> None:
    _require_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def _require_positive(name: str, value: float) -> None:
    _require_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


# Compared as an int: a larger count raises OverflowError where it meets a float.
_LARGEST_COUNT = int(sys.float_info.max)


def _require_count(name: str, value, minimum: int = 0) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    if value > _LARGEST_COUNT:
        raise ValueError(f"{name} must be at most {sys.float_info.max:.4g}, the largest float")


@dataclass(frozen=True)
class CavityBeam:
    """Beam momentum and cavity geometry, photon numbers left open.

    k_ratio is k/kappa, kappa_l is kappa*L, gamma is g2/g1.
    """

    k_ratio: float
    kappa_l: float
    gamma: float

    def __post_init__(self):
        _require_positive("k_ratio", self.k_ratio)
        _require_nonnegative("kappa_l", self.kappa_l)
        _require_nonnegative("gamma", self.gamma)

    def with_photons(self, n1: int, n2: int) -> "ScatterInput":
        return ScatterInput(self.k_ratio, self.kappa_l, self.gamma, n1, n2)


@dataclass(frozen=True)
class ScatterInput(CavityBeam):
    """One scattering event: beam, geometry and initial photon numbers."""

    n1: int
    n2: int

    def __post_init__(self):
        super().__post_init__()
        _require_count("n1", self.n1)
        _require_count("n2", self.n2)


@dataclass(frozen=True)
class DressedCoefficients:
    """Overlap of |a, n1, n2> with the dressed doublet (u) and dark state (v)."""

    u: float
    v: float
    omega_scaled: float


@dataclass(frozen=True)
class BranchAmplitudes:
    """Reflection/transmission amplitudes of the barrier (+) and well (-) branches."""

    rho_plus: complex
    tau_plus: complex
    rho_minus: complex
    tau_minus: complex


@dataclass(frozen=True)
class ScatterChannels:
    """Amplitudes for the six exit channels of the atom-field state.

    r_*/t_* are reflected/transmitted amplitudes for the atom leaving in
    |a> (photons unchanged), |b1> (one photon added to mode 1) or |b2>
    (one photon added to each mode).
    """

    r_a: complex
    t_a: complex
    r_b1: complex
    t_b1: complex
    r_b2: complex
    t_b2: complex


@dataclass(frozen=True)
class GainProbabilities:
    p_one: float
    p_two: float


def _dressed(gamma, n1, n2):
    """(a, b, Omega/g1, u, v) of the bare state |a, n1, n2>, array-safe.

    a = n1+1 and b = gamma^2 (n2+1); the dressed splitting is sqrt(a + b),
    and u = sqrt(a)/Omega, v = gamma sqrt(n2+1)/Omega weigh the scattered
    doublet and the dark state.
    """
    a = n1 + 1.0
    b = gamma * gamma * (n2 + 1.0)
    omega = np.sqrt(a + b)
    return a, b, omega, np.sqrt(a) / omega, gamma * np.sqrt(n2 + 1.0) / omega


def _finite_amplitudes(inp: ScatterInput, amplitudes) -> list[complex]:
    """The kernel's amplitudes as complex numbers; refuses an overflowed beam."""
    values = [complex(a) for a in amplitudes]
    if not all(map(cmath.isfinite, values)):
        raise ValueError(f"amplitudes of {inp} are not finite: {_OVERFLOW_HINT}")
    return values


def dressed_coefficients(inp: ScatterInput) -> DressedCoefficients:
    """Expansion coefficients of the incoming bare state over dressed states.

    u weights the scattered doublet, v the dark state; u^2 + v^2 = 1.
    """
    _, _, omega, u, v = _dressed(inp.gamma, inp.n1, inp.n2)
    return DressedCoefficients(u=float(u), v=float(v), omega_scaled=float(omega))


def _wavenumber(w2):
    """(w2 >= 0, kb, q) with kb + i q the principal sqrt(w2), array-safe."""
    osc = w2 >= 0.0
    return osc, np.sqrt(np.where(osc, w2, 0.0)), np.sqrt(np.where(osc, 0.0, -w2))


def branch_wavenumbers(inp: ScatterInput) -> tuple[complex, complex]:
    """Interior wavenumbers (k+, k-) of the barrier and well branches.

    (k+-/kappa)^2 = (k/kappa)^2 -+ Omega/g1.  k- is always real positive;
    k+ turns purely imaginary below the barrier (principal square root,
    positive imaginary part).
    """
    _, _, omega, _, _ = _dressed(inp.gamma, inp.n1, inp.n2)
    k2 = inp.k_ratio * inp.k_ratio
    _, kb_plus, q_plus = _wavenumber(k2 - omega)
    _, k_minus, _ = _wavenumber(k2 + omega)
    return complex(kb_plus, q_plus), complex(k_minus)


def _branch_ramp(w2, k: float, length: float):
    """rho, tau for a flat ramp of squared interior wavenumber w2 (array-safe).

    Everything is expressed through w2, so the two signs of the interior
    square root give identical amplitudes by construction.  For w2 < 0 the
    trig functions are rewritten with tanh/sech so arbitrarily large
    opacities kappa*L never overflow; tau underflows smoothly to exact 0.
    """
    w2 = np.asarray(w2, dtype=float)
    osc, kb, q = _wavenumber(w2)

    cos_term = np.where(osc, np.cos(kb * length), 1.0)
    qlen = q * length
    with np.errstate(divide="ignore", invalid="ignore"):
        sinh_ratio = np.where(q > 0.0, np.tanh(qlen) / np.where(q > 0.0, q, 1.0), length)
        # sin(kb L)/kb; the kb -> 0 barrier-top limit is L.  Dividing the
        # directly evaluated sine keeps the phase exact for huge kb*L.
        osc_ratio = np.where(
            kb > 0.0, np.sin(kb * length) / np.where(kb > 0.0, kb, 1.0), length
        )
    sin_ratio = np.where(osc, osc_ratio, sinh_ratio)
    # 2 e^-x / (1 + e^-2x) = sech(x); underflows to exact 0, never overflows.
    damp = np.where(osc, 1.0, 2.0 * np.exp(-qlen) / (1.0 + np.exp(-2.0 * qlen)))

    # Real division first: a complex divided by a real array is promoted to a
    # complex division, which rounds differently from the 0-d path.
    denom = cos_term - 0.5j * ((w2 + k * k) / k) * sin_ratio
    rho = 0.5j * ((w2 - k * k) / k) * sin_ratio / denom
    tau = np.exp(-1j * k * length) * damp / denom
    return rho, tau


def _branch_pair(k, length, omega):
    """(rho+, tau+, rho-, tau-): the ramps of (k/kappa)^2 -+ Omega/g1."""
    k2 = k * k
    return (*_branch_ramp(k2 - omega, k, length), *_branch_ramp(k2 + omega, k, length))


def branch_amplitudes(inp: ScatterInput) -> BranchAmplitudes:
    """Scattering amplitudes of the two dressed branches.

    The barrier branch (+) sees a repulsive ramp, the well branch (-) an
    attractive one of equal magnitude.  Raises ValueError when the beam
    overflows double precision.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        _, _, omega, _, _ = _dressed(inp.gamma, inp.n1, inp.n2)
        amps = _branch_pair(inp.k_ratio, inp.kappa_l, omega)
    return BranchAmplitudes(*_finite_amplitudes(inp, amps))


def _channel_arrays(k: float, length: float, gamma: float, n1, n2):
    """Six channel amplitudes, broadcast over all five inputs."""
    _, _, omega, u, v = _dressed(gamma, n1, n2)
    rho_p, tau_p, rho_m, tau_m = _branch_pair(k, length, omega)

    rho_sum = 0.5 * (rho_p + rho_m)
    tau_sum = 0.5 * (tau_p + tau_m)
    rho_diff = 0.5 * (rho_p - rho_m)
    tau_diff = 0.5 * (tau_p - tau_m)

    r_a = u * u * rho_sum
    # A zero-length cavity is the identity: the other five channels vanish
    # exactly there, but u^2 + v^2 can miss 1 by an ulp.
    t_a = np.where(length == 0.0, 1.0, u * u * tau_sum + v * v)
    r_b1 = u * rho_diff
    t_b1 = u * tau_diff
    r_b2 = u * v * rho_sum
    t_b2 = u * v * (tau_sum - 1.0)
    return r_a, t_a, r_b1, t_b1, r_b2, t_b2


def scatter_channels(inp: ScatterInput) -> ScatterChannels:
    """Exit-channel amplitudes for one scattering event.

    The dark state crosses the cavity freely; its overlap v^2 feeds the
    transmitted |a> channel and -uv the transmitted |b2> channel, which is
    what makes the two-photon emission survive in the ultracold limit.
    Raises ValueError when the beam overflows double precision.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        amps = _channel_arrays(inp.k_ratio, inp.kappa_l, inp.gamma, inp.n1, inp.n2)
    return ScatterChannels(*_finite_amplitudes(inp, amps))


def _abs2(z):
    """|z|^2 with the same bits for a Python complex and a numpy array of any shape.

    Neither abs nor ** 2 gives that: numpy's array abs and Python's differ in
    the last bit, and so do x ** 2 and x * x.
    """
    return z.real * z.real + z.imag * z.imag


def _exit_probability(r, t):
    """|r|^2 + |t|^2: leaving through one exit channel in either direction."""
    return _abs2(r) + _abs2(t)


def channel_gains(ch: ScatterChannels) -> GainProbabilities:
    """Gain probabilities carried by already evaluated exit channels."""
    return GainProbabilities(
        p_one=_exit_probability(ch.r_b1, ch.t_b1),
        p_two=_exit_probability(ch.r_b2, ch.t_b2),
    )


def gain_probabilities(inp: ScatterInput) -> GainProbabilities:
    """Probabilities of leaving one photon (a->b1) or a photon pair (a->b2)."""
    return channel_gains(scatter_channels(inp))


def _gain_arrays(k: float, length: float, gamma: float, n1, n2):
    r_a, t_a, r_b1, t_b1, r_b2, t_b2 = _channel_arrays(k, length, gamma, n1, n2)
    return _exit_probability(r_b1, t_b1), _exit_probability(r_b2, t_b2)


def ultracold_approx(gamma: float, n1: int, n2: int) -> GainProbabilities:
    """Emission probabilities in the limit of vanishing incoming energy.

    Both dressed branches then reflect with unit modulus and opposite-free
    phase, leaving p_one ~ 0 while the dark-state interference keeps
    p_two = 2 gamma^2 (n1+1)(n2+1) / ((n1+1) + gamma^2 (n2+1))^2 finite.
    Raises ValueError when that denominator overflows double precision.
    """
    _require_nonnegative("gamma", gamma)
    _require_count("n1", n1)
    _require_count("n2", n2)
    a, b, *_ = _dressed(gamma, n1, n2)
    if a + b > math.sqrt(sys.float_info.max):  # squared below
        raise ValueError(f"ultracold_approx: gamma = {gamma!r} overflows; lower gamma")
    return GainProbabilities(p_one=0.0, p_two=2.0 * a * b / (a + b) ** 2)
