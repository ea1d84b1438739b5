"""Photon rate equation for a cavity pumped by a dilute beam of cascade atoms.

Atoms arrive at rate r, each applying the one- and two-photon gains from
the scattering problem to the joint photon distribution P(n1, n2); between
arrivals both modes relax to thermal baths.  Only the diagonal of the field
density matrix is tracked, which closes because every gain event moves
population strictly up the photon ladder.  Time and all rates are measured
in units of the reference damping constant C.

Truncation policy: gain flows leaving the top of the grid are integrated
into a tail_leak diagnostic instead of being dropped silently, while the
thermal up-flow out of the last row/column is suppressed so that a purely
thermal cavity keeps its exact truncated geometric steady state.

Each flow moves probability by a fixed offset in the flattened grid, so the
generator is one DIA matrix built from the per-flow rate arrays; the time
stepper applies it as built, the direct solve factorizes its CSR form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .scattering import (
    CavityBeam, _gain_arrays, _require_finite, _require_nonnegative, _require_positive
)

__all__ = [
    "MazerConfig",
    "GainTable",
    "JointDistribution",
    "SteadyStateResult",
    "SolverError",
    "StabilityError",
    "ConvergenceError",
    "TruncationError",
    "build_gain_table",
    "apply_generator",
    "rk4_steady_state",
    "direct_steady_state",
    "twolevel_detailed_balance",
]

# Truncation diagnostics: accumulated boundary loss and mass in the two
# outermost shells must stay below this or the run is rejected.
TAIL_TOLERANCE = 1e-6

# Largest grid the sparse direct solver accepts.
MAX_DIRECT_STATES = 2**16


class SolverError(RuntimeError):
    """Base class for steady-state solver failures."""


class StabilityError(SolverError):
    """Time step too large for the fastest rate on the grid."""


class ConvergenceError(SolverError):
    """Residual still above tolerance at t_max."""


class TruncationError(SolverError):
    """Photon grid too small for the distribution it is asked to hold."""


@dataclass(frozen=True)
class MazerConfig:
    """Pump, damping and grid parameters of one maser run.

    All rates are ratios against the reference damping constant C.  beam
    fixes the atomic momentum, cavity length and coupling ratio used to
    evaluate the gain at every photon-number pair.
    """

    r_over_c: float
    nb1: float
    nb2: float
    beam: CavityBeam
    n1_max: int = 128
    n2_max: int = 128
    c1_over_c: float = 1.0
    c2_over_c: float = 1.0

    def __post_init__(self):
        for name in ("nb1", "nb2"):
            _require_nonnegative(name, getattr(self, name))
        for name in ("r_over_c", "c1_over_c", "c2_over_c"):
            _require_positive(name, getattr(self, name))
        for name in ("n1_max", "n2_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 2:
                raise ValueError(f"{name} must be >= 2, got {value!r}")


@dataclass
class GainTable:
    """Per-(n1, n2) pump rates in units of C: g_b* = (r/C) P(a -> b*)."""

    g_b1: np.ndarray
    g_b2: np.ndarray

    def __post_init__(self):
        if self.g_b1.shape != self.g_b2.shape or self.g_b1.ndim != 2:
            raise ValueError("gain tables must be two matching 2-d arrays")
        if np.any(self.g_b1 < 0) or np.any(self.g_b2 < 0):
            raise ValueError("gain rates must be nonnegative")


@dataclass
class JointDistribution:
    """Joint photon distribution on the truncated grid plus leak diagnostic.

    tail_leak is the probability lost through the gain flows at the top of
    the grid: accumulated over the integration for the time-stepping solver,
    the stationary outflow rate for the direct solver.
    """

    p: np.ndarray
    tail_leak: float = 0.0

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        if self.p.ndim != 2:
            raise ValueError("p must be a 2-d array indexed by (n1, n2)")
        if not np.all(np.isfinite(self.p)):
            raise ValueError("p contains non-finite entries")

    @classmethod
    def vacuum(cls, n1_max: int, n2_max: int) -> "JointDistribution":
        p = np.zeros((n1_max, n2_max))
        p[0, 0] = 1.0
        return cls(p=p)

    def mass(self) -> float:
        return float(self.p.sum())

    def tail_mass(self, shells: int = 2) -> float:
        """Probability sitting in the outermost `shells` rows and columns."""
        s = shells
        return float(
            self.p[-s:, :].sum() + self.p[:, -s:].sum() - self.p[-s:, -s:].sum()
        )


@dataclass
class SteadyStateResult:
    """Converged distribution with solver metadata."""

    dist: JointDistribution
    method: str
    iterations: int
    model_time: float
    residual: float


def build_gain_table(cfg: MazerConfig) -> GainTable:
    """Evaluate the scattering gains on the full photon grid.

    Rates already include the pump: g_b1 = (r/C) P(a -> b1) etc.  Entries in
    the last row/column only ever flow out of the grid and feed tail_leak.
    """
    n1 = np.arange(cfg.n1_max)[:, None]
    n2 = np.arange(cfg.n2_max)[None, :]
    p_one, p_two = _gain_arrays(
        cfg.beam.k_ratio, cfg.beam.kappa_l, cfg.beam.gamma, n1, n2
    )
    return GainTable(g_b1=cfg.r_over_c * p_one, g_b2=cfg.r_over_c * p_two)


class _RateGenerator:
    """The rate equation as one DIA matrix acting on p.ravel().

    matrix() holds every in-grid flow, one diagonal per flow that is on; the
    gain flows that leave the top of the grid have no row to land in and are
    returned as the leak rate, a dot product of their rates with the edge
    entries of p.
    """

    def __init__(self, cfg: MazerConfig, gains: GainTable):
        n1_max, n2_max = cfg.n1_max, cfg.n2_max
        if gains.g_b1.shape != (n1_max, n2_max):
            raise ValueError(
                f"gain table shape {gains.g_b1.shape} does not match grid "
                f"({n1_max}, {n2_max})"
            )
        self.shape = (n1_max, n2_max)
        n1 = np.arange(n1_max, dtype=float)[:, None]
        n2 = np.arange(n2_max, dtype=float)[None, :]
        c1, c2 = cfg.c1_over_c, cfg.c2_over_c

        # Thermal up-flow out of the last row/column is suppressed so the
        # truncated thermal chain keeps detailed balance exactly.
        up1_w = cfg.nb1 * c1 * (n1 + 1.0)
        up1_w[-1, :] = 0.0
        up2_w = cfg.nb2 * c2 * (n2 + 1.0)
        up2_w[:, -1] = 0.0
        outflow = (
            gains.g_b1 + gains.g_b2
            + c1 * (cfg.nb1 + 1.0) * n1 + c2 * (cfg.nb2 + 1.0) * n2
            + up1_w + up2_w
        )

        # One diagonal per flow: (offset = source - destination, rate at each
        # source), offsets ascending.  Flows out of the top row fall off the
        # matrix; rates that would wrap across a row are zero.
        pair = gains.g_b2.copy()
        pair[:, -1] = 0.0
        flows = (
            (-(n2_max + 1), pair),
            (-n2_max, gains.g_b1 + up1_w),
            (-1, up2_w),
            (0, -outflow),
            (1, c2 * (cfg.nb2 + 1.0) * n2),
            (n2_max, c1 * (cfg.nb1 + 1.0) * n1),
        )
        offsets, rates = zip(*[(offset, rate) for offset, rate in flows if rate.any()])
        self._matrix = sp.dia_matrix(
            (np.stack([np.broadcast_to(rate, self.shape).ravel() for rate in rates]), offsets),
            shape=(n1_max * n2_max,) * 2,
        )

        # Gain flows with no in-grid destination: last row (both gains) and
        # last column below it (pair gain only).
        self._edge_top = gains.g_b1[-1, :] + gains.g_b2[-1, :]
        self._edge_right = gains.g_b2[:-1, -1]

    def max_outflow(self) -> float:
        return float(-self._matrix.diagonal().min())

    def matrix(self) -> sp.dia_matrix:
        """The flows as a DIA matrix on p.ravel(); shared, do not modify."""
        return self._matrix

    def leak(self, p: np.ndarray) -> float:
        """Rate at which gain flows carry p out of the grid."""
        # Two dots over the 2N-1 edge entries: a dot over all of p would wake
        # the BLAS threads, and one dot over the gathered edge sums in another
        # order, which moves the last bit of the tabulated tail_leak.
        return float(self._edge_top @ p[-1, :] + self._edge_right @ p[:-1, -1])

    def apply(self, p: np.ndarray) -> tuple[np.ndarray, float]:
        return (self._matrix @ p.ravel()).reshape(self.shape), self.leak(p)


def apply_generator(
    cfg: MazerConfig, gains: GainTable, p: np.ndarray
) -> tuple[np.ndarray, float]:
    """One evaluation of dP/dt (units of C) and the boundary leak rate."""
    p = np.asarray(p, dtype=float)
    gen = _RateGenerator(cfg, gains)
    if p.shape != gen.shape:
        raise ValueError(f"p shape {p.shape} does not match grid {gen.shape}")
    return gen.apply(p)


def _require_small_leak(tail_leak: float) -> None:
    if tail_leak > TAIL_TOLERANCE:
        raise TruncationError(
            f"tail leak {tail_leak:.3e} exceeds {TAIL_TOLERANCE:.0e}; "
            "enlarge the photon grid"
        )


def _finalize(p: np.ndarray, tail_leak: float) -> JointDistribution:
    """Clamp roundoff negatives and enforce the truncation diagnostics."""
    if p.min() < -1e-9:
        raise SolverError(
            f"distribution went negative beyond roundoff (min {p.min():.3e})"
        )
    dist = JointDistribution(p=np.maximum(p, 0.0), tail_leak=tail_leak)
    _require_small_leak(tail_leak)
    tail = dist.tail_mass()
    if tail > TAIL_TOLERANCE:
        raise TruncationError(
            f"probability {tail:.3e} in the outermost shells exceeds "
            f"{TAIL_TOLERANCE:.0e}; enlarge the photon grid"
        )
    return dist


def rk4_steady_state(
    cfg: MazerConfig,
    p0: JointDistribution | None = None,
    *,
    dt: float = 2e-3,
    t_max: float = 500.0,
    tol: float = 1e-12,
    gains: GainTable | None = None,
) -> SteadyStateResult:
    """Integrate the rate equation to its steady state with fixed-step RK4.

    Starts from the vacuum unless p0 is given and stops once the 1-norm of
    dP/dt falls below tol.  The step is rejected up front if dt times the
    fastest total outflow rate exceeds 2.5.

    On p' = Ap the classic step is p + hA(p + h/2 A(p + h/3 A(p + h/4 Ap))),
    and its 1-2-2-1 leak quadrature is h times the leak of the last stage.
    """
    for name, value in (("dt", dt), ("t_max", t_max), ("tol", tol)):
        _require_finite(name, value)
    if dt <= 0 or t_max <= 0 or tol <= 0:
        raise ValueError("dt, t_max and tol must all be > 0")
    if gains is None:
        gains = build_gain_table(cfg)
    gen = _RateGenerator(cfg, gains)
    if p0 is None:
        p0 = JointDistribution.vacuum(cfg.n1_max, cfg.n2_max)
    if p0.p.shape != gen.shape:
        raise ValueError(f"p0 shape {p0.p.shape} does not match grid {gen.shape}")

    rate_scale = gen.max_outflow()
    if dt * rate_scale > 2.5:
        raise StabilityError(
            f"dt * max outflow = {dt * rate_scale:.3g} > 2.5; "
            f"use dt <= {2.5 / rate_scale:.3e}"
        )

    mat = gen.matrix()
    p = p0.p.ravel().copy()
    stage = np.empty_like(p)
    stage_grid = stage.reshape(gen.shape)  # a view, for the leak
    leak = p0.tail_leak
    steps = int(math.ceil(t_max / dt))
    residual = math.inf
    for step in range(steps):
        k = mat @ p
        residual = float(np.abs(k, out=stage).sum())
        if residual < tol:
            return SteadyStateResult(
                dist=_finalize(p.reshape(gen.shape), leak),
                method="rk4",
                iterations=step,
                model_time=step * dt,
                residual=residual,
            )
        for divisor in (4.0, 3.0, 2.0):
            np.multiply(k, dt / divisor, out=stage)
            stage += p
            k = mat @ stage
        leak += dt * gen.leak(stage_grid)
        k *= dt
        p += k
        if p.min() < -1e-9:
            raise SolverError(
                f"distribution went negative (min {p.min():.3e}) at "
                f"t = {(step + 1) * dt:.3f}; reduce dt or enlarge the grid"
            )
        mass = p.sum()
        if not 1.0 - TAIL_TOLERANCE <= mass <= 1.0 + TAIL_TOLERANCE:
            raise TruncationError(
                f"probability mass drifted to {mass:.9f} at t = "
                f"{(step + 1) * dt:.3f}; the grid is leaking"
            )
    raise ConvergenceError(
        f"|dP/dt| = {residual:.3e} after t_max = {t_max} (tol {tol:.0e}); "
        "raise t_max or loosen tol"
    )


def direct_steady_state(
    cfg: MazerConfig, *, gains: GainTable | None = None
) -> SteadyStateResult:
    """Stationary distribution from a sparse linear solve.

    Replaces the redundant vacuum row of the rate matrix with the
    normalization constraint and solves once; deterministic, and entirely
    independent of the time stepper.
    """
    n_states = cfg.n1_max * cfg.n2_max
    if n_states > MAX_DIRECT_STATES:
        raise ValueError(
            f"grid has {n_states} states; the direct solver accepts at most "
            f"{MAX_DIRECT_STATES}; use method='rk4' (--method rk4) for larger grids"
        )
    if gains is None:
        gains = build_gain_table(cfg)
    gen = _RateGenerator(cfg, gains)
    mat = gen.matrix().tocsr()
    # Row 0 becomes the normalization sum(p) = 1.
    normalized = sp.vstack(
        [sp.csr_matrix(np.ones((1, n_states))), mat[1:]], format="csr"
    )
    rhs = np.zeros(n_states)
    rhs[0] = 1.0
    solution = spla.spsolve(normalized, rhs)

    if not np.all(np.isfinite(solution)):
        raise SolverError(
            "direct solve produced non-finite entries; the generator looks "
            "singular beyond the unique-steady-state case"
        )
    # Rows 1.. of A p vanish and A p sums to -leak(p): the residual is the
    # leak, so only a residual above a small leak means ill-conditioning.
    _require_small_leak(gen.leak(solution.reshape(gen.shape)))
    residual = float(np.abs(mat @ solution).sum())
    if residual > 1e-6:
        raise SolverError(
            f"stationary residual |A p| = {residual:.3e}; the generator looks "
            "degenerate or ill-conditioned"
        )
    p = solution.reshape(cfg.n1_max, cfg.n2_max)
    total = p.sum()
    if not 1.0 - 1e-6 <= total <= 1.0 + 1e-6:
        raise SolverError(f"stationary solution has mass {total:.9f}")
    p = p / total
    return SteadyStateResult(
        dist=_finalize(p, gen.leak(p)),
        method="direct",
        iterations=0,
        model_time=0.0,
        residual=residual,
    )


def twolevel_detailed_balance(cfg: MazerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form steady marginals when mode 2 is decoupled (gamma = 0).

    Mode 1 follows the one-step detailed-balance recursion
    P(n)/P(n-1) = [C1 nb1 n + g_b1(n-1)] / [C1 (nb1+1) n], mode 2 is exactly
    thermal.  Serves as an independent oracle for the numerical solvers.
    """
    if cfg.beam.gamma != 0:
        raise ValueError("detailed-balance oracle requires gamma = 0")
    if cfg.c1_over_c <= 0 or cfg.c2_over_c <= 0:
        raise ValueError("detailed balance needs strictly positive damping")
    # Mode 1 moves alone at gamma = 0: its gain on the n1 axis suffices.
    p_one, _ = _gain_arrays(
        cfg.beam.k_ratio, cfg.beam.kappa_l, 0.0, np.arange(cfg.n1_max), 0
    )
    g_b1 = cfg.r_over_c * p_one

    p1 = np.empty(cfg.n1_max)
    p1[0] = 1.0
    c1 = cfg.c1_over_c
    for n in range(1, cfg.n1_max):
        up = c1 * cfg.nb1 * n + g_b1[n - 1]
        down = c1 * (cfg.nb1 + 1.0) * n
        p1[n] = p1[n - 1] * up / down
    p1 /= p1.sum()

    ratio = cfg.nb2 / (cfg.nb2 + 1.0)
    p2 = ratio ** np.arange(cfg.n2_max)
    p2 /= p2.sum()
    return p1, p2
