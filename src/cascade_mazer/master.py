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
stepper applies it as built.  The direct solve pins the vacuum instead of
adding a dense normalization row, orders the grid by nested dissection
(built once per grid shape), assembles the pinned system in that order
straight from the DIA diagonals and factorizes without row swaps, which the
M-matrix structure of the pinned generator makes stable.

scipy.sparse is imported by the solvers on first use, not with the module:
it is most of the package's import time, and only the steady-state solves
need it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .scattering import (
    CavityBeam, _OVERFLOW_HINT, _gain_arrays, _require_count, _require_nonnegative,
    _require_positive,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

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

# States in one leaf block of the direct solve's nested-dissection order.
_DISSECTION_LEAF = 16

# Photon grid and RK4 settings for callers that give none.
_GRID = (128, 128)
_DT = 2e-3
_TOL = 1e-12
_T_MAX = 500.0

# The detailed-balance recursion rescales its running product above this, so
# a step whose up rate and up/down ratio stay below 2**523 cannot overflow.
_RESCALE_ABOVE = 2.0**500


def __getattr__(name: str):
    """master.spla, the module _pinned_solve takes spsolve from, imported on access.

    perfbench's layer tracer wraps master.spla.spsolve.
    """
    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    n1_max: int = _GRID[0]
    n2_max: int = _GRID[1]
    c1_over_c: float = 1.0
    c2_over_c: float = 1.0

    def __post_init__(self):
        for name in ("nb1", "nb2"):
            _require_nonnegative(name, getattr(self, name))
        for name in ("r_over_c", "c1_over_c", "c2_over_c"):
            _require_positive(name, getattr(self, name))
        for name in ("n1_max", "n2_max"):
            _require_count(name, getattr(self, name), minimum=2)


@dataclass
class GainTable:
    """Per-(n1, n2) pump rates in units of C: g_b* = (r/C) P(a -> b*)."""

    g_b1: np.ndarray
    g_b2: np.ndarray

    def __post_init__(self):
        if self.g_b1.shape != self.g_b2.shape or self.g_b1.ndim != 2:
            raise ValueError("gain tables must be two matching 2-d arrays")
        for name in ("g_b1", "g_b2"):
            gain = getattr(self, name)
            if not np.all(np.isfinite(gain)):
                n1, n2 = np.argwhere(~np.isfinite(gain))[0]
                raise ValueError(
                    f"{name} is not finite at (n1, n2) = ({n1}, {n2}): {_OVERFLOW_HINT}"
                )
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
    An overflowing beam raises ValueError, without numpy warnings.
    """
    n1 = np.arange(cfg.n1_max)[:, None]
    n2 = np.arange(cfg.n2_max)[None, :]
    with np.errstate(invalid="ignore", over="ignore"):
        p_one, p_two = _gain_arrays(
            cfg.beam.k_ratio, cfg.beam.kappa_l, cfg.beam.gamma, n1, n2
        )
    try:
        return GainTable(g_b1=cfg.r_over_c * p_one, g_b2=cfg.r_over_c * p_two)
    except ValueError as err:
        raise ValueError(f"gain table of {cfg.beam}: {err}") from None


class _RateGenerator:
    """The rate equation as one DIA matrix acting on p.ravel().

    matrix holds every in-grid flow, one diagonal per flow that is on, and is
    shared: do not modify it.  The gain flows that leave the top of the grid
    have no row to land in and are returned as the leak rate, a dot product
    of their rates with the edge entries of p.
    """

    def __init__(self, cfg: MazerConfig, gains: GainTable):
        import scipy.sparse as sp

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
        self.matrix = sp.dia_matrix(
            (np.stack([np.broadcast_to(rate, self.shape).ravel() for rate in rates]), offsets),
            shape=(n1_max * n2_max,) * 2,
        )

        # Gain flows with no in-grid destination: last row (both gains) and
        # last column below it (pair gain only).
        self._edge_top = gains.g_b1[-1, :] + gains.g_b2[-1, :]
        self._edge_right = gains.g_b2[:-1, -1]

    def max_outflow(self) -> float:
        return float(-self.matrix.diagonal().min())

    def leak(self, p: np.ndarray) -> float:
        """Rate at which gain flows carry p out of the grid."""
        # Two dots over the 2N-1 edge entries: a dot over all of p would wake
        # the BLAS threads, and one dot over the gathered edge sums in another
        # order, which moves the last bit of the tabulated tail_leak.
        return float(self._edge_top @ p[-1, :] + self._edge_right @ p[:-1, -1])


def apply_generator(
    cfg: MazerConfig, gains: GainTable, p: np.ndarray
) -> tuple[np.ndarray, float]:
    """One evaluation of dP/dt (units of C) and the boundary leak rate."""
    p = np.asarray(p, dtype=float)
    gen = _RateGenerator(cfg, gains)
    if p.shape != gen.shape:
        raise ValueError(f"p shape {p.shape} does not match grid {gen.shape}")
    return (gen.matrix @ p.ravel()).reshape(gen.shape), gen.leak(p)


def _require_small_leak(tail_leak: float) -> None:
    if tail_leak > TAIL_TOLERANCE:
        raise TruncationError(
            f"tail leak {tail_leak:.3e} exceeds {TAIL_TOLERANCE:.0e}; "
            "enlarge the photon grid"
        )


def _clamp_roundoff(p: np.ndarray) -> np.ndarray:
    """p with its roundoff negatives set to zero; larger negatives raise."""
    if p.min() < -1e-9:
        raise SolverError(
            f"distribution went negative beyond roundoff (min {p.min():.3e})"
        )
    return np.maximum(p, 0.0)


def _finalize(p: np.ndarray, tail_leak: float) -> JointDistribution:
    """The clamped p as a distribution, once its outermost shells are empty enough."""
    dist = JointDistribution(p=p, tail_leak=tail_leak)
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
    dt: float = _DT,
    t_max: float = _T_MAX,
    tol: float = _TOL,
    gains: GainTable | None = None,
) -> SteadyStateResult:
    """Integrate the rate equation to its steady state with fixed-step RK4.

    Starts from the vacuum unless p0 is given (a distribution with a finite,
    nonnegative tail_leak) and stops once the 1-norm of dP/dt falls below
    tol.  The step is rejected up front if dt times the fastest total
    outflow rate exceeds 2.5.

    On p' = Ap the classic step is p + hA(p + h/2 A(p + h/3 A(p + h/4 Ap))),
    and its 1-2-2-1 leak quadrature is h times the leak of the last stage.
    """
    for name, value in (("dt", dt), ("t_max", t_max), ("tol", tol)):
        _require_positive(name, value)
    if gains is None:
        gains = build_gain_table(cfg)
    gen = _RateGenerator(cfg, gains)
    if p0 is None:
        p0 = JointDistribution.vacuum(cfg.n1_max, cfg.n2_max)
    if p0.p.shape != gen.shape:
        raise ValueError(f"p0 shape {p0.p.shape} does not match grid {gen.shape}")
    if p0.p.min() < 0 or abs(p0.mass() - 1.0) > TAIL_TOLERANCE:
        raise ValueError(f"p0 is not a distribution: min {p0.p.min():.3e}, mass {p0.mass():.9f}")
    _require_nonnegative("p0.tail_leak", p0.tail_leak)

    rate_scale = gen.max_outflow()
    if dt * rate_scale > 2.5:
        raise StabilityError(
            f"dt * max outflow = {dt * rate_scale:.3g} > 2.5; "
            f"use dt <= {2.5 / rate_scale:.3e}"
        )

    mat = gen.matrix
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
            p = _clamp_roundoff(p.reshape(gen.shape))
            _require_small_leak(leak)
            return SteadyStateResult(
                dist=_finalize(p, leak),
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


def _dissect(block: np.ndarray, parts: list[np.ndarray]) -> None:
    """Append the nested-dissection order of block's states to parts, part by part.

    A module-level function, not a closure: a closure that calls itself holds
    a reference cycle, which keeps every block alive until the cyclic collector runs.
    """
    if block.size <= _DISSECTION_LEAF:
        parts.append(block.ravel())
        return
    if block.shape[0] < block.shape[1]:
        block = block.T
    mid = block.shape[0] // 2
    _dissect(block[:mid], parts)
    _dissect(block[mid + 1:], parts)
    parts.append(block[mid])


@functools.lru_cache(maxsize=8)
def _dissection(n1_max: int, n2_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Nested-dissection order of the flattened grid, and each state's position in it.

    Every flow moves at most one step along each axis, so one grid line
    splits a block into two halves with no flow between them.  Each block is
    cut across its longer side; both halves come first, the separating line
    last, and a block of at most _DISSECTION_LEAF states is one leaf.
    Fill-in from eliminating a half then stays inside that half and its
    separator (A. George, SIAM J. Numer. Anal. 10, 345 (1973)).  Built once
    per grid shape; both cached arrays are read-only.
    """
    parts = []
    _dissect(np.arange(n1_max * n2_max).reshape(n1_max, n2_max), parts)
    order = np.concatenate(parts)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    order.flags.writeable = False
    position.flags.writeable = False
    return order, position


def _pinned_system(gen: _RateGenerator) -> tuple[sp.csc_matrix, np.ndarray]:
    """The generator with p[0, 0] = 1 pinned, in dissection order: (CSC, rhs).

    Column j of the generator holds the flows out of state j: -outflow on
    the diagonal and the in-grid rates, >= 0 and summing to at most the
    outflow, off it.  Row 0 becomes s e0 with right-hand side s, where s is
    the vacuum's outflow rate (1 when that is subnormal, since the
    reciprocal of such a pivot overflows), so the pivot is also the largest
    entry of column 0.  Row 0 then holds its pivot alone and eliminating it updates
    nothing, and the rest is minus a column-diagonally-dominant M-matrix,
    whose Schur complements stay so: the diagonal pivots need no row
    swaps (W. J. Stewart, Introduction to the Numerical Solution of Markov
    Chains, 1994, ch. 2).  As measured, entries of p above 1e-3 are stable
    to 4e-15, but small entries near an improbable vacuum lose relative
    accuracy: fig4b at 128x128 has p[0, 0] = 8.0e-16, which moved by 1.3e-2
    between two dissection orders.

    Row r holds the flows into state order[r], read straight from the
    generator's diagonals, each column mapped to its source state's position.
    """
    import scipy.sparse as sp

    mat = gen.matrix
    n_states = mat.shape[0]
    order, position = _dissection(*gen.shape)
    # Entry k of row r is the flow from state order[r] + offsets[k].
    source = order[:, None] + mat.offsets
    inside = (source >= 0) & (source < n_states)
    source[~inside] = 0
    rates = mat.data[np.arange(mat.offsets.size), source]
    kept = inside & (rates != 0)
    # The vacuum's row becomes the pin alone.  Its outflow is the pivot unless
    # that is subnormal (or zero), whose reciprocal would overflow: then 1.
    outflow = -mat.diagonal()[0]
    scale = outflow if outflow >= np.finfo(float).tiny else 1.0
    pin = position[0]
    kept[pin] = mat.offsets == 0
    rates[pin, mat.offsets == 0] = scale
    # The rows come in order, so tocsc leaves each column's rows sorted.
    indptr = np.zeros(n_states + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(kept, axis=1), out=indptr[1:])
    pinned = sp.csr_matrix(
        (rates[kept], position[source[kept]], indptr), shape=mat.shape
    ).tocsc()
    rhs = np.zeros(n_states)
    rhs[pin] = scale
    return pinned, rhs


def _pinned_solve(gen: _RateGenerator) -> np.ndarray:
    """Normalized p from _pinned_system, factorized in its order with diagonal pivots."""
    import scipy.sparse.linalg as spla  # spla.spsolve is looked up per call

    pinned, rhs = _pinned_system(gen)
    _, position = _dissection(*gen.shape)
    solution = spla.spsolve(pinned, rhs, permc_spec="NATURAL")[position]
    if not np.all(np.isfinite(solution)):
        raise SolverError(
            "direct solve produced non-finite entries: the generator looks "
            "singular, or the vacuum is too improbable to pin; use method='rk4'"
        )
    return solution.reshape(gen.shape) / solution.sum()


def direct_steady_state(
    cfg: MazerConfig, *, gains: GainTable | None = None
) -> SteadyStateResult:
    """Stationary distribution from a sparse linear solve.

    Pins p[0, 0] = 1 in place of the redundant vacuum row of the rate
    matrix, factorizes once in nested-dissection order with the diagonal
    pivots, which the pinned M-matrix makes stable (see _pinned_system), and
    normalizes; deterministic, and entirely independent of the time stepper.
    tail_leak is the stationary outflow of the clamped p.
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
    p = _clamp_roundoff(_pinned_solve(gen))
    # Rows 1.. of A p vanish and A p sums to -leak(p): the residual is the
    # leak, so only a residual above a small leak means ill-conditioning.
    leak = gen.leak(p)
    _require_small_leak(leak)
    residual = float(np.abs(gen.matrix @ p.ravel()).sum())
    if residual > 1e-6:
        raise SolverError(
            f"stationary residual |A p| = {residual:.3e}; the generator looks "
            "degenerate or ill-conditioned"
        )
    return SteadyStateResult(
        dist=_finalize(p, leak),
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
    An overflowing beam raises ValueError, without numpy warnings.
    """
    if cfg.beam.gamma != 0:
        raise ValueError("detailed-balance oracle requires gamma = 0")
    # Mode 1 moves alone at gamma = 0: its gain on the n1 axis suffices.
    with np.errstate(invalid="ignore", over="ignore"):
        p_one, _ = _gain_arrays(
            cfg.beam.k_ratio, cfg.beam.kappa_l, 0.0, np.arange(cfg.n1_max), 0
        )
    g_b1 = cfg.r_over_c * p_one
    if not np.all(np.isfinite(g_b1)):
        n1 = int(np.argmin(np.isfinite(g_b1)))
        raise ValueError(
            f"detailed-balance gains of {cfg.beam}: g_b1 is not finite at "
            f"n1 = {n1}: {_OVERFLOW_HINT}"
        )

    p1 = np.empty(cfg.n1_max)
    p1[0] = 1.0
    c1 = cfg.c1_over_c
    for n in range(1, cfg.n1_max):
        up = c1 * cfg.nb1 * n + g_b1[n - 1]
        down = c1 * (cfg.nb1 + 1.0) * n
        p1[n] = p1[n - 1] * up / down
        if p1[n] > _RESCALE_ABOVE:
            # Scale by an exact power of two, so the normalized result keeps
            # its bits; entries far below the peak may underflow to zero.
            p1[: n + 1] = np.ldexp(p1[: n + 1], -math.frexp(p1[n])[1])
    if not np.isfinite(p1.sum()):
        raise ValueError(
            "the detailed-balance ratio P(n)/P(n-1) overflows double "
            "precision; raise c1_over_c or lower r_over_c"
        )
    p1 /= p1.sum()

    ratio = cfg.nb2 / (cfg.nb2 + 1.0)
    p2 = ratio ** np.arange(cfg.n2_max)
    p2 /= p2.sum()
    return p1, p2
