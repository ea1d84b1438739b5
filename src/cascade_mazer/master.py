"""Photon rate equation for a cavity pumped by a dilute beam of cascade atoms.

Atoms arrive at rate r, each applying the one- and two-photon gains from
the scattering problem to the joint photon distribution P(n1, n2); between
arrivals both modes relax to thermal baths.  Only the diagonal of the field
density matrix is tracked, which closes because every gain event moves
population strictly up the photon ladder.  Time and all rates are measured
in units of the reference damping constant C.

Truncation policy: gain flows leaving the top of the grid are not dropped
silently: both solvers report their stationary rate out of the returned
distribution as tail_leak.  The thermal up-flow out of the last row/column
is suppressed so that a purely thermal cavity keeps its exact truncated
geometric steady state.

Each flow moves probability by a fixed offset in the flattened grid, so the
generator is one DIA matrix, each flow's rates written straight into its own
row of the DIA data; the time stepper scales the data of its own generator by
the step once and adds each stage onto zeros or a copy of p with scipy's DIA
kernel, and checks its stop test and guards once per block of steps, stepping
again through the block where one fires.  The gain table is filled block by
block, so neither costs much more memory than it keeps.  The direct solve pins
the vacuum instead of adding a dense normalization row, orders the grid by
nested dissection (built once per grid shape), writes the pinned system
column by column from the DIA data in that order, lets the generator go
and factorizes without row swaps, which the M-matrix structure of the pinned
generator makes stable; only the system and the gain table are live while
SuperLU factors, and the checks run on a generator rebuilt from the table.
Leak and residual verdicts are read in units of the slower mode's damping
rate, so scaling every rate moves none of them.

scipy.sparse is imported by the solvers on first use, not with the module:
it is most of the package's import time, and only the steady-state solves
need it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import _numpy as np
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
    "ConvergenceError",
    "TruncationError",
    "build_gain_table",
    "apply_generator",
    "rk4_steady_state",
    "direct_steady_state",
    "twolevel_detailed_balance",
]

# Truncation diagnostics: the stationary leak rate, in units of the slower
# mode's damping rate, and the mass in the _TAIL_SHELLS outermost shells must
# stay below this or the run is rejected.
TAIL_TOLERANCE = 1e-6
_TAIL_SHELLS = 2

# Largest grid the sparse direct solver accepts.
MAX_DIRECT_STATES = 2**16

# States in one leaf block of the direct solve's nested-dissection order.
_DISSECTION_LEAF = 16

# States in one block of whole grid rows of the gain table.  One scattering
# call over the whole grid peaks at about 250 bytes per state in temporaries
# (67 MB at 512^2, for 4 MB of tables); blocks of 4096 states keep that near
# 1 MB and are no slower.
_GAIN_BLOCK = 4096

# Columns in one SuperLU panel.  Its work arrays grow with panel width times
# states: at fig4a a panel of 1 in place of the default 20 cut how far one
# solve raises a fresh process's peak RSS from 16 to 12 MB at 128^2, 72 to
# 51 MB at 256^2 and 175 to 126 MB at 384^2 (tools/solver_memory.py), with
# the same fill and no longer solve times.
_SUPERLU_PANEL = 1

# Photon grid and RK4 settings for callers that give none; RK4's step is
# derived from the grid's rates (see rk4_steady_state).
_GRID = (128, 128)
_TOL = 1e-12
_T_MAX = 500.0

# Negative entries of p down to -_NEGATIVE_ROUNDOFF are round-off: _finalize
# sets them to zero.  One further below is a fault, refused by _finalize and
# by RK4's guard.
_NEGATIVE_ROUNDOFF = 1e-9

# RK4 steps between two evaluations of the stop test and the guards, which
# cost about a tenth of a step each time (see rk4_steady_state).
_RK4_BLOCK = 32

# The detailed-balance recursion rescales its running product above this, so
# a step whose up rate and up/down ratio stay below 2**523 cannot overflow.
_RESCALE_ABOVE = 2.0**500


def __getattr__(name: str):
    """master.spla, the module _pinned_solve takes splu from, imported on access.

    A tracer can wrap master.spla.splu there and see every factorisation.
    """
    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolverError(RuntimeError):
    """Base class for steady-state solver failures."""


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

    tail_leak is the rate at which the gain flows at the top of the grid
    carry p out of it, in units of C.
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

    def tail_mass(self) -> float:
        """Probability sitting in the _TAIL_SHELLS outermost rows and columns."""
        s = _TAIL_SHELLS
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

    The kernel runs over blocks of whole rows of about _GAIN_BLOCK states and
    writes into the two tables; every entry has the bits of one call over the
    whole grid, since the kernel works entry by entry.
    """
    n2 = np.arange(cfg.n2_max)[None, :]
    rows = max(1, _GAIN_BLOCK // cfg.n2_max)
    g_b1 = np.empty((cfg.n1_max, cfg.n2_max))
    g_b2 = np.empty_like(g_b1)
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, cfg.n1_max, rows):
            n1 = np.arange(start, min(start + rows, cfg.n1_max))[:, None]
            p_one, p_two = _gain_arrays(
                cfg.beam.k_ratio, cfg.beam.kappa_l, cfg.beam.gamma, n1, n2
            )
            np.multiply(cfg.r_over_c, p_one, out=g_b1[start:start + rows])
            np.multiply(cfg.r_over_c, p_two, out=g_b2[start:start + rows])
    try:
        return GainTable(g_b1=g_b1, g_b2=g_b2)
    except ValueError as err:
        raise ValueError(f"gain table of {cfg.beam}: {err}") from None


class _RateGenerator:
    """The rate equation as one DIA matrix acting on p.ravel().

    matrix holds every in-grid flow, one diagonal per flow that is on.  Only
    the solver that built the generator may modify it: rk4_steady_state
    scales its data by the step h in place once it has read max_outflow.
    The gain flows that leave the top of the grid have no row to land in and
    are returned as the leak rate, a dot product of their rates with the
    edge entries of p, kept apart from matrix so that scaling it leaves the
    leak as it is.  Rates that overflow double
    precision are refused: every rate is part of some state's outflow.
    unit is u = min(c1_over_c, c2_over_c), the damping rate of the slower
    mode, in which the leak and residual verdicts are read: the steady state
    does not depend on the scale of the rates, so neither may they.
    """

    def __init__(self, cfg: MazerConfig, gains: GainTable):
        import scipy.sparse as sp

        # an overflowing rate is refused below, by name, in place of numpy's warning
        with np.errstate(over="ignore", invalid="ignore"):
            n1_max, n2_max = cfg.n1_max, cfg.n2_max
            if gains.g_b1.shape != (n1_max, n2_max):
                raise ValueError(
                    f"gain table shape {gains.g_b1.shape} does not match grid "
                    f"({n1_max}, {n2_max})"
                )
            self.shape = (n1_max, n2_max)
            self.unit = min(cfg.c1_over_c, cfg.c2_over_c)
            n1 = np.arange(n1_max, dtype=float)[:, None]
            n2 = np.arange(n2_max, dtype=float)[None, :]
            c1, c2 = cfg.c1_over_c, cfg.c2_over_c
            g_b1, g_b2 = gains.g_b1, gains.g_b2

            down1 = c1 * (cfg.nb1 + 1.0) * n1
            down2 = c2 * (cfg.nb2 + 1.0) * n2
            # Thermal up-flow out of the last row/column is suppressed so the
            # truncated thermal chain keeps detailed balance exactly.
            up1_w = cfg.nb1 * c1 * (n1 + 1.0)
            up1_w[-1, :] = 0.0
            up2_w = cfg.nb2 * c2 * (n2 + 1.0)
            up2_w[:, -1] = 0.0

            # One diagonal per flow that is on: offset = source - destination,
            # ascending, holding the rate at each source.  Flows out of the top
            # row fall off the matrix; rates that would wrap across a row are
            # zero, so the pair gain is on only if it is left of the last column.
            # The outflow and both down-flows are always on: c1, c2 > 0.
            pair_on = bool(g_b2[:, :-1].any())
            up1_on = bool(g_b1.any() or up1_w.any())
            up2_on = bool(up2_w.any())
            offsets = [offset for offset, on in (
                (-(n2_max + 1), pair_on), (-n2_max, up1_on), (-1, up2_on),
                (0, True), (1, True), (n2_max, True),
            ) if on]
            # Each rate is written straight into its own row of the DIA data.
            data = np.empty((len(offsets), n1_max, n2_max))
            rows = iter(data)
            if pair_on:
                pair = next(rows)
                pair[...] = g_b2
                pair[:, -1] = 0.0
            if up1_on:
                np.add(g_b1, up1_w, out=next(rows))
            if up2_on:
                next(rows)[...] = up2_w
            outflow = next(rows)
            np.add(g_b1, g_b2, out=outflow)
            for rate in (down1, down2, up1_w, up2_w):
                outflow += rate
            if not np.all(np.isfinite(outflow)):
                n1, n2 = np.argwhere(~np.isfinite(outflow))[0]
                raise ValueError(
                    f"the outflow rate of state (n1, n2) = ({n1}, {n2}) overflows double "
                    "precision; lower c1_over_c, c2_over_c (--c1, --c2), nb1, nb2 (--nb) or "
                    "r_over_c (--r-over-c), or use a smaller grid (--grid)"
                )
            np.negative(outflow, out=outflow)
            next(rows)[...] = down2
            next(rows)[...] = down1
            self.matrix = sp.dia_matrix(
                (data.reshape(len(offsets), -1), offsets), shape=(n1_max * n2_max,) * 2
            )

            # Gain flows with no in-grid destination: last row (both gains) and
            # last column below it (pair gain only), copied so that the
            # generator keeps no reference to the gain table.
            self._edge_top = g_b1[-1, :] + g_b2[-1, :]
            self._edge_right = g_b2[:-1, -1].copy()

    def max_outflow(self) -> float:
        return float(-self.matrix.diagonal().min())

    def leak(self, p: np.ndarray) -> float:
        """Rate at which gain flows carry p out of the grid."""
        # Two dots over the 2N-1 edge entries: a dot over all of p would wake
        # the BLAS threads, and one dot over the gathered edge sums in another
        # order, which moves the last bit of the tabulated tail_leak.
        return float(self._edge_top @ p[-1, :] + self._edge_right @ p[:-1, -1])


def _dia_kernel(mat: sp.dia_matrix):
    """add(data, x, y): y += D x in place, D the DIA matrix of mat's shape and offsets.

    scipy's own DIA kernel, the one mat @ x runs on a zeroed y, so a stage
    costs no result allocation and no separate add pass.  data, x and y must
    be C-contiguous float64 arrays; data has mat.data's shape.
    """
    from scipy.sparse._sparsetools import dia_matvec

    return functools.partial(
        dia_matvec, *mat.shape, mat.offsets.size, mat.data.shape[1], mat.offsets
    )


def apply_generator(
    cfg: MazerConfig, gains: GainTable, p: np.ndarray
) -> tuple[np.ndarray, float]:
    """One evaluation of dP/dt (units of C) and the boundary leak rate."""
    p = np.asarray(p, dtype=float)
    gen = _RateGenerator(cfg, gains)
    if p.shape != gen.shape:
        raise ValueError(f"p shape {p.shape} does not match grid {gen.shape}")
    return (gen.matrix @ p.ravel()).reshape(gen.shape), gen.leak(p)


def _finalize(gen: _RateGenerator, p: np.ndarray) -> JointDistribution:
    """A solver's p on the grid as a distribution, with its leak rate as tail_leak.

    Roundoff negatives are set to zero and larger ones raise; so do a leak
    rate above TAIL_TOLERANCE in units of gen.unit, and a mass in the
    outermost shells above TAIL_TOLERANCE.
    """
    if p.min() < -_NEGATIVE_ROUNDOFF:
        raise SolverError(
            f"distribution went negative beyond roundoff (min {p.min():.3e})"
        )
    p = np.maximum(p, 0.0)
    dist = JointDistribution(p=p, tail_leak=gen.leak(p))
    if dist.tail_leak / gen.unit > TAIL_TOLERANCE:
        raise TruncationError(
            f"tail leak {dist.tail_leak:.3e} = {dist.tail_leak / gen.unit:.3e} u exceeds "
            f"{TAIL_TOLERANCE:.0e} u, with u = min(c1_over_c, c2_over_c) = {gen.unit:.3g}; "
            "enlarge the photon grid"
        )
    tail = dist.tail_mass()
    if tail > TAIL_TOLERANCE:
        raise TruncationError(
            f"probability {tail:.3e} in the outermost shells exceeds "
            f"{TAIL_TOLERANCE:.0e}; enlarge the photon grid"
        )
    return dist


def rk4_steady_state(
    cfg: MazerConfig,
    *,
    t_max: float = _T_MAX,
    tol: float = _TOL,
    gains: GainTable | None = None,
) -> SteadyStateResult:
    """Integrate the rate equation to its steady state with fixed-step RK4.

    Starts from the vacuum and stops once the in-grid part of |dP/dt|_1,
    |dP/dt|_1 - leak(p), falls below tol * min(1, max outflow): the steady
    state does not depend on the scale of the rates, so below a max outflow
    of 1 the threshold scales with them.  The leak rate is judged only by
    the gate of TAIL_TOLERANCE in units of u = min(c1_over_c, c2_over_c),
    as for the direct solve: a leak above it keeps the stepper running, and
    a grid that drains more than TAIL_TOLERANCE of mass before it settles
    raises TruncationError.
    residual is |hAp|_1 / h, |dP/dt|_1 up to round-off, and tail_leak the
    leak rate of the returned p; the step used is model_time / iterations.
    The stop compares residual - tail_leak, so a converged result can report
    a residual above tol when the grid leaks.

    On p' = Ap the classic step is p + hA(p + h/2 A(p + h/3 A(p + h/4 Ap))),
    R(hA) p with R the degree-4 Taylor polynomial of exp.  The step is
    h = 1 / max outflow.  The generator's DIA data is scaled to hA once, and
    hA/3 is its one copy.  Each stage writes a base and adds one product onto
    it with scipy's DIA kernel: the first, hAp, onto zeros; each later one
    onto a copy of p, hA/3 or hA times the previous stage, scaled on the
    vector by the exact 1/4 or 1/2; and the last straight onto p.

    A = N - D with N >= 0 off the diagonal, so R(hA) is entrywise
    nonnegative when h max D <= 1, the radius of absolute monotonicity of
    RK4 (Bolley & Crouzeix, RAIRO Anal. Numer. 12, 237 (1978); Kraaijevanger,
    BIT 31, 482 (1991)): p stays nonnegative.  Every Gershgorin disc of hA
    then lies in |z + 1| <= 1, inside RK4's stability region, so the step is
    also stable.

    R(hA) also has column sums <= 1 and commutes with A, so in exact
    arithmetic neither the mass nor |Ap|_1 nor its in-grid part ever rises:
    a stop test or guard (a negative p, a drifted mass) that holds at some
    step still holds at every later one.  So they run once per block of
    _RK4_BLOCK steps, on the state the block reaches.  When one holds there,
    p is copied back from the block's start and the block is stepped again
    with the checks at every step, which finds the same first step and the
    same result or error text.  In floating point the stop quantities first
    rise at their round-off floor (fig4a 128^2: at step 7 890 and
    |dP/dt| = 1.7e-13, 404 steps after the stop), so the first block whose
    end residual is not below the previous block's is stepped again too, and
    every step after it is checked; so are the steps of a last block that
    would reach t_max, whose ConvergenceError reports the residual of the
    last step.
    """
    _require_positive("t_max", t_max)
    _require_positive("tol", tol)
    # A table built here is freed once the generator holds its rates.
    gen = _RateGenerator(cfg, build_gain_table(cfg) if gains is None else gains)

    rate_scale = gen.max_outflow()
    dt = 1.0 / rate_scale
    if not (math.isfinite(dt) and t_max / dt > 0.0):
        raise ValueError(
            f"the RK4 step 1 / max outflow = 1 / {rate_scale:.3g} is not finite or "
            f"gives no step in t_max = {t_max:g}; raise c1_over_c and c2_over_c "
            "(--c1, --c2)"
        )
    if not math.isfinite(t_max / dt):
        raise ValueError(
            f"t_max / dt = {t_max:g} / {dt:g} overflows the step count; lower t_max (--t-max)"
        )
    threshold = tol * min(1.0, rate_scale)

    # The generator is this call's own, so its data becomes hA in place; hA/3
    # is the one copy, and the exact factors 1/4 and 1/2 go on vectors.
    h_a = gen.matrix.data
    h_a *= dt
    h_a_third = h_a / 3.0
    add_product = _dia_kernel(gen.matrix)
    p = JointDistribution.vacuum(*gen.shape).p.ravel()
    k, stage, saved = np.empty_like(p), np.empty_like(p), np.empty_like(p)

    def first_stage():
        k.fill(0.0)
        add_product(h_a, p, k)  # k = hAp

    def later_stages():
        np.multiply(k, 0.25, out=k)
        np.add(k, p, out=k)  # s1 = p + hAp/4
        np.copyto(stage, p)
        add_product(h_a_third, k, stage)  # s2 = p + hA/3 s1
        np.multiply(stage, 0.5, out=stage)
        np.copyto(k, p)
        add_product(h_a, stage, k)  # s3 = p + hA (s2/2)
        add_product(h_a, k, p)  # p + hA s3

    def stops(residual: float) -> bool:
        # dP/dt sums to -leak(p), so residual - leak(p) is 2 sum max(dP/dt, 0),
        # the in-grid part; the leak itself is judged by _finalize's gate, which
        # refuses one above TAIL_TOLERANCE u, so it is computed only below that.
        return (residual < threshold + TAIL_TOLERANCE * gen.unit
                and residual - gen.leak(p.reshape(gen.shape)) < threshold)

    def drifted(mass: float) -> bool:
        return not 1.0 - TAIL_TOLERANCE <= mass <= 1.0 + TAIL_TOLERANCE

    # Whole blocks that end before t_max run the stages alone and are checked
    # at their end; the first block whose end state stops, trips a guard or
    # shows a residual at its round-off floor is stepped again from its start,
    # as is everything after it, with the checks at every step.
    steps = int(math.ceil(t_max / dt))
    start, previous = 0, math.inf
    first_stage()
    while start + _RK4_BLOCK < steps:
        np.copyto(saved, p)
        for _ in range(_RK4_BLOCK):
            later_stages()
            first_stage()
        residual = float(np.abs(k, out=stage).sum()) / dt
        if (not residual < previous or stops(residual) or p.min() < -_NEGATIVE_ROUNDOFF
                or drifted(p.sum())):
            np.copyto(p, saved)
            break
        previous = residual
        start += _RK4_BLOCK

    for step in range(start, steps):
        first_stage()
        residual = float(np.abs(k, out=stage).sum()) / dt
        if stops(residual):
            return SteadyStateResult(
                dist=_finalize(gen, p.reshape(gen.shape)),
                method="rk4",
                iterations=step,
                model_time=step * dt,
                residual=residual,
            )
        later_stages()
        if p.min() < -_NEGATIVE_ROUNDOFF:
            raise SolverError(
                f"distribution went negative (min {p.min():.3e}) at "
                f"t = {(step + 1) * dt:.3f}, although the step 1 / max outflow keeps p "
                "nonnegative; that is a fault in the rate generator, not in the settings"
            )
        mass = p.sum()
        if drifted(mass):
            raise TruncationError(
                f"probability mass drifted to {mass:.9f} at t = {(step + 1) * dt:.3f}; "
                "the grid is leaking"
            )
    raise ConvergenceError(
        f"|dP/dt| = {residual:.3e} after t_max = {t_max}, above the threshold "
        f"tol * min(1, max outflow) = {threshold:.3g}; raise t_max or loosen tol"
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
    per grid shape; both cached arrays are read-only and int32, the index
    type of the sparse matrices they relabel.
    """
    parts = []
    _dissect(np.arange(n1_max * n2_max, dtype=np.int32).reshape(n1_max, n2_max), parts)
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

    The CSC is written column-aligned from the DIA data, whose entry [k, j]
    is already the rate of diagonal k out of state j: each diagonal is
    gathered in dissection order, and each of its non-zeros off the
    vacuum's row lands at its row's rank among the at most six rows of its
    column, so every column's rows come out sorted.  Besides the CSC the
    build holds one int32 row per diagonal and n-sized temporaries.
    """
    import scipy.sparse as sp

    order, position = _dissection(*gen.shape)
    n_states = order.size
    offsets, rates = gen.matrix.offsets, gen.matrix.data
    # The vacuum's row becomes the pin alone.  Its outflow is the pivot unless
    # that is subnormal (or zero), whose reciprocal would overflow: then 1.
    diagonal = int(np.flatnonzero(offsets == 0)[0])
    outflow = -rates[diagonal, 0]
    scale = outflow if outflow >= np.finfo(float).tiny else 1.0
    pin = position[0]

    # rows[k, c]: the dissection position of the state that diagonal k moves
    # state order[c]'s probability into, or n_states where that flow is zero,
    # leaves the grid or lands in the vacuum's row.  The pin is the one entry
    # of that row that stays.
    rows = np.empty((offsets.size, n_states), dtype=np.int32)
    for row, offset, rate in zip(rows, offsets, rates):
        np.subtract(order, offset, out=row)
        dropped = (row <= 0) | (row >= n_states)
        dropped |= rate[order] == 0.0
        row[dropped] = 0
        np.take(position, row, out=row)
        row[dropped] = n_states
    rows[diagonal, pin] = pin

    indptr = np.zeros(n_states + 1, dtype=np.int32)
    for row in rows:
        indptr[1:] += row < n_states
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    for k, row in enumerate(rows):
        kept = row < n_states
        slot = indptr[:-1].copy()
        for other in rows:
            slot += other < row
        slot = slot[kept]
        indices[slot] = row[kept]
        value = rates[k][order]
        if k == diagonal:
            value[pin] = scale
        data[slot] = value[kept]
    pinned = sp.csc_matrix((data, indices, indptr), shape=gen.matrix.shape)
    rhs = np.zeros(n_states)
    rhs[pin] = scale
    return pinned, rhs


def _pinned_solve(pinned: sp.csc_matrix, rhs: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Normalized p on a grid of this shape from _pinned_system's (pinned, rhs).

    Factorized in the system's own dissection order, with diagonal pivots.
    """
    import scipy.sparse.linalg as spla  # spla.splu is looked up per call

    advice = (
        "the generator looks singular, or the vacuum is too improbable to pin; "
        "use method='rk4'"
    )
    try:
        factor = spla.splu(pinned, permc_spec="NATURAL", panel_size=_SUPERLU_PANEL)
    except RuntimeError as err:  # SuperLU's "Factor is exactly singular"
        raise SolverError(f"direct solve failed ({err}): {advice}") from None
    _, position = _dissection(*shape)
    solution = factor.solve(rhs)[position]
    if not np.all(np.isfinite(solution)):
        raise SolverError(f"direct solve produced non-finite entries: {advice}")
    return solution.reshape(shape) / solution.sum()


def direct_steady_state(
    cfg: MazerConfig, *, gains: GainTable | None = None
) -> SteadyStateResult:
    """Stationary distribution from a sparse linear solve.

    Pins p[0, 0] = 1 in place of the redundant vacuum row of the rate
    matrix, factorizes once in nested-dissection order with the diagonal
    pivots, which the pinned M-matrix makes stable (see _pinned_system), and
    normalizes; deterministic, and entirely independent of the time stepper.
    tail_leak is the stationary outflow of the clamped p.  The leak and the
    residual |A p| are judged in units of u = min(c1_over_c, c2_over_c), so
    that scaling every rate changes neither verdict.
    """
    n_states = cfg.n1_max * cfg.n2_max
    if n_states > MAX_DIRECT_STATES:
        raise ValueError(
            f"grid has {n_states} states; the direct solver accepts at most "
            f"{MAX_DIRECT_STATES}; use method='rk4' (--method rk4) for larger grids"
        )
    gains = build_gain_table(cfg) if gains is None else gains
    # The generator that the pinned system is built from is freed before
    # SuperLU starts, and rebuilt from the gain table for the checks.
    p = _pinned_solve(*_pinned_system(_RateGenerator(cfg, gains)), (cfg.n1_max, cfg.n2_max))
    gen = _RateGenerator(cfg, gains)
    dist = _finalize(gen, p)
    # Rows 1.. of A p vanish and A p sums to -leak(p): the residual is the
    # leak, which _finalize refused above TAIL_TOLERANCE u, so only a residual
    # above that means ill-conditioning.
    residual = float(np.abs(gen.matrix @ dist.p.ravel()).sum())
    if residual / gen.unit > TAIL_TOLERANCE:
        raise SolverError(
            f"stationary residual |A p| = {residual:.3e} = {residual / gen.unit:.3e} u "
            f"exceeds {TAIL_TOLERANCE:.0e} u, with u = min(c1_over_c, c2_over_c) = "
            f"{gen.unit:.3g}; the generator looks degenerate or ill-conditioned"
        )
    return SteadyStateResult(
        dist=dist,
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
        # Python floats: an overflow gives inf, refused by name, not a numpy warning
        up = c1 * cfg.nb1 * n + float(g_b1[n - 1])
        down = c1 * (cfg.nb1 + 1.0) * n
        if not (math.isfinite(up) and math.isfinite(down)):
            raise ValueError(
                f"the detailed-balance rates at n1 = {n} overflow double precision; "
                "lower nb1 (--nb) or c1_over_c (--c1), or use a smaller grid (--grid)"
            )
        p1[n] = float(p1[n - 1]) * up / down
        if p1[n] > _RESCALE_ABOVE:
            # Scale by an exact power of two, so the normalized result keeps
            # its bits; entries far below the peak may underflow to zero.
            p1[: n + 1] = np.ldexp(p1[: n + 1], -math.frexp(p1[n])[1])
    if not np.isfinite(p1.sum()):
        raise ValueError(
            "the detailed-balance ratio P(n)/P(n-1) overflows double "
            "precision; raise c1_over_c (--c1) or lower r_over_c (--r-over-c)"
        )
    p1 /= p1.sum()

    ratio = cfg.nb2 / (cfg.nb2 + 1.0)
    p2 = ratio ** np.arange(cfg.n2_max)
    p2 /= p2.sum()
    return p1, p2
