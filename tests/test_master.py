"""Pump-damping rate equation on the truncated photon grid."""

import gc
import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascade_mazer import cli
from cascade_mazer.master import (
    TAIL_TOLERANCE,
    ConvergenceError,
    GainTable,
    JointDistribution,
    MazerConfig,
    SolverError,
    SteadyStateResult,
    TruncationError,
    apply_generator,
    build_gain_table,
    direct_steady_state,
    rk4_steady_state,
    twolevel_detailed_balance,
    _RK4_BLOCK,
    _RateGenerator,
    _dia_kernel,
    _dissection,
    _finalize,
    _pinned_solve,
    _pinned_system,
)
from cascade_mazer.scattering import (
    CavityBeam, _gain_arrays, gain_probabilities, ultracold_approx,
)
from cascade_mazer.stats import marginals

TOOLS = Path(__file__).resolve().parents[1] / "tools"

PLATEAU_BEAM = CavityBeam(k_ratio=0.01, kappa_l=20000.0 * math.pi, gamma=2.0)
SILENT_BEAM = CavityBeam(k_ratio=0.01, kappa_l=0.0, gamma=2.0)


def config(beam=PLATEAU_BEAM, r=50.0, nb=0.0, n=32, **kw):
    return MazerConfig(r_over_c=r, nb1=nb, nb2=nb, beam=beam, n1_max=n, n2_max=n, **kw)


def zero_gains(n: int) -> GainTable:
    return GainTable(g_b1=np.zeros((n, n)), g_b2=np.zeros((n, n)))


def thermal(nb: float, n: int) -> np.ndarray:
    w = (nb / (nb + 1.0)) ** np.arange(n)
    return w / w.sum()


class ReferenceFlows:
    """The rate equation written flow by flow on grid slices.

    An independent encoding of the generator: the package builds one sparse
    matrix, this applies each pump, damping and thermal flow by hand.
    """

    def __init__(self, cfg: MazerConfig, gains: GainTable):
        n1 = np.arange(cfg.n1_max, dtype=float)[:, None]
        n2 = np.arange(cfg.n2_max, dtype=float)[None, :]
        c1, c2 = cfg.c1_over_c, cfg.c2_over_c
        # no thermal up-flow out of the last row/column
        up1_w = cfg.nb1 * c1 * (n1 + 1.0)
        up1_w[-1, :] = 0.0
        up2_w = cfg.nb2 * c2 * (n2 + 1.0)
        up2_w[:, -1] = 0.0
        self.outflow = (
            gains.g_b1 + gains.g_b2
            + c1 * (cfg.nb1 + 1.0) * n1 + c2 * (cfg.nb2 + 1.0) * n2
            + up1_w + up2_w
        )
        self.gb1_in = gains.g_b1[:-1, :]
        self.gb2_in = gains.g_b2[:-1, :-1]
        self.down1 = c1 * (cfg.nb1 + 1.0) * n1[1:, :]
        self.down2 = c2 * (cfg.nb2 + 1.0) * n2[:, 1:]
        self.up1 = cfg.nb1 * c1 * n1[1:, :]
        self.up2 = cfg.nb2 * c2 * n2[:, 1:]
        # gain flows leaving the grid: last row (both gains), last column
        # below it (pair gain only)
        self.edge_top = gains.g_b1[-1, :] + gains.g_b2[-1, :]
        self.edge_right = gains.g_b2[:-1, -1]

    def apply(self, p: np.ndarray) -> tuple[np.ndarray, float]:
        dp = -self.outflow * p
        dp[1:, :] += self.gb1_in * p[:-1, :]
        dp[1:, 1:] += self.gb2_in * p[:-1, :-1]
        dp[:-1, :] += self.down1 * p[1:, :]
        dp[:, :-1] += self.down2 * p[:, 1:]
        dp[1:, :] += self.up1 * p[:-1, :]
        dp[:, 1:] += self.up2 * p[:, :-1]
        leak = float(self.edge_top @ p[-1, :] + self.edge_right @ p[:-1, -1])
        return dp, leak


def reference_rk4(cfg, gains, t_max, tol):
    """Textbook RK4 from the vacuum on the reference flows, stepping at 1 / their max outflow."""
    flows = ReferenceFlows(cfg, gains)
    dt = 1.0 / flows.outflow.max()
    p = JointDistribution.vacuum(cfg.n1_max, cfg.n2_max).p
    for step in range(math.ceil(t_max / dt)):
        k1, leak = flows.apply(p)
        # stop on the in-grid part of |dP/dt|: dP/dt sums to -leak
        if np.abs(k1).sum() - leak < tol:
            return p, step
        k2, _ = flows.apply(p + dt / 2 * k1)
        k3, _ = flows.apply(p + dt / 2 * k2)
        k4, _ = flows.apply(p + dt * k3)
        p = p + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    raise AssertionError("reference RK4 did not converge")


def exact_pinned_solve(cfg: MazerConfig, gains: GainTable) -> np.ndarray:
    """The direct solve's pinned system solved in exact rational arithmetic.

    Column j of the generator is the reference flows applied to the unit
    vector at state j; its floats become exact fractions.  Row 0 becomes the
    pin p[0, 0] = 1, Gaussian elimination in row order (the band reaches
    n2_max + 1 states away) and back substitution solve it exactly, and the
    normalized result is rounded once to floats.
    """
    flows = ReferenceFlows(cfg, gains)
    n = cfg.n1_max * cfg.n2_max
    rows = [{} for _ in range(n)]
    for j, unit in enumerate(np.eye(n)):
        column = flows.apply(unit.reshape(cfg.n1_max, cfg.n2_max))[0].ravel()
        for i in np.flatnonzero(column):
            rows[i][j] = Fraction(column[i])
    rows[0] = {0: Fraction(1)}
    rhs = [Fraction(0)] * n
    rhs[0] = Fraction(1)
    for k in range(n):
        for i in range(k + 1, n):
            if k in rows[i]:
                factor = rows[i].pop(k) / rows[k][k]
                for j, value in rows[k].items():
                    if j > k:
                        rows[i][j] = rows[i].get(j, 0) - factor * value
                rhs[i] -= factor * rhs[k]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        known = sum(value * x[j] for j, value in rows[k].items() if j > k)
        x[k] = (rhs[k] - known) / rows[k][k]
    total = sum(x)
    return np.array([float(v / total) for v in x]).reshape(cfg.n1_max, cfg.n2_max)


def parent_pinned_system(mat, shape: tuple[int, int]) -> tuple[sp.csc_matrix, np.ndarray]:
    """The pinned system built the earlier way, as the reference for the new one.

    Row 0 of the CSR form is replaced by the pin through vstack, then rows and
    columns are permuted by fancy indexing and the result converted to CSC.
    """
    mat = mat.tocsr()
    n_states = mat.shape[0]
    scale = -mat[0, 0] or 1.0
    pin = sp.csr_matrix(([scale], ([0], [0])), shape=(1, n_states))
    pinned = sp.vstack([pin, mat[1:]], format="csr")
    rhs = np.zeros(n_states)
    rhs[0] = scale
    order, _ = _dissection(*shape)
    return pinned[order][:, order].tocsc(), rhs[order]


def parent_rate_matrix(cfg: MazerConfig, gains: GainTable) -> tuple[list[int], np.ndarray]:
    """The generator's DIA offsets and data built the earlier way, as the reference.

    Every flow's rate is a full-size array or a broadcast one; the flows with
    a nonzero rate are raveled and stacked.
    """
    n1_max, n2_max = cfg.n1_max, cfg.n2_max
    n1 = np.arange(n1_max, dtype=float)[:, None]
    n2 = np.arange(n2_max, dtype=float)[None, :]
    c1, c2 = cfg.c1_over_c, cfg.c2_over_c
    up1_w = cfg.nb1 * c1 * (n1 + 1.0)
    up1_w[-1, :] = 0.0
    up2_w = cfg.nb2 * c2 * (n2 + 1.0)
    up2_w[:, -1] = 0.0
    outflow = (
        gains.g_b1 + gains.g_b2
        + c1 * (cfg.nb1 + 1.0) * n1 + c2 * (cfg.nb2 + 1.0) * n2
        + up1_w + up2_w
    )
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
    return list(offsets), np.stack(
        [np.broadcast_to(rate, (n1_max, n2_max)).ravel() for rate in rates]
    )


def parent_rk4_steady_state(cfg: MazerConfig, *, t_max: float, tol: float,
                            gains: GainTable | None = None) -> SteadyStateResult:
    """RK4 with the stop test and the guards at every step, as the reference for the blocks.

    The earlier loop: each step zeroes k, adds hAp onto it with all diagonals,
    takes the residual and the stop test, runs the later stages and checks p
    for negatives and a drifted mass.
    """
    gen = _RateGenerator(cfg, build_gain_table(cfg) if gains is None else gains)
    rate_scale = gen.max_outflow()
    dt = 1.0 / rate_scale
    threshold = tol * min(1.0, rate_scale)
    h_a = gen.matrix.data
    h_a *= dt
    h_a_third = h_a / 3.0
    add_product = _dia_kernel(gen.matrix)
    p = JointDistribution.vacuum(*gen.shape).p.ravel()
    k, stage = np.empty_like(p), np.empty_like(p)
    residual = math.inf
    for step in range(int(math.ceil(t_max / dt))):
        k.fill(0.0)
        add_product(h_a, p, k)
        residual = float(np.abs(k, out=stage).sum()) / dt
        if (residual < threshold + TAIL_TOLERANCE * gen.unit
                and residual - gen.leak(p.reshape(gen.shape)) < threshold):
            return SteadyStateResult(dist=_finalize(gen, p.reshape(gen.shape)), method="rk4",
                                     iterations=step, model_time=step * dt, residual=residual)
        k *= 0.25
        k += p
        np.copyto(stage, p)
        add_product(h_a_third, k, stage)
        stage *= 0.5
        np.copyto(k, p)
        add_product(h_a, stage, k)
        add_product(h_a, k, p)
        if p.min() < -1e-9:
            raise SolverError(
                f"distribution went negative (min {p.min():.3e}) at "
                f"t = {(step + 1) * dt:.3f}, although the step 1 / max outflow keeps p "
                "nonnegative; that is a fault in the rate generator, not in the settings"
            )
        mass = p.sum()
        if not 1.0 - TAIL_TOLERANCE <= mass <= 1.0 + TAIL_TOLERANCE:
            raise TruncationError(
                f"probability mass drifted to {mass:.9f} at t = {(step + 1) * dt:.3f}; "
                "the grid is leaking"
            )
    raise ConvergenceError(
        f"|dP/dt| = {residual:.3e} after t_max = {t_max}, above the threshold "
        f"tol * min(1, max outflow) = {threshold:.3g}; raise t_max or loosen tol"
    )


def rk4_outcome(solve, cfg: MazerConfig, gains: GainTable, **settings):
    """What one RK4 solver gives: its result's numbers and p's bytes, or its error and text."""
    try:
        res = solve(cfg, gains=gains, **settings)
    except SolverError as err:
        return type(err), str(err)
    return (res.iterations, res.model_time, res.residual, res.dist.tail_leak,
            res.dist.p.dtype, res.dist.p.shape, res.dist.p.tobytes())


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and (
        got.tobytes() == want.tobytes()
    )


def decades(lo: float, hi: float):
    """Floats spread evenly over the decades from 10**lo to 10**hi."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def flux_balance(cfg: MazerConfig, gains: GainTable, p: np.ndarray) -> tuple[float, float]:
    """Residuals of the first-moment balance of each mode at a stationary p.

    Multiplying the rate equation by n1 (or n2) and summing over the grid,
    with edge the gain rate that leaves the top of the grid:
        c1 (nb1 + 1) <n1> = sum_in-grid (g_b1 + g_b2 + c1 nb1 (n1 + 1)) P
                            - sum n1 edge P
        c2 (nb2 + 1) <n2> = sum_in-grid (g_b2 + c2 nb2 (n2 + 1)) P
                            - sum n2 edge P
    Built from the gain table and the damping rates, not from the generator,
    so it checks the assembly as well as the solvers, at every gamma.  The
    residual equals -sum n (A p), so it is bounded by max(n) |A p|_1.
    """
    n1 = np.arange(cfg.n1_max, dtype=float)[:, None]
    n2 = np.arange(cfg.n2_max, dtype=float)[None, :]
    c1, c2 = cfg.c1_over_c, cfg.c2_over_c
    edge = np.zeros_like(p)
    edge[-1, :] = gains.g_b1[-1, :] + gains.g_b2[-1, :]
    edge[:-1, -1] = gains.g_b2[:-1, -1]
    one = (gains.g_b1 * p)[:-1, :].sum()
    pair = (gains.g_b2 * p)[:-1, :-1].sum()
    up1 = (cfg.nb1 * c1 * (n1 + 1.0) * p)[:-1, :].sum()
    up2 = (cfg.nb2 * c2 * (n2 + 1.0) * p)[:, :-1].sum()
    mode1 = c1 * (cfg.nb1 + 1.0) * (n1 * p).sum() - (
        one + pair + up1 - (n1 * edge * p).sum()
    )
    mode2 = c2 * (cfg.nb2 + 1.0) * (n2 * p).sum() - (
        pair + up2 - (n2 * edge * p).sum()
    )
    return float(mode1), float(mode2)


class TestValidation:
    def test_config_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            config(r=0.0)
        with pytest.raises(ValueError):
            config(nb=-0.1)
        with pytest.raises(ValueError):
            config(c1_over_c=0.0)

    def test_config_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            config(n=1)
        with pytest.raises(ValueError):
            MazerConfig(r_over_c=1.0, nb1=0.0, nb2=0.0, beam=PLATEAU_BEAM,
                        n1_max=2.5, n2_max=4)

    def test_gain_table_shape_and_sign(self):
        with pytest.raises(ValueError):
            GainTable(g_b1=np.zeros((3, 3)), g_b2=np.zeros((3, 4)))
        with pytest.raises(ValueError):
            GainTable(g_b1=-np.ones((3, 3)), g_b2=np.zeros((3, 3)))
        g_b2 = np.zeros((3, 3))
        g_b2[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"g_b2 is not finite at \(n1, n2\) = \(1, 2\)"):
            GainTable(g_b1=np.zeros((3, 3)), g_b2=g_b2)

    def test_overflowing_beam_is_named(self):
        # k^2 overflows: the scattering amplitudes come out nan, and the
        # error is all the caller sees, with no numpy warning before it
        beam = CavityBeam(k_ratio=1e200, kappa_l=20000.0 * math.pi, gamma=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"CavityBeam\(k_ratio=1e\+200.*not finite"):
                build_gain_table(config(beam=beam, n=4))

    @pytest.mark.parametrize("solve", [direct_steady_state, rk4_steady_state])
    def test_overflowing_rates_are_named(self, solve):
        # c1 * n1 overflows at n1 = 2: the outflow is refused before either
        # solver reads it, with no numpy warning before the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the outflow rate of state \(n1, n2\) = "
                               r"\(2, 0\) overflows double precision; lower c1_over_c.*nb1.*"
                               r"r_over_c.*smaller grid"):
                solve(config(n=8, c1_over_c=1e308))

    def test_distribution_needs_finite_grid(self):
        with pytest.raises(ValueError):
            JointDistribution(p=np.ones(5))
        with pytest.raises(ValueError):
            JointDistribution(p=np.full((3, 3), np.nan))

    def test_vacuum_and_tail_mass(self):
        d = JointDistribution.vacuum(4, 6)
        assert d.p.shape == (4, 6) and d.p[0, 0] == 1.0 and d.mass() == 1.0
        p = np.zeros((5, 5))
        p[4, 0] = 0.25  # last row
        p[0, 4] = 0.25  # last column
        p[4, 4] = 0.5   # corner counted once
        assert JointDistribution(p=p).tail_mass() == pytest.approx(1.0)


class TestGainTable:
    def test_silent_cavity_has_no_gain(self):
        t = build_gain_table(config(beam=SILENT_BEAM, n=6))
        assert not t.g_b1.any() and not t.g_b2.any()

    def test_decoupled_mode_two_gains_vanish(self):
        beam = CavityBeam(k_ratio=0.01, kappa_l=20000.0 * math.pi, gamma=0.0)
        t = build_gain_table(config(beam=beam, n=6))
        assert not t.g_b2.any()
        assert t.g_b1.shape == (6, 6)

    def test_slow_beam_grid_follows_plateau_formula(self):
        cfg = config(n=8)
        t = build_gain_table(cfg)
        for i in range(8):
            for j in range(8):
                plateau = ultracold_approx(2.0, i, j).p_two
                assert t.g_b2[i, j] / cfg.r_over_c == pytest.approx(plateau, abs=5e-3)
                assert t.g_b1[i, j] / cfg.r_over_c < 5e-3


def assembly_configs():
    """The steady presets at 128^2, and odd shapes with thermal modes and c1 != c2.

    Among the shapes, gamma = 0 drops the pair diagonal and nb = 0 the
    mode-2 up-flow diagonal.
    """
    for name, (command, _, _, _) in sorted(cli._PRESETS.items()):
        if command == "steady":
            args = cli._preset_args(name)
            yield pytest.param(cli._mazer_config(args, args.g_ratio), id=name)
    for shape, nb, gamma in [
        ((2, 300), 0.2, 2.0), ((9, 14), 0.2, 2.0), ((40, 30), 0.2, 2.0),
        ((9, 14), 0.2, 0.0), ((40, 30), 0.0, 2.0),
    ]:
        beam = CavityBeam(k_ratio=1.1, kappa_l=20000.0 * math.pi, gamma=gamma)
        yield pytest.param(
            MazerConfig(r_over_c=0.3, nb1=nb, nb2=nb, beam=beam, n1_max=shape[0],
                        n2_max=shape[1], c1_over_c=0.7),
            id=f"{shape[0]}x{shape[1]}-nb{nb}-gamma{gamma}",
        )


class TestAssembly:
    """The gain table and the generator, built in place, against their earlier forms."""

    # the module's block, a block of one row, and blocks of two rows on the
    # 9 x 14 grid, whose last block is one row
    @pytest.mark.parametrize("block", [None, 1, 28])
    @pytest.mark.parametrize("cfg", assembly_configs())
    def test_gain_table_matches_one_kernel_call(self, cfg, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr("cascade_mazer.master._GAIN_BLOCK", block)
        with np.errstate(invalid="ignore", over="ignore"):
            p_one, p_two = _gain_arrays(
                cfg.beam.k_ratio, cfg.beam.kappa_l, cfg.beam.gamma,
                np.arange(cfg.n1_max)[:, None], np.arange(cfg.n2_max)[None, :],
            )
        gains = build_gain_table(cfg)
        assert same_bits(gains.g_b1, cfg.r_over_c * p_one)
        assert same_bits(gains.g_b2, cfg.r_over_c * p_two)

    @pytest.mark.parametrize("cfg", assembly_configs())
    def test_generator_matches_parent_construction(self, cfg):
        gains = build_gain_table(cfg)
        offsets, data = parent_rate_matrix(cfg, gains)
        mat = _RateGenerator(cfg, gains).matrix
        assert mat.offsets.tolist() == offsets
        assert same_bits(mat.data, data)

    @pytest.mark.parametrize("nb1", [0.0, 0.4])
    def test_pair_gain_only_in_the_last_column_has_no_diagonal(self, nb1):
        # the last column's pair rates leave the grid, so its diagonal is
        # off; the mode-1 up-flow keeps the one-photon diagonal on alone
        cfg = MazerConfig(r_over_c=1.0, nb1=nb1, nb2=0.0, beam=SILENT_BEAM, n1_max=5,
                          n2_max=7, c2_over_c=1.3)
        gains = GainTable(g_b1=np.zeros((5, 7)), g_b2=np.zeros((5, 7)))
        gains.g_b2[:, -1] = 0.25
        offsets, data = parent_rate_matrix(cfg, gains)
        mat = _RateGenerator(cfg, gains).matrix
        assert mat.offsets.tolist() == offsets == ([-7] if nb1 else []) + [0, 1, 7]
        assert same_bits(mat.data, data)

    def test_generator_keeps_no_reference_to_the_gain_table(self):
        cfg = config(nb=0.3, n=12)
        gains = build_gain_table(cfg)
        gen = _RateGenerator(cfg, gains)
        for array in (gen.matrix.data, gen._edge_top, gen._edge_right):
            assert not np.shares_memory(array, gains.g_b1)
            assert not np.shares_memory(array, gains.g_b2)

    def test_assembly_peak_memory_at_fig6_512(self):
        # built in place, the fig6 512^2 gain table and generator raised a
        # fresh interpreter's peak RSS by 17.1 MB, about the 16 MB the two
        # keep; built from full-size temporaries they raised it by 65.6 MB
        code = (f"import runpy; assemble = runpy.run_path({str(TOOLS / 'solver_memory.py')!r})"
                "['assemble']; _, row = assemble('fig6', 512); "
                "print(row['assembly_mb'], row['kept_mb'])")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        rise, kept = map(float, done.stdout.split()[-2:])
        assert kept == 16.0
        assert rise < 2.0 * kept


class TestApplyGenerator:
    def test_vacuum_is_dark_fixed_point(self):
        cfg = config(beam=SILENT_BEAM, n=6)
        dp, leak = apply_generator(cfg, zero_gains(6), JointDistribution.vacuum(6, 6).p)
        assert not dp.any() and leak == 0.0

    def test_single_photon_decays_at_unit_rate(self):
        cfg = config(beam=SILENT_BEAM, n=6)
        p = np.zeros((6, 6))
        p[1, 0] = 1.0
        dp, leak = apply_generator(cfg, zero_gains(6), p)
        assert dp[1, 0] == -1.0
        assert dp[0, 0] == 1.0
        assert leak == 0.0
        dp[1, 0] = dp[0, 0] = 0.0
        assert not dp.any()

    def test_two_photon_gain_moves_diagonally(self):
        cfg = config(beam=SILENT_BEAM, r=50.0, n=6)
        gains = zero_gains(6)
        gains.g_b2[0, 0] = 0.32 * cfg.r_over_c
        dp, leak = apply_generator(cfg, gains, JointDistribution.vacuum(6, 6).p)
        assert dp[0, 0] == -16.0
        assert dp[1, 1] == 16.0
        assert leak == 0.0

    def test_one_photon_gain_moves_along_mode_one(self):
        cfg = config(beam=SILENT_BEAM, r=10.0, n=6)
        gains = zero_gains(6)
        gains.g_b1[2, 3] = 5.0
        p = np.zeros((6, 6))
        p[2, 3] = 1.0
        dp, _ = apply_generator(cfg, gains, p)
        assert dp[2, 3] == -(5.0 + 5.0)  # pump out plus damping 2+3
        assert dp[3, 3] == 5.0

    def test_interior_support_conserves_probability(self):
        rng = np.random.default_rng(11)
        cfg = config(n=16, nb=0.3)
        gains = build_gain_table(cfg)
        for _ in range(20):
            p = np.zeros((16, 16))
            p[1:-2, 1:-2] = rng.random((13, 13))
            p /= p.sum()
            dp, leak = apply_generator(cfg, gains, p)
            assert leak == 0.0
            assert abs(dp.sum()) < 1e-12

    def test_boundary_gain_flows_are_counted_as_leak(self):
        rng = np.random.default_rng(12)
        cfg = config(n=12, nb=0.7)
        gains = build_gain_table(cfg)
        p = rng.random((12, 12))
        p /= p.sum()
        dp, leak = apply_generator(cfg, gains, p)
        assert leak > 0.0
        # whatever leaves the grid is exactly the loss of total mass
        assert dp.sum() == pytest.approx(-leak, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        cfg = config(n=6)
        with pytest.raises(ValueError):
            apply_generator(cfg, zero_gains(6), np.zeros((5, 6)))

    def test_sparse_matrix_agrees_with_apply(self):
        rng = np.random.default_rng(13)
        # square and non-square grids (the DIA offsets depend on n2), cold and
        # thermal modes, unequal damping, and no pair gain (gamma = 0)
        for n1, n2, nb1, nb2, c1, c2, pair in [
            (14, 14, 0.0, 0.0, 1.0, 1.0, 5.0),
            (14, 14, 0.4, 0.4, 1.0, 1.0, 5.0),
            (9, 15, 0.3, 0.7, 0.6, 1.4, 5.0),
            (15, 9, 0.0, 0.5, 1.3, 0.8, 5.0),
            (11, 6, 0.9, 0.0, 1.0, 2.5, 5.0),
            (12, 9, 0.0, 0.0, 1.0, 1.0, 0.0),
            (9, 14, 0.6, 0.6, 0.7, 1.2, 0.0),
        ]:
            cfg = MazerConfig(r_over_c=50.0, nb1=nb1, nb2=nb2, beam=PLATEAU_BEAM,
                              n1_max=n1, n2_max=n2, c1_over_c=c1, c2_over_c=c2)
            # random gains reach every flow, the grid edges included
            gains = GainTable(g_b1=rng.random((n1, n2)), g_b2=pair * rng.random((n1, n2)))
            reference = ReferenceFlows(cfg, gains)
            gen = _RateGenerator(cfg, gains)
            dia = gen.matrix
            csr = dia.tocsr()
            # one diagonal per flow that moves probability: the one-photon
            # gain and mode-1 up-flow share one, the pair gain and the mode-2
            # up-flow are stored only when they are on
            assert dia.offsets.size == 4 + (pair > 0) + (nb2 > 0)
            assert np.all(np.diff(dia.offsets) > 0)
            assert all(row.any() for row in dia.data)
            assert np.all(csr.data != 0.0)
            assert gen.max_outflow() == reference.outflow.max()
            for _ in range(5):
                p = rng.random((n1, n2))
                p /= p.sum()
                want_dp, want_leak = reference.apply(p)
                dp, leak = apply_generator(cfg, gains, p)
                assert leak == want_leak > 0.0
                assert np.abs(dp - want_dp).max() < 1e-13
                assert np.abs(dia @ p.ravel() - want_dp.ravel()).max() < 1e-13
                assert np.abs(csr @ p.ravel() - want_dp.ravel()).max() < 1e-13

    @pytest.mark.parametrize("n1, n2, nb2, pair, diagonals", [
        (12, 12, 0.0, 0.0, 4),
        (11, 6, 0.0, 0.0, 4),
        (13, 13, 0.0, 5.0, 5),
        (9, 14, 0.0, 5.0, 5),
        (14, 14, 0.6, 5.0, 6),
        (15, 9, 0.6, 5.0, 6),
    ])
    def test_dia_kernel_adds_the_product_onto_y(self, n1, n2, nb2, pair, diagonals):
        # RK4 adds each stage onto a copy of p with scipy's private DIA
        # kernel; a scipy release that renames it or changes what it computes
        # fails here by name
        rng = np.random.default_rng(n1 * n2 + diagonals)
        cfg = MazerConfig(r_over_c=50.0, nb1=0.3, nb2=nb2, beam=PLATEAU_BEAM,
                          n1_max=n1, n2_max=n2, c1_over_c=0.7, c2_over_c=1.3)
        gains = GainTable(g_b1=rng.random((n1, n2)), g_b2=pair * rng.random((n1, n2)))
        mat = _RateGenerator(cfg, gains).matrix
        assert mat.offsets.size == diagonals
        add_product = _dia_kernel(mat)
        for _ in range(3):
            x, y = rng.random(n1 * n2), rng.random(n1 * n2)
            want = mat @ x + y
            scale = (abs(mat) @ x + y).max()
            got = y.copy()
            add_product(mat.data, x, got)
            assert np.abs(got - want).max() <= 1e-15 * scale
            # a scaled copy of the data acts as the scaled matrix
            got = y.copy()
            add_product(mat.data / 3.0, x, got)
            assert np.abs(got - (mat @ x / 3.0 + y)).max() <= 1e-15 * scale


class TestRk4SteadyState:
    # a grid that leaks 2.95e-11 per unit time, which RK4 resolves at tol 1e-10
    LEAKY = MazerConfig(r_over_c=0.3, nb1=0.05, nb2=0.1, beam=PLATEAU_BEAM,
                        n1_max=12, n2_max=10, c1_over_c=0.8, c2_over_c=1.2)

    def test_thermal_baths_give_product_geometric(self):
        cfg = MazerConfig(r_over_c=50.0, nb1=1.0, nb2=0.5, beam=SILENT_BEAM,
                          n1_max=24, n2_max=24)
        res = rk4_steady_state(cfg, tol=1e-13)
        p1, p2 = marginals(res.dist)
        assert np.abs(p1 - thermal(1.0, 24)).sum() < 1e-10
        assert np.abs(p2 - thermal(0.5, 24)).sum() < 1e-10
        # joint factorizes
        assert np.abs(res.dist.p - np.outer(p1, p2)).max() < 1e-12

    def test_reports_convergence_metadata(self):
        cfg = config(r=10.0, n=32)
        res = rk4_steady_state(cfg)
        assert res.method == "rk4"
        assert res.iterations > 0
        assert res.residual < 1e-12
        assert 0.0 < res.model_time <= 500.0
        assert res.dist.mass() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("c, t_max", [
        (5e-324, 500.0),  # 1 / max outflow overflows
        (1e-300, 1e-30),  # t_max / dt underflows to no step at all
    ])
    def test_refuses_a_default_step_with_no_step_count(self, c, t_max):
        cfg = config(r=c, n=8, c1_over_c=c, c2_over_c=c)
        with pytest.raises(ValueError, match=r"^the RK4 step 1 / max outflow = 1 / .* is not "
                           r"finite or gives no step in t_max = .*; raise c1_over_c and "
                           r"c2_over_c \(--c1, --c2\)$"):
            rk4_steady_state(cfg, t_max=t_max)

    def test_refuses_a_default_step_count_that_overflows(self):
        cfg = config(r=1.0, n=8, c1_over_c=1e10, c2_over_c=1e10)
        with pytest.raises(ValueError, match=r"^t_max / dt = 1e\+300 / .* overflows the step "
                           r"count; lower t_max \(--t-max\)$"):
            rk4_steady_state(cfg, t_max=1e300)

    def test_small_rates_are_not_taken_for_the_vacuum(self):
        # |dP/dt| of the vacuum is 6.4e-15, below tol, but the steady state
        # does not depend on the scale of the rates, so neither may the stop
        cfg = config(r=1e-14, n=16, c1_over_c=1e-14, c2_over_c=1e-14)
        with pytest.raises(ConvergenceError, match=r"^\|dP/dt\| = 6\.400e-15 after t_max = 500\.0, "
                           r"above the threshold tol \* min\(1, max outflow\) = 3\.03e-25; "
                           r"raise t_max or loosen tol$"):
            rk4_steady_state(cfg)
        res = rk4_steady_state(cfg, t_max=1e17)
        assert res.iterations > 0
        assert np.abs(res.dist.p - direct_steady_state(cfg).dist.p).sum() < 1e-9

    def test_short_horizon_fails_loudly(self):
        with pytest.raises(ConvergenceError):
            rk4_steady_state(config(n=32), t_max=0.5)

    def test_undersized_grid_fails_loudly(self):
        # mean occupation ~16 cannot fit an 8x8 grid: it leaks 1.68 per unit
        # time, far above TAIL_TOLERANCE, so the mass drift is the verdict
        with pytest.raises(TruncationError, match="mass drifted .* the grid is leaking"):
            rk4_steady_state(config(n=8), tol=1e-6, t_max=200.0)

    # a config that leaks 2.35e-9 per unit time, above tol = 1e-10 but far
    # below the leak gate TAIL_TOLERANCE, which the direct solve accepts
    FLOORED = MazerConfig(r_over_c=0.3, nb1=0.0, nb2=0.0,
                          beam=CavityBeam(k_ratio=0.08, kappa_l=140.0, gamma=1.3),
                          n1_max=8, n2_max=12, c1_over_c=0.5, c2_over_c=1.3)

    def test_residual_floored_at_the_leak_asks_for_a_larger_grid(self):
        # a shorter run still asks for a longer one
        with pytest.raises(ConvergenceError, match="raise t_max"):
            rk4_steady_state(self.FLOORED, tol=1e-10, t_max=30.0)
        # two photon states fewer in mode 1 leak 1.29e-6 per unit time, above
        # the leak gate: the direct solve refuses the grid, and RK4's residual,
        # floored at that leak, never stops it before the mass drifts away
        cfg = MazerConfig(r_over_c=0.3, nb1=0.0, nb2=0.0, beam=self.FLOORED.beam,
                          n1_max=6, n2_max=12, c1_over_c=0.5, c2_over_c=1.3)
        with pytest.raises(TruncationError, match=r"^tail leak 1\.287e-06 = 2\.573e-06 u "
                           r"exceeds 1e-06 u, with u = min\(c1_over_c, c2_over_c\) = 0\.5; "
                           r"enlarge the photon grid$"):
            direct_steady_state(cfg)
        with pytest.raises(TruncationError, match=r"mass drifted .* at t = 4\.19.*"
                           r"the grid is leaking$"):
            rk4_steady_state(cfg, tol=1e-10, t_max=1000.0)

    def test_long_run_at_the_leak_floor_is_not_a_leaking_grid(self):
        cfg = self.FLOORED
        # |dP/dt| stays above the leak rate, but its in-grid part falls below
        # tol at t = 39, and any longer t_max stops there too
        res = rk4_steady_state(cfg, tol=1e-10, t_max=100.0)
        longer = rk4_steady_state(cfg, tol=1e-10, t_max=1000.0)
        assert (longer.iterations, longer.residual) == (res.iterations, res.residual)
        assert np.array_equal(longer.dist.p, res.dist.p)
        assert res.residual > res.dist.tail_leak > 1e-10
        assert res.residual - res.dist.tail_leak < 1e-10
        # the mass leaked on the way is gone from p; at unit mass p is the
        # direct solve's
        solved = direct_steady_state(cfg).dist.p
        lost = 1.0 - res.dist.mass()
        assert 1e-8 < lost < res.model_time * res.dist.tail_leak
        assert np.abs(res.dist.p - solved).sum() == pytest.approx(lost, rel=1e-2)
        assert np.abs(res.dist.p / res.dist.mass() - solved).sum() < 2e-9

    @pytest.mark.parametrize("name", ["t_max", "tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_settings(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            rk4_steady_state(config(n=8), **{name: value})

    @pytest.mark.parametrize("name", ["t_max", "tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_rejects_nonpositive_settings(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            rk4_steady_state(config(n=8), **{name: value})

    def test_matches_textbook_rk4_on_reference_flows(self):
        cfg = self.LEAKY
        gains = build_gain_table(cfg)
        t_max, tol = 200.0, 1e-10
        p, steps = reference_rk4(cfg, gains, t_max, tol)
        res = rk4_steady_state(cfg, t_max=t_max, tol=tol, gains=gains)
        assert res.iterations == steps > 0
        assert np.abs(res.dist.p - p).max() < 1e-13
        # tail_leak is the leak rate of the returned p
        _, leak = ReferenceFlows(cfg, gains).apply(res.dist.p)
        assert leak > 0.0
        assert res.dist.tail_leak == pytest.approx(leak, rel=1e-14, abs=0.0)

    def test_repeated_calls_on_one_gain_table_agree_and_keep_it(self):
        # RK4 scales its own generator's rates by the step in place; the gain
        # table it was built from, and so a second call, must not see that
        cfg = self.LEAKY
        gains = build_gain_table(cfg)
        g_b1, g_b2 = gains.g_b1.copy(), gains.g_b2.copy()
        first = rk4_steady_state(cfg, t_max=200.0, tol=1e-10, gains=gains)
        second = rk4_steady_state(cfg, t_max=200.0, tol=1e-10, gains=gains)
        assert np.array_equal(gains.g_b1, g_b1) and np.array_equal(gains.g_b2, g_b2)
        assert (second.iterations, second.model_time, second.residual) == (
            first.iterations, first.model_time, first.residual)
        assert second.dist.tail_leak == first.dist.tail_leak
        assert np.array_equal(second.dist.p, first.dist.p)

    def test_peak_memory_at_fig4a_256(self):
        # RK4_STEPS = 40 steps, t_max = 0.0751 at a max outflow of 526, as
        # the tool's main runs them: more than one block, so the block's
        # saved start is in the reading.  They raised a fresh interpreter's
        # peak RSS by 8.2 MB: RK4's assembly, its step data hA and the one
        # copy hA/3 (2.6 MB each), two stage buffers and the saved start.
        # One more DIA-sized array read 10.1 MB at four steps
        args = cli._preset_args("fig4a", grid=(256, 256))
        cfg = cli._mazer_config(args, args.g_ratio)
        outflow = _RateGenerator(cfg, build_gain_table(cfg)).max_outflow()
        code = (f"import math, runpy; tool = runpy.run_path({str(TOOLS / 'solver_memory.py')!r}); "
                f"t_max = (tool['RK4_STEPS'] - 0.5) / {outflow!r}; "
                f"print(math.ceil(t_max * {outflow!r}), tool['measure_rk4'](256, t_max))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        steps, rise = done.stdout.split()[-2:]
        assert int(steps) > _RK4_BLOCK
        assert float(rise) < 9.0

    def test_reports_the_tail_leak_of_the_direct_solve(self):
        # both solvers report the leak rate of their p; here RK4 stops at
        # |dP/dt| = 1.28e-10, whose in-grid part is below 1e-10, and its leak
        # is 9.9e-10 away, relative
        res = rk4_steady_state(self.LEAKY, t_max=200.0, tol=1e-10)
        leak = direct_steady_state(self.LEAKY).dist.tail_leak
        assert leak > 1e-11
        assert res.dist.tail_leak == pytest.approx(leak, rel=1e-8, abs=0.0)


class TestDirectSteadyState:
    def test_solves_through_master_spla(self, monkeypatch):
        # the factorisation is looked up on master.spla at each call, so a
        # tracer's wrapper set there sees every one
        import cascade_mazer.master as master

        calls = []
        factorize = master.spla.splu

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return factorize(*args, **kwargs)

        monkeypatch.setattr(master.spla, "splu", counted)
        direct_steady_state(config(beam=SILENT_BEAM, n=10))
        assert calls == [(100, 100)]

    def test_damped_empty_cavity(self):
        res = direct_steady_state(config(beam=SILENT_BEAM, n=10))
        want = np.zeros((10, 10))
        want[0, 0] = 1.0
        assert np.abs(res.dist.p - want).sum() < 1e-12
        assert res.method == "direct"

    def test_thermal_baths_give_product_geometric(self):
        cfg = MazerConfig(r_over_c=50.0, nb1=1.0, nb2=0.5, beam=SILENT_BEAM,
                          n1_max=24, n2_max=24)
        res = direct_steady_state(cfg)
        p1, p2 = marginals(res.dist)
        assert np.abs(p1 - thermal(1.0, 24)).sum() < 1e-12
        assert np.abs(p2 - thermal(0.5, 24)).sum() < 1e-12

    def test_rejects_oversized_grid(self):
        with pytest.raises(ValueError, match="--method rk4"):
            direct_steady_state(config(n=300))

    def test_pins_a_vacuum_whose_outflow_is_subnormal(self):
        # the gain at kappa_l = 1e-160 is 5e-322: pinned with that pivot, whose
        # reciprocal overflows, SuperLU read the system as singular
        beam = CavityBeam(k_ratio=1.0, kappa_l=1e-160, gamma=0.0)
        p = direct_steady_state(config(beam=beam, r=0.1, n=6)).dist.p
        assert p[0, 0] == 1.0 and 0.0 < p[1, 0] < 1e-300

    def test_singular_pinned_system_is_a_solver_error(self):
        # state (1, 1) made absorbing: its column of the generator is empty, so
        # SuperLU finds the pinned system exactly singular
        gen = _RateGenerator(config(beam=SILENT_BEAM, n=4), zero_gains(4))
        data = gen.matrix.data.copy()
        data[:, 5] = 0.0
        gen.matrix = sp.dia_matrix((data, gen.matrix.offsets), shape=gen.matrix.shape)
        with pytest.raises(SolverError, match="generator looks singular.*method='rk4'"):
            _pinned_solve(*_pinned_system(gen), gen.shape)

    def test_finalize_zeroes_round_off_negatives_and_refuses_larger_ones(self):
        # a silent beam and empty baths leak nothing, so only the negative entry
        # decides; both solvers hand their p to _finalize
        gen = _RateGenerator(config(beam=SILENT_BEAM, n=6), zero_gains(6))
        p = JointDistribution.vacuum(6, 6).p
        p[2, 3] = -5e-10
        dist = _finalize(gen, p.copy())
        assert same_bits(dist.p, JointDistribution.vacuum(6, 6).p)
        assert dist.tail_leak == 0.0
        p[2, 3] = -2e-9
        with pytest.raises(SolverError, match=r"beyond roundoff \(min -2\.000e-09\)"):
            _finalize(gen, p)

    def test_solver_peak_memory_at_fig4a_256(self):
        # SuperLU's work arrays grow with its panel width: in a fresh
        # interpreter one solve raised the peak RSS by 71.9 MB with panels of
        # 20 columns and by 50.7 MB with panels of 1
        code = (f"import runpy; measure = runpy.run_path({str(TOOLS / 'solver_memory.py')!r})"
                "['measure']; print(measure(256)['rise_mb'])")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout.split()[-1]) < 61.0

    def test_whole_solve_peak_memory_at_fig6_256(self):
        # one direct_steady_state call raised a fresh interpreter's peak RSS
        # by 65.9-66.0 MB with the pinned system written column by column and
        # no generator live while SuperLU factors, against 68.4-68.5 MB with
        # the system built through a COO beside the live generator
        code = (f"import runpy; tool = runpy.run_path({str(TOOLS / 'solver_memory.py')!r}); "
                "print(tool['DIRECT_PRESET'], tool['measure_direct'](256))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        preset, rise = done.stdout.split()[-2:]
        assert preset == "fig6"
        assert float(rise) < 67.0

    # fig4a's beam with every rate scaled by s, whose steady state does not
    # depend on s: at 46^2 the leak is 1.036e-6 u at every s, above the
    # gate, and at 48^2 it is 2.05e-7 u, below it
    @pytest.mark.parametrize("n, refused", [(46, True), (48, False)])
    def test_verdict_does_not_depend_on_the_unit_of_the_rates(self, n, refused):
        solved = []
        for s in (1e-10, 1.0, 1e5):
            cfg = config(r=50.0 * s, n=n, c1_over_c=s, c2_over_c=s)
            if refused:
                with pytest.raises(TruncationError, match=r"^tail leak \S+ = 1\.036e-06 u "
                                   r"exceeds 1e-06 u, with u = min\(c1_over_c, c2_over_c\) = "):
                    direct_steady_state(cfg)
            else:
                res = direct_steady_state(cfg)
                assert res.dist.tail_leak / s == pytest.approx(2.0525e-7, rel=1e-4)
                solved.append(res.dist.p)
        for p in solved:
            assert np.abs(p - solved[1]).sum() < 1e-14

    def test_undersized_grid_fails_loudly(self):
        # mean occupation ~16 cannot fit an 8x8 grid: the stationary leak is
        # the residual, and it is reported as a truncation
        with pytest.raises(TruncationError, match="enlarge the photon grid"):
            direct_steady_state(config(n=8))

    def test_agrees_with_time_stepping(self):
        cfg = config(r=10.0, n=32)
        a = rk4_steady_state(cfg)
        b = direct_steady_state(cfg)
        assert np.abs(a.dist.p - b.dist.p).sum() < 1e-8

    # (r/C, nb, k/kappa, gamma, the smallest exact entry is below this)
    @pytest.mark.parametrize("r, nb, k_ratio, gamma, floor", [
        (1e-4, 0.0, 0.01, 2.0, 1e-40),
        (0.5, 0.3, 1.1, 1.0, 1e-7),
        (1e-5, 0.0, 100.0, 0.5, 1e-50),
    ])
    def test_pinned_solve_matches_exact_arithmetic(self, r, nb, k_ratio, gamma, floor):
        beam = CavityBeam(k_ratio=k_ratio, kappa_l=20000.0 * math.pi, gamma=gamma)
        cfg = MazerConfig(r_over_c=r, nb1=nb, nb2=nb, beam=beam, n1_max=9, n2_max=8,
                          c1_over_c=0.8, c2_over_c=1.3)
        gains = build_gain_table(cfg)
        want = exact_pinned_solve(cfg, gains)
        assert want.min() < floor
        gen = _RateGenerator(cfg, gains)
        got = _pinned_solve(*_pinned_system(gen), gen.shape)
        # every entry to its own relative precision, the far tail included
        assert np.max(np.abs(got - want) / want) < 1e-12
        if nb == 0.0:  # nb = 0.3 does not fit a 9x8 grid's truncation gate
            assert np.array_equal(direct_steady_state(cfg, gains=gains).dist.p, got)

    # the pinned solve checked against exact arithmetic on random small grids,
    # which the leaf size cuts at several dissection levels
    @settings(max_examples=45, deadline=None, derandomize=True)
    @given(
        n1=st.integers(2, 9), n2=st.integers(2, 9),
        r=decades(-3, 1.5), nb=st.just(0.0) | decades(-2, 0.5),
        c1=decades(-0.7, 0.7), c2=decades(-0.7, 0.7),
        gamma=st.just(0.0) | decades(-1, 1), k_ratio=decades(-2, 2),
    )
    def test_pinned_solve_matches_exact_arithmetic_at_random(
        self, n1, n2, r, nb, c1, c2, gamma, k_ratio
    ):
        beam = CavityBeam(k_ratio=k_ratio, kappa_l=20000.0 * math.pi, gamma=gamma)
        cfg = MazerConfig(r_over_c=r, nb1=nb, nb2=nb, beam=beam, n1_max=n1, n2_max=n2,
                          c1_over_c=c1, c2_over_c=c2)
        gains = build_gain_table(cfg)
        want = exact_pinned_solve(cfg, gains)
        gen = _RateGenerator(cfg, gains)
        got = _pinned_solve(*_pinned_system(gen), gen.shape)
        # entry by entry; states the pump and baths never reach are exactly zero
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    # (nb, gamma, c2/C, kappa L, holes, diagonals): six diagonals, five
    # without the up-flows, five without the pair gain, unequal damping, a
    # silent beam with no up-flows, whose three diagonals give the vacuum no
    # outflow, so its pin has scale 1 and its non-zeros have no (0, 0) entry,
    # and a hand-made gain table with exact zeros inside the grid, which the
    # build drops entry by entry away from the edges too.  Each id names the
    # case's (nb, gamma, c2/C).
    @pytest.mark.parametrize("nb, gamma, c2, kappa_l, holes, diagonals", [
        pytest.param(0.3, 2.0, 1.0, 20000.0 * math.pi, False, 6, id="0.3-2.0-1.0"),
        pytest.param(0.0, 2.0, 1.0, 20000.0 * math.pi, False, 5, id="0.0-2.0-1.0"),
        pytest.param(0.3, 0.0, 1.0, 20000.0 * math.pi, False, 5, id="0.3-0.0-1.0"),
        pytest.param(0.2, 1.0, 0.6, 20000.0 * math.pi, False, 6, id="0.2-1.0-0.6"),
        pytest.param(0.0, 2.0, 1.0, 0.0, False, 3, id="silent"),
        pytest.param(0.0, 2.0, 1.0, 20000.0 * math.pi, True, 5, id="pair-zeros"),
    ])
    @pytest.mark.parametrize("shape", [(9, 14), (2, 300), (16, 16)])
    def test_pinned_system_matches_parent_construction(
        self, shape, nb, gamma, c2, kappa_l, holes, diagonals
    ):
        beam = CavityBeam(k_ratio=0.5, kappa_l=kappa_l, gamma=gamma)
        cfg = MazerConfig(r_over_c=0.3, nb1=nb, nb2=nb, beam=beam, n1_max=shape[0],
                          n2_max=shape[1], c2_over_c=c2)
        gains = build_gain_table(cfg)
        if holes:
            # about a third of each gain exactly zero, the interior included;
            # at nb = 0 the pair and one-photon diagonals hold the gains alone
            rng = np.random.default_rng(shape[0] * shape[1])
            g_b1, g_b2 = (np.where(rng.random(shape) < 0.3, 0.0, rng.random(shape))
                          for _ in range(2))
            assert not g_b2[:-1, 1:-2].all()
            gains = GainTable(g_b1=g_b1, g_b2=g_b2)
        gen = _RateGenerator(cfg, gains)
        assert len(gen.matrix.offsets) == diagonals
        want, want_rhs = parent_pinned_system(gen.matrix, shape)
        got, rhs = _pinned_system(gen)
        assert got.format == "csc"
        for name in ("indptr", "indices", "data"):
            got_array, want_array = getattr(got, name), getattr(want, name)
            assert got_array.dtype == want_array.dtype, name
            assert np.array_equal(got_array, want_array), name
        assert np.array_equal(rhs, want_rhs)

    def test_dissection_order_is_cached_read_only(self):
        cached = _dissection(7, 5)
        assert _dissection(7, 5) is cached
        order, position = cached
        assert np.array_equal(position[order], np.arange(35))
        for cached in (order, position):
            assert cached.dtype == np.int32
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1

    def test_solves_after_another_shape_repeat_bit_for_bit(self):
        def solve(n1, n2):
            cfg = MazerConfig(r_over_c=2.0, nb1=0.1, nb2=0.1, beam=PLATEAU_BEAM,
                              n1_max=n1, n2_max=n2, c1_over_c=0.8)
            return direct_steady_state(cfg).dist.p

        first = solve(24, 24)
        solve(20, 28)
        assert np.array_equal(solve(24, 24), first)

    def test_dissection_fill_at_fig4a_128(self):
        # L+U fill of the pinned fig4a system in the dissection order: 0.93 M
        # with leaves of 16 states, 1.11 M with leaves of 64
        cfg = config(n=128)
        gen = _RateGenerator(cfg, build_gain_table(cfg))
        pinned, _ = _pinned_system(gen)
        lu = spla.splu(pinned, permc_spec="NATURAL")
        assert lu.L.nnz + lu.U.nnz <= 950_000

    def test_dissection_leaves_no_reference_cycle(self):
        # a self-referencing closure would keep every block view alive until
        # the cyclic collector runs: about 1.3 MB at 256^2
        gc.collect()
        gc.disable()
        try:
            _dissection.__wrapped__(64, 64)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("shape", [(2, 2), (2, 300), (3, 7), (9, 14), (256, 256)])
    def test_dissection_order_is_a_permutation(self, shape):
        order, _ = _dissection(*shape)
        assert np.array_equal(np.sort(order), np.arange(shape[0] * shape[1]))

    def test_two_photon_pump_is_label_symmetric(self):
        # with the one-photon channel off and the plateau gains symmetrized,
        # nothing distinguishes the two modes
        n = 48
        cfg = config(n=n)
        uc = np.array(
            [[ultracold_approx(2.0, i, j).p_two for j in range(n)] for i in range(n)]
        )
        gains = GainTable(g_b1=np.zeros((n, n)), g_b2=cfg.r_over_c * 0.5 * (uc + uc.T))
        res = direct_steady_state(cfg, gains=gains)
        assert np.abs(res.dist.p - res.dist.p.T).sum() < 1e-8


class TestDetailedBalanceOracle:
    def test_requires_decoupled_mode_two(self):
        with pytest.raises(ValueError):
            twolevel_detailed_balance(config())

    def test_silent_cavity_reduces_to_thermal(self):
        beam = CavityBeam(k_ratio=0.01, kappa_l=0.0, gamma=0.0)
        cfg = MazerConfig(r_over_c=50.0, nb1=0.8, nb2=0.3, beam=beam,
                          n1_max=20, n2_max=16)
        p1, p2 = twolevel_detailed_balance(cfg)
        assert np.abs(p1 - thermal(0.8, 20)).sum() < 1e-12
        assert np.abs(p2 - thermal(0.3, 16)).sum() < 1e-12

    def test_satisfies_the_balance_recursion(self):
        beam = CavityBeam(k_ratio=0.01, kappa_l=40000.0 * math.pi / math.sqrt(2.0),
                          gamma=0.0)
        cfg = MazerConfig(r_over_c=50.0, nb1=0.3, nb2=0.0, beam=beam,
                          n1_max=48, n2_max=4)
        p1, p2 = twolevel_detailed_balance(cfg)
        # rebuild the distribution from the pairwise-balance ratio
        gain = [
            cfg.r_over_c * gain_probabilities(beam.with_photons(m, 0)).p_one
            for m in range(48)
        ]
        q = np.ones(48)
        for m in range(1, 48):
            q[m] = q[m - 1] * (cfg.nb1 * m + gain[m - 1]) / ((cfg.nb1 + 1.0) * m)
        q /= q.sum()
        assert np.abs(p1 - q).sum() < 1e-12
        assert p2 == pytest.approx(thermal(0.0, 4), abs=1e-15)

    def test_rescales_instead_of_overflowing(self):
        # each step multiplies P(n) by about 1e120
        beam = CavityBeam(k_ratio=0.01, kappa_l=20000.0 * math.pi, gamma=0.0)
        cfg = MazerConfig(r_over_c=50.0, nb1=0.0, nb2=0.0, beam=beam,
                          n1_max=8, n2_max=2, c1_over_c=2.4e-120)
        for p in twolevel_detailed_balance(cfg):
            assert np.all(np.isfinite(p))
            assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_ratio_beyond_double_range_fails_loudly(self):
        beam = CavityBeam(k_ratio=0.01, kappa_l=20000.0 * math.pi, gamma=0.0)
        cfg = MazerConfig(r_over_c=50.0, nb1=0.0, nb2=0.0, beam=beam,
                          n1_max=8, n2_max=2, c1_over_c=1e-310)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows double"):
                twolevel_detailed_balance(cfg)

    def test_overflowing_beam_is_named(self):
        # the gains come out nan; the error names the beam, with no numpy
        # warning before it
        beam = CavityBeam(k_ratio=1e200, kappa_l=20000.0 * math.pi, gamma=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"CavityBeam\(k_ratio=1e\+200.*bring k_ratio, "
                                                  r"kappa_l and gamma to a physical scale$"):
                twolevel_detailed_balance(config(beam=beam, n=4))

    def test_matches_integrated_steady_state(self):
        beam = CavityBeam(k_ratio=0.01, kappa_l=40000.0 * math.pi / math.sqrt(2.0),
                          gamma=0.0)
        cfg = MazerConfig(r_over_c=20.0, nb1=0.0, nb2=0.0, beam=beam,
                          n1_max=40, n2_max=4)
        p1, p2 = twolevel_detailed_balance(cfg)
        res = direct_steady_state(cfg)
        m1, m2 = marginals(res.dist)
        assert np.abs(p1 - m1).sum() < 1e-6
        assert np.abs(p2 - m2).sum() < 1e-10


class TestFluxBalance:
    # k/kappa = 1.1 gives one-photon fluxes comparable to the pair flux
    @pytest.mark.parametrize("nb", [0.0, 0.3])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
    def test_both_solvers_balance_each_mode(self, gamma, nb):
        beam = CavityBeam(k_ratio=1.1, kappa_l=20000.0 * math.pi, gamma=gamma)
        cfg = MazerConfig(r_over_c=4.0, nb1=nb, nb2=nb, beam=beam, n1_max=32,
                          n2_max=32, c1_over_c=0.8, c2_over_c=1.3)
        gains = build_gain_table(cfg)
        solved = direct_steady_state(cfg, gains=gains)
        assert max(map(abs, flux_balance(cfg, gains, solved.dist.p))) < 1e-12
        stepped = rk4_steady_state(cfg, tol=1e-11, gains=gains)
        bound = (cfg.n1_max - 1) * stepped.residual + 1e-12
        assert max(map(abs, flux_balance(cfg, gains, stepped.dist.p))) < bound

    def test_one_photon_flux_splits_the_equal_coupling_means(self):
        # fig4b: with nb = 0 and equal damping the two balances subtract to
        # <n1> - <n2> = sum g_b1 P, the gap criterion 4 measures
        beam = CavityBeam(k_ratio=0.01, kappa_l=20000.0 * math.pi, gamma=1.0)
        cfg = config(beam=beam, n=128)
        gains = build_gain_table(cfg)
        p = direct_steady_state(cfg, gains=gains).dist.p
        n = np.arange(128)
        gap = n @ p.sum(axis=1) - n @ p.sum(axis=0)
        assert gap > 0.1
        assert abs(gap - (gains.g_b1 * p).sum()) < 1e-12


@st.composite
def small_configs(draw, gamma=None, side=12):
    """Random configs with c1 != c2 on grids from 6^2 up to side^2, which most of them fit."""
    if gamma is None:
        gamma = draw(st.just(0.0) | decades(-1, 1))
    nb = draw(st.just(0.0) | decades(-3, -1.3))
    beam = CavityBeam(k_ratio=draw(decades(-2, 2)), kappa_l=draw(st.floats(0.0, 300.0)),
                      gamma=gamma)
    c1, c2 = draw(st.lists(decades(-0.3, 0.3), min_size=2, max_size=2, unique=True))
    return MazerConfig(
        r_over_c=draw(decades(-2, -0.3)), nb1=nb, nb2=nb, beam=beam,
        n1_max=draw(st.integers(6, side)), n2_max=draw(st.integers(6, side)),
        c1_over_c=c1, c2_over_c=c2,
    )


def solve_if_it_fits(cfg: MazerConfig, gains: GainTable):
    """The direct solve, or a skipped example where the grid is too small for it."""
    try:
        return direct_steady_state(cfg, gains=gains)
    except TruncationError:
        assume(False)


class TestOracleProperties:
    """The independent oracles as properties of small random configs."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=small_configs(side=24))
    def test_direct_solve_balances_both_first_moments(self, cfg):
        gains = build_gain_table(cfg)
        p = solve_if_it_fits(cfg, gains).dist.p
        # each residual is a difference of fluxes of at most a few units
        assert max(map(abs, flux_balance(cfg, gains, p))) < 1e-13

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(cfg=small_configs())
    def test_direct_solve_agrees_with_time_stepping(self, cfg):
        gains = build_gain_table(cfg)
        solved = solve_if_it_fits(cfg, gains)
        stepped = rk4_steady_state(cfg, tol=1e-11, gains=gains)
        # damping rates >= 0.5 relax p to within a few residuals of the fixed
        # point; what leaks on the way is gone from p, about model_time (under
        # 50 here) times the leak rate
        distance = np.abs(stepped.dist.p - solved.dist.p).sum()
        assert distance < 1e-9 + 50.0 * solved.dist.tail_leak

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(cfg=small_configs())
    def test_time_stepping_balances_both_first_moments(self, cfg):
        gains = build_gain_table(cfg)
        try:
            stepped = rk4_steady_state(cfg, tol=1e-11, gains=gains)
        except SolverError:
            assume(False)
        # each residual is -sum n (A p), so at most max(n) |A p|_1
        bound = (max(cfg.n1_max, cfg.n2_max) - 1) * stepped.residual + 1e-12
        assert max(map(abs, flux_balance(cfg, gains, stepped.dist.p))) <= bound

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=small_configs())
    def test_default_step_keeps_the_one_step_map_nonnegative(self, cfg):
        # R(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 at RK4's default
        # h = 1 / max outflow, built densely in the stepper's Horner form
        gen = _RateGenerator(cfg, build_gain_table(cfg))
        ha = gen.matrix.toarray() / gen.max_outflow()
        eye = np.eye(ha.shape[0])
        one_step = eye
        for divisor in (4.0, 3.0, 2.0, 1.0):
            one_step = eye + ha @ one_step / divisor
        assert one_step.min() >= -1e-15

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=small_configs(gamma=0.0, side=24))
    def test_decoupled_direct_solve_matches_detailed_balance(self, cfg):
        gains = build_gain_table(cfg)
        solved = solve_if_it_fits(cfg, gains)
        want1, want2 = twolevel_detailed_balance(cfg)
        got1, got2 = marginals(solved.dist)
        # the pinned solve carries the leak through every mode-1 step, where
        # detailed balance has none; 12^2 grids show up to about 10 leaks
        bound = 1e-12 + 100.0 * solved.dist.tail_leak
        assert np.abs(got1 - want1).sum() < bound
        assert np.abs(got2 - want2).sum() < bound


class TestRk4Blocks:
    """rk4_steady_state checks its stop and guards once per block of _RK4_BLOCK
    steps and steps again, one check per step, through the block where one
    fires; every result and error text must be the per-step reference's."""

    @staticmethod
    def same_as_reference(cfg, gains=None, **settings):
        gains = build_gain_table(cfg) if gains is None else gains
        want = rk4_outcome(parent_rk4_steady_state, cfg, gains, **settings)
        assert rk4_outcome(rk4_steady_state, cfg, gains, **settings) == want
        return want

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cfg=small_configs(), tol=decades(-12, -6))
    def test_random_configs_match_the_per_step_reference(self, cfg, tol):
        self.same_as_reference(cfg, t_max=200.0, tol=tol)

    # (config, tol, where the reference stops within its block of 32 steps)
    @pytest.mark.parametrize("cfg, tol, in_block", [
        pytest.param(config(beam=SILENT_BEAM, n=12), 1e-12, 0, id="silent-stops-at-step-0"),
        pytest.param(TestRk4SteadyState.FLOORED, 1e-8, 0, id="floored-first-step"),
        pytest.param(config(r=1.0, nb=0.1, n=16), 5.62e-7, 0, id="thermal-first-step"),
        pytest.param(TestRk4SteadyState.LEAKY, 1.78e-7, 31, id="leaky-last-step"),
        pytest.param(config(r=2.0, n=12), 5.62e-11, 31, id="plateau-last-step"),
    ])
    def test_stops_at_the_edges_of_a_block(self, cfg, tol, in_block):
        iterations = self.same_as_reference(cfg, t_max=200.0, tol=tol)[0]
        assert iterations % _RK4_BLOCK == in_block
        assert iterations == 0 or iterations > _RK4_BLOCK

    # whole blocks run while start + _RK4_BLOCK < steps: t_max ends on a
    # block's last step or on the first step after it, or inside a block
    # (107 steps is LEAKY's t_max = 5)
    @pytest.mark.parametrize("steps", [32, 33, 64, 65, 107])
    @pytest.mark.parametrize("cfg", [
        pytest.param(TestRk4SteadyState.LEAKY, id="leaky"),
        pytest.param(config(r=2.0, n=12), id="plateau"),
    ])
    def test_t_max_inside_a_block(self, cfg, steps):
        gains = build_gain_table(cfg)
        t_max = (steps - 0.5) / _RateGenerator(cfg, gains).max_outflow()
        error, text = self.same_as_reference(cfg, gains, t_max=t_max, tol=1e-10)
        assert error is ConvergenceError and text.startswith("|dP/dt| = ")

    def test_negative_p_from_a_corrupted_rate(self):
        # a negative one-photon rate, set after GainTable has checked its
        # rates; p goes negative beyond round-off at step 43, in the second block
        cfg = config(r=2.0, n=12)
        gains = build_gain_table(cfg)
        gains.g_b1[10, 5] = -20.0
        error, text = self.same_as_reference(cfg, gains, t_max=200.0, tol=1e-10)
        assert error is SolverError
        assert re.match(r"distribution went negative \(min -1\.054e-09\) at t = 1\.943, ", text)

    def test_mass_drift_of_a_leaking_grid(self):
        cfg = MazerConfig(r_over_c=0.3, nb1=0.0, nb2=0.0, beam=TestRk4SteadyState.FLOORED.beam,
                          n1_max=6, n2_max=12, c1_over_c=0.5, c2_over_c=1.3)
        error, text = self.same_as_reference(cfg, t_max=1000.0, tol=1e-10)
        assert error is TruncationError
        assert re.match(r"probability mass drifted to .* at t = 4\.19", text)

    def test_residual_at_its_round_off_floor(self):
        # fig4a's beam with every rate scaled by 1e3: |dP/dt| stalls at its
        # round-off floor above tol, and a block's end residual first rises
        # at step 2 112, long before t_max
        s = 1e3
        cfg = MazerConfig(r_over_c=5.0 * s, nb1=0.0, nb2=0.0, beam=PLATEAU_BEAM,
                          n1_max=32, n2_max=32, c1_over_c=s, c2_over_c=s)
        error, text = self.same_as_reference(cfg, t_max=500.0 / s, tol=1e-12)
        assert error is ConvergenceError
        assert text.startswith("|dP/dt| = 6.559e-12 after t_max = 0.5, ")
