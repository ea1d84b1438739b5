"""Pump-damping rate equation on the truncated photon grid."""

import gc
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascade_mazer.master import (
    ConvergenceError,
    GainTable,
    JointDistribution,
    MazerConfig,
    StabilityError,
    TruncationError,
    apply_generator,
    build_gain_table,
    direct_steady_state,
    rk4_steady_state,
    twolevel_detailed_balance,
    _RateGenerator,
    _dissection,
    _pinned_solve,
    _pinned_system,
)
from cascade_mazer.scattering import CavityBeam, gain_probabilities, ultracold_approx
from cascade_mazer.stats import marginals

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


def reference_rk4(cfg, gains, dt, t_max, tol):
    """Textbook fixed-step RK4 from the vacuum on the reference flows."""
    flows = ReferenceFlows(cfg, gains)
    p = JointDistribution.vacuum(cfg.n1_max, cfg.n2_max).p
    leak = 0.0
    for step in range(math.ceil(t_max / dt)):
        k1, l1 = flows.apply(p)
        if np.abs(k1).sum() < tol:
            return p, leak, step
        k2, l2 = flows.apply(p + dt / 2 * k1)
        k3, l3 = flows.apply(p + dt / 2 * k2)
        k4, l4 = flows.apply(p + dt * k3)
        p = p + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        leak += dt / 6 * (l1 + 2 * l2 + 2 * l3 + l4)
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


class TestRk4SteadyState:
    def test_damped_empty_cavity_relaxes_to_vacuum(self):
        rng = np.random.default_rng(5)
        cfg = config(beam=SILENT_BEAM, n=12)
        p0 = rng.random((12, 12))
        p0 /= p0.sum()
        res = rk4_steady_state(cfg, p0=JointDistribution(p=p0), tol=1e-13)
        want = np.zeros((12, 12))
        want[0, 0] = 1.0
        assert np.abs(res.dist.p - want).sum() < 1e-10
        assert res.method == "rk4"

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
        assert res.iterations > 0
        assert res.residual < 1e-12
        assert 0.0 < res.model_time <= 500.0
        assert res.dist.mass() == pytest.approx(1.0, abs=1e-6)

    def test_large_step_hits_stability_guard(self):
        with pytest.raises(StabilityError):
            rk4_steady_state(config(n=32), dt=1.0)

    def test_short_horizon_fails_loudly(self):
        with pytest.raises(ConvergenceError):
            rk4_steady_state(config(n=32), t_max=0.5)

    def test_undersized_grid_fails_loudly(self):
        # mean occupation ~16 cannot fit an 8x8 grid
        with pytest.raises(TruncationError):
            rk4_steady_state(config(n=8), tol=1e-6, t_max=200.0)

    @pytest.mark.parametrize("name", ["dt", "t_max", "tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_settings(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            rk4_steady_state(config(n=8), **{name: value})

    @pytest.mark.parametrize("name", ["dt", "t_max", "tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_rejects_nonpositive_settings(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            rk4_steady_state(config(n=8), **{name: value})

    # unchecked, the zero grid would "converge" at step 0 to mass 0, and the
    # others fail later as a leaking grid or a too-large step
    @pytest.mark.parametrize("case", ["zero", "double", "negative"])
    def test_rejects_p0_that_is_not_a_distribution(self, case):
        p0 = JointDistribution.vacuum(8, 8).p
        if case == "zero":
            p0[0, 0] = 0.0
        elif case == "double":
            p0 *= 2.0
        else:
            p0[0, 0], p0[1, 0] = 1.5, -0.5
        with pytest.raises(ValueError, match="p0 is not a distribution"):
            rk4_steady_state(config(n=8), p0=JointDistribution(p=p0))

    @pytest.mark.parametrize("tail_leak, message", [
        (math.nan, "must be finite"), (-3.0, "must be >= 0"),
    ])
    def test_rejects_p0_with_a_bad_tail_leak(self, tail_leak, message):
        p0 = JointDistribution.vacuum(8, 8)
        p0.tail_leak = tail_leak
        with pytest.raises(ValueError, match=f"p0.tail_leak {message}"):
            rk4_steady_state(config(n=8), p0=p0)

    def test_matches_textbook_rk4_on_reference_flows(self):
        cfg = MazerConfig(r_over_c=0.3, nb1=0.05, nb2=0.1, beam=PLATEAU_BEAM,
                          n1_max=12, n2_max=10, c1_over_c=0.8, c2_over_c=1.2)
        gains = build_gain_table(cfg)
        dt, t_max, tol = 0.02, 200.0, 1e-10
        p, leak, steps = reference_rk4(cfg, gains, dt, t_max, tol)
        res = rk4_steady_state(cfg, dt=dt, t_max=t_max, tol=tol, gains=gains)
        assert res.iterations == steps > 0
        assert np.abs(res.dist.p - p).max() < 1e-13
        assert leak > 0.0
        assert res.dist.tail_leak == pytest.approx(leak, rel=1e-9, abs=0.0)


class TestDirectSteadyState:
    def test_solves_through_master_spla(self, monkeypatch):
        # the solver is looked up on master.spla at each call, so a wrapper
        # set there (as perfbench's tracer does) sees every solve
        import cascade_mazer.master as master

        calls = []
        solve = master.spla.spsolve

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(master.spla, "spsolve", counted)
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
        got = _pinned_solve(gen)
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
        got = _pinned_solve(gen)
        # entry by entry; states the pump and baths never reach are exactly zero
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    # (nb, gamma, c2/C): six diagonals, five without the up-flows, five
    # without the pair gain, and unequal damping
    @pytest.mark.parametrize("nb, gamma, c2", [
        (0.3, 2.0, 1.0), (0.0, 2.0, 1.0), (0.3, 0.0, 1.0), (0.2, 1.0, 0.6),
    ])
    @pytest.mark.parametrize("shape", [(9, 14), (2, 300), (16, 16)])
    def test_pinned_system_matches_parent_construction(self, shape, nb, gamma, c2):
        beam = CavityBeam(k_ratio=0.5, kappa_l=20000.0 * math.pi, gamma=gamma)
        cfg = MazerConfig(r_over_c=0.3, nb1=nb, nb2=nb, beam=beam, n1_max=shape[0],
                          n2_max=shape[1], c2_over_c=c2)
        gen = _RateGenerator(cfg, build_gain_table(cfg))
        assert len(gen.matrix.offsets) == 6 - (nb == 0.0) - (gamma == 0.0)
        want, want_rhs = parent_pinned_system(gen.matrix, shape)
        got, rhs = _pinned_system(gen)
        assert got.format == "csc"
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(rhs, want_rhs)

    def test_dissection_order_is_cached_read_only(self):
        cached = _dissection(7, 5)
        assert _dissection(7, 5) is cached
        order, position = cached
        assert np.array_equal(position[order], np.arange(35))
        for cached in (order, position):
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
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows double"):
            twolevel_detailed_balance(cfg)

    def test_overflowing_beam_is_named(self):
        # the gains come out nan; the error names the beam, with no numpy
        # warning before it
        beam = CavityBeam(k_ratio=1e200, kappa_l=20000.0 * math.pi, gamma=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"CavityBeam\(k_ratio=1e\+200.*lower k_ratio"):
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
        stepped = rk4_steady_state(cfg, dt=0.01, tol=1e-11, gains=gains)
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
def small_configs(draw, gamma=None):
    """Random configs with c1 != c2 on grids up to 12^2, which most of them fit."""
    if gamma is None:
        gamma = draw(st.just(0.0) | decades(-1, 1))
    nb = draw(st.just(0.0) | decades(-3, -1.3))
    beam = CavityBeam(k_ratio=draw(decades(-2, 2)), kappa_l=draw(st.floats(0.0, 300.0)),
                      gamma=gamma)
    c1, c2 = draw(st.lists(decades(-0.3, 0.3), min_size=2, max_size=2, unique=True))
    return MazerConfig(
        r_over_c=draw(decades(-2, -0.3)), nb1=nb, nb2=nb, beam=beam,
        n1_max=draw(st.integers(6, 12)), n2_max=draw(st.integers(6, 12)),
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
    @given(cfg=small_configs())
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
        # RK4's residual cannot fall below the rate at which it leaks
        assume(solved.dist.tail_leak < 1e-12)
        gen = _RateGenerator(cfg, gains)
        stepped = rk4_steady_state(cfg, dt=1.0 / gen.max_outflow(), tol=1e-11, gains=gains)
        # damping rates >= 0.5 relax p to within a few residuals of the fixed point
        assert np.abs(stepped.dist.p - solved.dist.p).sum() < 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=small_configs(gamma=0.0))
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
