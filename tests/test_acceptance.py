"""Acceptance report: one test per published claim, printed as it runs.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Each
test measures the quantity, prints a [PASS]/[FAIL] line with the numbers,
then asserts, so the transcript doubles as the verification report.
"""

import math
import time

import numpy as np
import pytest

from cascade_mazer.cli import PhysicalScale, physical_scale, run_preset
from cascade_mazer.jc import JcInput, g1_tau_from_beam, jc_gain
from cascade_mazer.master import (
    MazerConfig,
    direct_steady_state,
    rk4_steady_state,
    twolevel_detailed_balance,
)
from cascade_mazer.scattering import (
    CavityBeam,
    ScatterInput,
    branch_amplitudes,
    gain_probabilities,
    scatter_channels,
)
from cascade_mazer.stats import marginals, moments


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def fig_config(gamma: float, k_ratio: float = 0.01, nb: float = 0.0,
               grid: int = 128) -> MazerConfig:
    return MazerConfig(
        r_over_c=50.0,
        nb1=nb,
        nb2=nb,
        beam=CavityBeam(k_ratio=k_ratio, kappa_l=20000.0 * math.pi, gamma=gamma),
        n1_max=grid,
        n2_max=grid,
    )


@pytest.fixture(scope="module")
def fig4a_table():
    return run_preset("fig4a")


@pytest.fixture(scope="module")
def fig4b_table():
    return run_preset("fig4b")


def table_marginals(table) -> tuple[np.ndarray, np.ndarray]:
    p1 = np.array([row[1] for row in table.rows])
    p2 = np.array([row[2] for row in table.rows])
    return p1, p2


def test_criterion_1_randomized_conservation_laws():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    worst_flux = 0.0
    worst_unitarity = 0.0
    for _ in range(10_000):
        inp = ScatterInput(
            k_ratio=10.0 ** rng.uniform(-3.0, 3.0),
            kappa_l=rng.uniform(0.0, 1e5),
            gamma=rng.uniform(0.0, 10.0),
            n1=int(rng.integers(0, 51)),
            n2=int(rng.integers(0, 51)),
        )
        amp = branch_amplitudes(inp)
        for rho, tau in ((amp.rho_plus, amp.tau_plus), (amp.rho_minus, amp.tau_minus)):
            worst_flux = max(worst_flux, abs(abs(rho) ** 2 + abs(tau) ** 2 - 1.0))
        ch = scatter_channels(inp)
        total = sum(
            abs(c) ** 2 for c in (ch.r_a, ch.t_a, ch.r_b1, ch.t_b1, ch.r_b2, ch.t_b2)
        )
        worst_unitarity = max(worst_unitarity, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_flux < 1e-10 and worst_unitarity < 1e-10 and elapsed < 5.0
    report(1, ok, (
        f"10^4 random inputs, worst flux deviation {worst_flux:.2e}, "
        f"worst unitarity deviation {worst_unitarity:.2e} (bound 1e-10), "
        f"{elapsed:.2f} s (budget 5 s)"
    ))


def test_criterion_2_two_photon_plateau():
    t0 = time.perf_counter()
    gain = gain_probabilities(
        ScatterInput(k_ratio=0.01, kappa_l=20000.0 * math.pi, gamma=2.0, n1=0, n2=0)
    )
    elapsed = time.perf_counter() - t0
    ok = abs(gain.p_two - 0.32) <= 0.01 and gain.p_one < 0.01 and elapsed < 1.0
    report(2, ok, (
        f"p_two = {gain.p_two:.6f} (want 0.32 +/- 0.01), "
        f"p_one = {gain.p_one:.2e} (< 0.01), {elapsed:.3f} s"
    ))


def test_criterion_3_fast_atoms_reach_timed_transit_limit():
    t0 = time.perf_counter()
    worst_one = 0.0
    worst_two = 0.0
    for length in np.linspace(0.0, 2000.0 * math.pi, 2000):
        inp = ScatterInput(k_ratio=100.0, kappa_l=float(length), gamma=2.0, n1=0, n2=0)
        gain = gain_probabilities(inp)
        jc = jc_gain(JcInput(
            gamma=2.0, n1=0, n2=0, g1_tau=g1_tau_from_beam(float(length), 100.0)
        ))
        worst_one = max(worst_one, abs(gain.p_one - jc.p_one))
        worst_two = max(worst_two, abs(gain.p_two - jc.p_two))
    elapsed = time.perf_counter() - t0
    ok = worst_one < 2e-2 and worst_two < 2e-2 and elapsed < 10.0
    report(3, ok, (
        f"k/kappa = 100 over 2000 lengths: max |one-photon| diff "
        f"{worst_one:.2e}, max |two-photon| diff {worst_two:.2e} "
        f"(bound 2e-2), {elapsed:.2f} s"
    ))


def test_criterion_4_equal_coupling_is_poissonian(fig4b_table):
    m = fig4b_table.meta["moments"]
    p1, p2 = table_marginals(fig4b_table)
    distance = float(np.abs(p1 - p2).sum())
    means_ok = abs(m["mean1"] - 24.0) <= 2.0 and abs(m["mean2"] - 24.0) <= 2.0
    vars_ok = abs(m["var1_norm"] - 1.0) < 0.1 and abs(m["var2_norm"] - 1.0) < 0.1
    distance_ok = distance < 5e-3
    ok = means_ok and vars_ok and distance_ok
    report(4, ok, (
        f"means {m['mean1']:.3f}/{m['mean2']:.3f} (want 24 +/- 2: "
        f"{'ok' if means_ok else 'FAIL'}), variances {m['var1_norm']:.4f}/"
        f"{m['var2_norm']:.4f} (|v-1| < 0.1: {'ok' if vars_ok else 'FAIL'}), "
        f"marginal 1-norm distance {distance:.3e} (< 5e-3: "
        f"{'ok' if distance_ok else 'FAIL'})"
    ))


def test_criterion_5_coupling_ratio_splits_the_statistics(fig4a_table):
    t0 = time.perf_counter()
    m = fig4a_table.meta["moments"]
    split_ok = m["var1_norm"] > 1.0 + 1e-3 and m["var2_norm"] < 1.0 - 1e-3
    p1_strong, p2_strong = table_marginals(fig4a_table)

    swapped = direct_steady_state(fig_config(gamma=0.5))
    ms = moments(swapped.dist)
    q1, q2 = marginals(swapped.dist)
    swap_ok = ms.var1_norm < 1.0 - 1e-3 and ms.var2_norm > 1.0 + 1e-3
    d12 = float(np.abs(p1_strong - q2).sum())
    d21 = float(np.abs(p2_strong - q1).sum())
    distance_ok = d12 < 5e-2 and d21 < 5e-2
    elapsed = time.perf_counter() - t0
    ok = split_ok and swap_ok and distance_ok and elapsed < 600.0
    report(5, ok, (
        f"gamma=2: variances {m['var1_norm']:.4f}/{m['var2_norm']:.4f} "
        f"(super/sub split: {'ok' if split_ok else 'FAIL'}); gamma=0.5: "
        f"{ms.var1_norm:.4f}/{ms.var2_norm:.4f} (roles swapped: "
        f"{'ok' if swap_ok else 'FAIL'}); swap distances {d12:.3e}/{d21:.3e} "
        f"(< 5e-2: {'ok' if distance_ok else 'FAIL'}), {elapsed:.0f} s"
    ))


def test_criterion_6_decoupled_mode_obeys_detailed_balance():
    t0 = time.perf_counter()
    beam = CavityBeam(
        k_ratio=0.01, kappa_l=40000.0 * math.pi / math.sqrt(2.0), gamma=0.0
    )
    details = []
    ok = True
    for nb in (0.0, 1.0):
        cfg = MazerConfig(r_over_c=50.0, nb1=nb, nb2=nb, beam=beam,
                          n1_max=128, n2_max=128)
        res = rk4_steady_state(cfg)
        p1, p2 = marginals(res.dist)
        b1, b2 = twolevel_detailed_balance(cfg)
        d1 = float(np.abs(p1 - b1).sum())
        d2 = float(np.abs(p2 - b2).sum())
        ok = ok and d1 < 1e-6 and d2 < 1e-10
        details.append(f"nb={nb:g}: mode-1 {d1:.2e} (< 1e-6), mode-2 {d2:.2e} (< 1e-10)")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(6, ok, "; ".join(details) + f", {elapsed:.0f} s (budget 120 s)")


def test_criterion_7_time_stepper_agrees_with_linear_solve():
    t0 = time.perf_counter()
    details = []
    ok = True
    for gamma in (2.0, 1.0):
        cfg = fig_config(gamma=gamma, grid=64)
        # the truncated grid leaks through the gain at its top edge (1.2e-9
        # per unit time for gamma=1 at 64^2); RK4 stops on the in-grid part
        # of |dP/dt|, and the leak is judged by the gate both solvers share
        stepped = rk4_steady_state(cfg, tol=4e-9)
        solved = direct_steady_state(cfg)
        # the stepper's mass deficit is its accumulated leak; compare the
        # distributions at unit mass like-for-like
        a = stepped.dist.p / stepped.dist.mass()
        b = solved.dist.p / solved.dist.mass()
        distance = float(np.abs(a - b).sum())
        ok = ok and distance < 1e-8
        details.append(f"gamma={gamma:g}: 1-norm {distance:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(7, ok, (
        "64x64 grids, " + "; ".join(details)
        + f" (bound 1e-8), {elapsed:.0f} s (budget 300 s)"
    ))


def test_criterion_8_pump_speed_orders_the_modes():
    t0 = time.perf_counter()
    fast = run_preset("fig5").meta["moments"]
    intermediate = run_preset("fig7").meta["moments"]
    # solver accuracy: cross-method agreement is 1e-8 in 1-norm, so means
    # carry at most (N-1)*1e-8; "different" means beyond three times that
    resolvable = 3.0 * 127 * 1e-8
    fast_ok = fast["mean1"] > fast["mean2"]
    gap = abs(intermediate["mean1"] - intermediate["mean2"])
    gap_ok = gap > resolvable
    elapsed = time.perf_counter() - t0
    ok = fast_ok and gap_ok
    report(8, ok, (
        f"fast pump means {fast['mean1']:.3f} > {fast['mean2']:.3f} "
        f"({'ok' if fast_ok else 'FAIL'}); intermediate pump gap {gap:.3f} "
        f"> {resolvable:.1e} ({'ok' if gap_ok else 'FAIL'}), {elapsed:.0f} s"
    ))


def test_criterion_9_physical_scales():
    t0 = time.perf_counter()
    length, temperature, _ = physical_scale(PhysicalScale(), 20000.0 * math.pi, 0.01)
    elapsed = time.perf_counter() - t0
    length_ok = abs(length - 155e-6) <= 0.03 * 155e-6
    temp_ok = 1e-8 <= temperature < 1e-7
    ok = length_ok and temp_ok and elapsed < 1.0
    report(9, ok, (
        f"cavity length {length * 1e6:.1f} um (want 155 +/- 3%: "
        f"{'ok' if length_ok else 'FAIL'}), temperature {temperature:.2e} K "
        f"(order 1e-8: {'ok' if temp_ok else 'FAIL'})"
    ))
