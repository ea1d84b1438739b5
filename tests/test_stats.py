"""Marginals, moments and the sub/super-Poissonian classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_mazer.master import JointDistribution, MazerConfig, direct_steady_state
from cascade_mazer.scattering import CavityBeam
from cascade_mazer.stats import classify, marginals, moments


def joint(p: np.ndarray) -> JointDistribution:
    return JointDistribution(p=p)


def test_delta_marginals():
    p = np.zeros((6, 8))
    p[2, 5] = 1.0
    p1, p2 = marginals(joint(p))
    assert p1[2] == 1.0 and p1.sum() == 1.0
    assert p2[5] == 1.0 and p2.sum() == 1.0


def test_product_distribution_splits_exactly():
    rng = np.random.default_rng(1)
    f = rng.random(7)
    f /= f.sum()
    g = rng.random(9)
    g /= g.sum()
    p1, p2 = marginals(joint(np.outer(f, g)))
    assert np.abs(p1 - f).max() < 1e-15
    assert np.abs(p2 - g).max() < 1e-15


def test_marginals_preserve_mass():
    rng = np.random.default_rng(2)
    p = rng.random((11, 13))
    p /= p.sum()
    p1, p2 = marginals(joint(p))
    assert p1.sum() == pytest.approx(p.sum(), abs=1e-12)
    assert p2.sum() == pytest.approx(p.sum(), abs=1e-12)


def test_delta_moments_and_vacuum_label():
    p = np.zeros((5, 5))
    p[3, 0] = 1.0
    m = moments(joint(p))
    assert m.mean1 == 3.0 and m.var1_norm == 0.0 and m.label1 == "sub-Poissonian"
    # mode 2 sits in vacuum: its variance is undefined, reported as 0.0 and labelled
    assert m.mean2 == 0.0 and m.var2_norm == 0.0 and m.label2 == "vacuum"


def test_poisson_marginal_is_poissonian():
    lam = 6.0
    n = np.arange(64)
    w = np.exp(-lam) * lam ** n / np.array([math.factorial(int(i)) for i in n])
    p = np.outer(w, w)
    p /= p.sum()
    m = moments(joint(p))
    assert m.var1_norm == pytest.approx(1.0, abs=1e-9)
    assert m.var2_norm == pytest.approx(1.0, abs=1e-9)
    assert m.mean1 == pytest.approx(lam, abs=1e-9)


def test_thermal_marginal_variance():
    nb = 1.5
    w = (nb / (nb + 1.0)) ** np.arange(400)
    w /= w.sum()
    p = np.outer(w, [1.0])
    m = moments(joint(p))
    assert m.var1_norm == pytest.approx(nb + 1.0, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.integers(2, 40), st.integers(0, 2 ** 31 - 1))
def test_mean_additivity_matches_joint_sum(n1, n2, seed):
    rng = np.random.default_rng(seed)
    p = rng.random((n1, n2))
    p /= p.sum()
    m = moments(joint(p))
    i, j = np.indices((n1, n2))
    joint_mean = float(((i + j) * p).sum())
    assert m.mean1 + m.mean2 == pytest.approx(joint_mean, abs=1e-12)


class TestClassify:
    def test_dead_band_resolves_to_poissonian(self):
        assert classify(1.0) == "Poissonian"
        assert classify(1.0 + 5e-4) == "Poissonian"
        assert classify(1.0 - 5e-4) == "Poissonian"

    def test_outside_dead_band(self):
        assert classify(1.002) == "super-Poissonian"
        assert classify(0.998) == "sub-Poissonian"


def test_equal_coupling_marginals_nearly_coincide():
    # gamma=1 steady state: the two modes are fed identically through the
    # two-photon channel; the residual one-photon background separates the
    # marginals by just over 1e-3 pointwise
    cfg = MazerConfig(
        r_over_c=50.0,
        nb1=0.0,
        nb2=0.0,
        beam=CavityBeam(k_ratio=0.01, kappa_l=20000.0 * math.pi, gamma=1.0),
        n1_max=128,
        n2_max=128,
    )
    p1, p2 = marginals(direct_steady_state(cfg).dist)
    assert np.abs(p1 - p2).max() < 2e-3
