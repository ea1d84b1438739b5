"""Timed-transit (classical center-of-mass) emission probabilities."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_mazer.jc import JcInput, g1_tau_from_beam, jc_gain

SQRT5 = math.sqrt(5.0)


class TestValidation:
    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            JcInput(gamma=-1.0, n1=0, n2=0, g1_tau=1.0)
        with pytest.raises(ValueError):
            JcInput(gamma=1.0, n1=0, n2=0, g1_tau=-0.1)
        with pytest.raises(ValueError):
            JcInput(gamma=1.0, n1=-2, n2=0, g1_tau=1.0)

    def test_transit_mapping_needs_moving_atom(self):
        with pytest.raises(ValueError):
            g1_tau_from_beam(10.0, 0.0)

    @pytest.mark.parametrize("k_ratio", [-1.0, math.inf, math.nan])
    def test_transit_mapping_needs_finite_momentum(self, k_ratio):
        with pytest.raises(ValueError, match="k_ratio must be"):
            g1_tau_from_beam(10.0, k_ratio)

    @pytest.mark.parametrize("kappa_l", [-1.0, math.inf, math.nan])
    def test_transit_mapping_needs_finite_length(self, kappa_l):
        with pytest.raises(ValueError, match="kappa_l must be"):
            g1_tau_from_beam(kappa_l, 1.0)

    def test_transit_mapping_names_the_beam_when_it_overflows(self):
        # JcInput refused the inf as g1_tau, an input the emission command lacks
        with pytest.raises(ValueError) as err:
            g1_tau_from_beam(1e10, 1e-300)
        assert str(err.value) == ("g1_tau = kappa_l / (2 k_ratio) overflows at "
                                  "kappa_l=10000000000.0, k_ratio=1e-300; "
                                  "raise k_ratio or lower kappa_l")

    @pytest.mark.parametrize("inp", [
        # gamma^2 is inf, and so is Omega: the gains came out nan
        JcInput(1e160, 0, 0, 0.0),
        # Omega tau is inf, where math.sin raised "math domain error"
        JcInput(2.0, 0, 0, 1e308),
    ])
    def test_overflow_is_named_without_numpy_warnings(self, inp):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                jc_gain(inp)
        assert str(err.value) == f"Omega * g1_tau of {inp} overflows; lower gamma or g1_tau"


def test_transit_time_mapping():
    # tau = L m / (hbar k) and hbar g1 = (hbar kappa)^2 / 2m combine to
    # g1 tau = (kappa L) / (2 k/kappa)
    assert g1_tau_from_beam(2000.0 * math.pi, 100.0) == pytest.approx(
        10.0 * math.pi, rel=1e-15
    )


def test_half_rabi_cycle_is_pure_two_photon():
    # Omega*tau = pi kills the one-photon channel and maximizes the cascade
    g = jc_gain(JcInput(gamma=2.0, n1=0, n2=0, g1_tau=math.pi / SQRT5))
    assert g.p_one < 1e-30
    assert g.p_two == pytest.approx(0.64, abs=1e-12)


def test_full_rabi_cycle_emits_nothing():
    g = jc_gain(JcInput(gamma=2.0, n1=0, n2=0, g1_tau=2.0 * math.pi / SQRT5))
    assert g.p_one < 1e-30
    assert g.p_two < 1e-30


def test_zero_interaction_time():
    g = jc_gain(JcInput(gamma=3.0, n1=2, n2=1, g1_tau=0.0))
    assert g.p_one == 0.0 and g.p_two == 0.0


def test_probabilities_stay_bounded():
    for x in range(200):
        g = jc_gain(JcInput(gamma=2.0, n1=1, n2=0, g1_tau=x * 0.05))
        assert 0.0 <= g.p_one <= 1.0
        assert 0.0 <= g.p_two <= 1.0
        assert g.p_one + g.p_two <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(0.1, 5.0),
    n1=st.integers(0, 10),
    n2=st.integers(0, 10),
    g1_tau=st.floats(0.0, 50.0),
)
def test_one_photon_oscillates_twice_as_fast(gamma, n1, n2, g1_tau):
    # p_one has period pi in Omega*tau while p_two has period 2*pi
    omega = math.sqrt((n1 + 1.0) + gamma * gamma * (n2 + 1.0))
    base = jc_gain(JcInput(gamma=gamma, n1=n1, n2=n2, g1_tau=g1_tau))
    half = jc_gain(
        JcInput(gamma=gamma, n1=n1, n2=n2, g1_tau=g1_tau + math.pi / omega)
    )
    full = jc_gain(
        JcInput(gamma=gamma, n1=n1, n2=n2, g1_tau=g1_tau + 2.0 * math.pi / omega)
    )
    assert half.p_one == pytest.approx(base.p_one, abs=1e-10)
    assert full.p_two == pytest.approx(base.p_two, abs=1e-10)
