"""Marginals and normalized moments of a joint photon distribution."""

from __future__ import annotations

from dataclasses import dataclass

from . import _numpy as np
from .master import JointDistribution

__all__ = ["MomentSummary", "marginals", "moments", "classify"]

# sigma^2 within this band of 1 is reported as plain Poissonian rather than
# trusting sub-tolerance wiggles of the solver.
DEAD_BAND = 1e-3


@dataclass(frozen=True)
class MomentSummary:
    """Per-mode means, normalized variances sigma^2 = (<n^2>-<n>^2)/<n>, and labels.

    A mode stuck at exactly zero photons has no defined normalized variance;
    it is reported as 0.0 and labelled "vacuum".
    """

    mean1: float
    mean2: float
    var1_norm: float
    var2_norm: float
    label1: str
    label2: str


def marginals(dist: JointDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode photon-number distributions P1(n) and P2(n)."""
    return dist.p.sum(axis=1), dist.p.sum(axis=0)


def _mode_moments(marginal: np.ndarray) -> tuple[float, float, str]:
    n = np.arange(marginal.size)
    mean = float(marginal @ n)
    if mean <= 0.0:
        return 0.0, 0.0, "vacuum"
    second = float(marginal @ (n * n))
    var_norm = (second - mean * mean) / mean
    return mean, var_norm, classify(var_norm)


def moments(dist: JointDistribution) -> MomentSummary:
    """Exact sums over the truncated grid; no tail extrapolation."""
    p1, p2 = marginals(dist)
    mean1, var1, label1 = _mode_moments(p1)
    mean2, var2, label2 = _mode_moments(p2)
    return MomentSummary(mean1=mean1, mean2=mean2, var1_norm=var1, var2_norm=var2,
                         label1=label1, label2=label2)


def classify(var_norm: float) -> str:
    """Label photon statistics from the normalized variance, within DEAD_BAND of 1."""
    if var_norm > 1.0 + DEAD_BAND:
        return "super-Poissonian"
    if var_norm < 1.0 - DEAD_BAND:
        return "sub-Poissonian"
    return "Poissonian"
