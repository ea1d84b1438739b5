"""Two-mode micromaser pumped by ultracold cascade atoms.

Atoms in the upper state of a three-level cascade cross a bimodal cavity
slowly enough that their center-of-mass motion is quantized.  This package
computes the resulting scattering amplitudes and one/two-photon emission
probabilities, the timed-transit (classical-motion) limit for comparison,
and the steady-state photon statistics of both modes under cavity damping.

numpy loads at the first numerical call, not with the package: the modules
take it as ``from . import _numpy as np``, which is numpy itself when it was
already imported and otherwise a lazy module that becomes numpy on its
first attribute use.  So ``--version``, ``--help``, argument errors and
``units`` start without it.  A plain ``import numpy`` would load it at once,
since the import statement reads the lazy module's ``__spec__``.
"""

import importlib.util
import sys


def _lazy_numpy():
    """numpy, or a module registered as numpy that loads it on first use."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'; cascade_mazer needs it",
                                  name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


_numpy = _lazy_numpy()

__version__ = "0.1.0"

from .jc import JcInput, g1_tau_from_beam, jc_gain
from .master import (
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
)
from .scattering import (
    BranchAmplitudes,
    CavityBeam,
    DressedCoefficients,
    GainProbabilities,
    ScatterChannels,
    ScatterInput,
    branch_amplitudes,
    branch_wavenumbers,
    dressed_coefficients,
    gain_probabilities,
    scatter_channels,
    ultracold_approx,
)
from .stats import MomentSummary, classify, marginals, moments

__all__ = [
    "__version__",
    "BranchAmplitudes",
    "CavityBeam",
    "ConvergenceError",
    "DressedCoefficients",
    "GainProbabilities",
    "GainTable",
    "JcInput",
    "JointDistribution",
    "MazerConfig",
    "MomentSummary",
    "ScatterChannels",
    "ScatterInput",
    "SolverError",
    "SteadyStateResult",
    "TruncationError",
    "apply_generator",
    "branch_amplitudes",
    "branch_wavenumbers",
    "build_gain_table",
    "classify",
    "direct_steady_state",
    "dressed_coefficients",
    "g1_tau_from_beam",
    "gain_probabilities",
    "jc_gain",
    "marginals",
    "moments",
    "rk4_steady_state",
    "scatter_channels",
    "twolevel_detailed_balance",
    "ultracold_approx",
]
