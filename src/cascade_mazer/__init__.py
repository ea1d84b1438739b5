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

``import cascade_mazer`` re-exports the ``__all__`` of ``jc``, ``master``,
``scattering`` and ``stats`` (not ``units`` or ``cli``).  Each public name
is declared once, in the ``__all__`` of the module that defines it.
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

from . import jc, master, scattering, stats  # noqa: E402
from .jc import *  # noqa: E402,F403
from .master import *  # noqa: E402,F403
from .scattering import *  # noqa: E402,F403
from .stats import *  # noqa: E402,F403

__all__ = ["__version__", *jc.__all__, *master.__all__, *scattering.__all__, *stats.__all__]
