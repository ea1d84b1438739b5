"""Time, L+U fill and peak-memory rise of the pinned direct solve on large grids.

Run from the root of a checkout:

    python3 tools/solver_memory.py [N ...]

For each N (by default 128, 256, 384 and 512) a fresh interpreter builds the
fig4a generator on an N x N grid and its pinned system, then times one
`master._pinned_solve` and reads how far it raises the process's peak RSS
(`ru_maxrss`).  A factorisation with the same SuperLU settings, made after
that reading, gives the L+U fill.  `_pinned_solve` does not check
`MAX_DIRECT_STATES` (`direct_steady_state` does), so grids above 256^2 run
too.  One grid at a time: 512^2 peaks near 0.5 GB.
"""

from __future__ import annotations

import argparse
import multiprocessing
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cascade_mazer import cli, master  # noqa: E402
from cascade_mazer.scattering import CavityBeam  # noqa: E402

GRIDS = (128, 256, 384, 512)


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(n: int) -> dict:
    """One grid's solve time, fill and peak RSS rise, in the calling process."""
    import scipy.sparse.linalg as spla

    params = cli._STEADY_PRESETS["fig4a"]
    beam = CavityBeam(k_ratio=params["k_ratio"], kappa_l=params["kappa_l"],
                      gamma=params["gamma"])
    cfg = master.MazerConfig(r_over_c=50.0, nb1=params["nb"], nb2=params["nb"], beam=beam,
                             n1_max=n, n2_max=n)
    gen = master._RateGenerator(cfg, master.build_gain_table(cfg))
    pinned, _ = master._pinned_system(gen)
    before = _peak_mb()
    start = time.perf_counter()
    master._pinned_solve(gen)
    seconds = time.perf_counter() - start
    rise = _peak_mb() - before
    factor = spla.splu(pinned, permc_spec="NATURAL", panel_size=master._SUPERLU_PANEL)
    return {"n": n, "solve_s": seconds, "fill": factor.nnz, "base_mb": before,
            "rise_mb": rise}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("grids", nargs="*", type=int, default=GRIDS,
                        help="grid sides to measure (default: %(default)s)")
    args = parser.parse_args()
    print(f"{'grid':>9} {'solve s':>8} {'L+U fill':>10} {'base MB':>8} {'rise MB':>8}")
    spawn = multiprocessing.get_context("spawn")
    for n in args.grids:
        # a fresh interpreter per grid, so no earlier solve sets its peak
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            row = pool.submit(measure, n).result()
        print(f"{n:>4}x{n:<4} {row['solve_s']:8.3f} {row['fill']:10d} "
              f"{row['base_mb']:8.1f} {row['rise_mb']:8.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
