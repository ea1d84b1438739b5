"""Peak-memory rise of the assembly, the pinned direct solve and RK4 on large grids.

Run from the root of a checkout:

    python3 tools/solver_memory.py [N ...]

For each N (by default 128, 256, 384 and 512) a fresh interpreter first
builds the fig4a gain table and generator on an N x N grid and reads how far
that raises the process's peak RSS (Linux's `VmHWM`, else `ru_maxrss`),
beside the bytes the two keep.  It then builds the pinned system, lets the
generator go, times one `master._pinned_solve` and reads how far the solve
raises the peak RSS.  A factorisation with the same SuperLU settings, made
after that reading, gives the L+U fill.  `_pinned_solve` does not check
`MAX_DIRECT_STATES` (`direct_steady_state` does), so grids above 256^2 run
too.  A second fresh interpreter runs `rk4_steady_state` on the same grid
for RK4_STEPS steps, by a t_max that ends it with ConvergenceError, and
reads how far that raises the peak RSS: RK4's own assembly, its scaled step
data, its stage buffers and the saved start of a block.  On grids up to
the direct cap a third one reads how far one whole `direct_steady_state`
call on DIRECT_PRESET raises the peak RSS: gain table, assembly, pinned
system, solve and checks.  One grid at a time: 512^2 peaks near 0.5 GB.
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

GRIDS = (128, 256, 384, 512)

# RK4 steps in the memory reading: more than one block of master._RK4_BLOCK
# steps, so that the block's saved start is in it; later steps reuse the buffers.
RK4_STEPS = 40

# The steady preset of the whole-solve reading: fig6's thermal photons turn
# on every flow, so its generator has all six diagonals.
DIRECT_PRESET = "fig6"


def _peak_mb() -> float:
    """This process's peak RSS in MB: Linux's VmHWM, else ru_maxrss.

    Linux keeps ru_maxrss across exec, so in a process started by a larger
    one (a test run under pytest) it holds the starter's peak, and a rise
    read from it comes out too low or zero.  VmHWM starts afresh at exec.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def assemble(preset: str, n: int) -> tuple[master._RateGenerator, dict]:
    """A steady preset's generator on an n x n grid, and how much building it cost.

    assembly_mb is how far building the gain table and the generator raised
    the peak RSS, and kept_mb the bytes of the two tables and the DIA data.
    """
    import scipy.sparse  # noqa: F401  (loaded by a first solve; not part of the reading)

    args = cli._preset_args(preset, grid=(n, n))
    cfg = cli._mazer_config(args, args.g_ratio)
    before = _peak_mb()
    gains = master.build_gain_table(cfg)
    gen = master._RateGenerator(cfg, gains)
    rise = _peak_mb() - before
    kept = gains.g_b1.nbytes + gains.g_b2.nbytes + gen.matrix.data.nbytes
    return gen, {"assembly_mb": rise, "kept_mb": kept / 2**20}


def measure(n: int) -> dict:
    """One fig4a grid's assembly memory, then its solve time, fill and peak RSS rise.

    Call it in a fresh process: the assembly is read first, so that no
    earlier work sets its peak.  The pinned system is built before the
    reading and the generator let go, as direct_steady_state does, so
    rise_mb is the factorisation and solve's own rise past the peak of that
    build, not past the RSS the assembly leaves.  base_mb / rise_mb read
    72.5 / 49.5 at 256^2 and 64.0 / 10.6 at 128^2 (two runs each), against
    78.5 / 51.2 and 65.8 / 10.9 when the system was built through a COO and
    built again inside the solve, beside the live generator.
    test_solver_peak_memory_at_fig4a_256's bound of 61 MB was set on a
    reading with a build before it.
    """
    import scipy.sparse.linalg as spla

    gen, row = assemble("fig4a", n)
    row.update(max_outflow=gen.max_outflow())
    pinned, rhs = master._pinned_system(gen)
    del gen  # as in direct_steady_state, no DIA is live while SuperLU factors
    before = _peak_mb()
    start = time.perf_counter()
    master._pinned_solve(pinned, rhs, (n, n))
    seconds = time.perf_counter() - start
    rise = _peak_mb() - before
    factor = spla.splu(pinned, permc_spec="NATURAL", panel_size=master._SUPERLU_PANEL)
    row.update(n=n, solve_s=seconds, fill=factor.nnz, base_mb=before, rise_mb=rise)
    return row


def measure_rk4(n: int, t_max: float) -> float:
    """How far RK4 on a fig4a n x n grid, stopped at t_max, raises the peak RSS, in MB.

    Call it in a fresh process, with a t_max too short to converge.
    """
    import scipy.sparse  # noqa: F401  (loaded by a first solve; not part of the reading)

    args = cli._preset_args("fig4a", grid=(n, n))
    cfg = cli._mazer_config(args, args.g_ratio)
    before = _peak_mb()
    try:
        master.rk4_steady_state(cfg, t_max=t_max)
    except master.ConvergenceError:
        return _peak_mb() - before
    raise RuntimeError(f"RK4 converged on {n}x{n} within t_max = {t_max:g}")


def measure_direct(n: int) -> float:
    """How far one direct_steady_state call on DIRECT_PRESET n x n raises the peak RSS, in MB.

    Call it in a fresh process.
    """
    import scipy.sparse.linalg  # noqa: F401  (loaded by a first solve; not part of the reading)

    args = cli._preset_args(DIRECT_PRESET, grid=(n, n))
    cfg = cli._mazer_config(args, args.g_ratio)
    before = _peak_mb()
    master.direct_steady_state(cfg)
    return _peak_mb() - before


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("grids", nargs="*", type=int, default=GRIDS,
                        help="grid sides to measure (default: %(default)s)")
    args = parser.parse_args()
    print(f"{'grid':>9} {'asm MB':>7} {'kept MB':>8} {'solve s':>8} {'L+U fill':>10} "
          f"{'base MB':>8} {'rise MB':>8} {'rk4 MB':>7} {'direct MB':>9}")
    spawn = multiprocessing.get_context("spawn")
    for n in args.grids:
        # a fresh interpreter per grid, so no earlier solve sets its peak
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            row = pool.submit(measure, n).result()
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            # RK4 takes ceil(t_max / dt) steps of dt = 1 / max outflow
            t_max = (RK4_STEPS - 0.5) / row["max_outflow"]
            rk4_mb = pool.submit(measure_rk4, n, t_max).result()
        direct = "-"
        if n * n <= master.MAX_DIRECT_STATES:
            with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
                direct = f"{pool.submit(measure_direct, n).result():.1f}"
        print(f"{n:>4}x{n:<4} {row['assembly_mb']:7.1f} {row['kept_mb']:8.1f} "
              f"{row['solve_s']:8.3f} {row['fill']:10d} {row['base_mb']:8.1f} "
              f"{row['rise_mb']:8.1f} {rk4_mb:7.1f} {direct:>9}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
