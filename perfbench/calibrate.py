"""Reference kernels, sampled while the benchmark runs, that say how fast the
core running the program is at each moment.

On a shared host the same code runs up to about twice as slowly when the
neighbours are busy, in stretches that last from seconds to many minutes,
and the two cores slow separately.  While the benchmark runs, an interval
timer (SIGALRM) interrupts the main thread every `INTERVAL_S` and the
handler times a fixed kernel of about 0.2 ms in that thread's CPU time: each
sample measures the core the program runs on, while it runs, and never
includes the program's own time.  The benchmark rescales the wall and CPU
time of each timed span by `REFERENCE_S[kind] / mean of the samples taken
during it`, so it reports *reference seconds*: the time the span would take
when the kernel takes its reference time.  Each workload names the kernel
whose work is most like its own (workloads.Workload.kernel), because the
host slows kinds of work unequally: scalar Python less when a neighbour
streams memory, array passes more.  The kernels never call the program, so
a change to the program cannot change them.

    python3 perfbench/calibrate.py     # each kernel's times, sampled for 10 s
"""

from __future__ import annotations

import cmath
import signal
import statistics
import time

import numpy as np

# Fixed constants near each kernel's time on the 2-core Xeon VM that defined
# the benchmark, where between quiet and busy stretches the scalar kernel's
# median ranged from 155 us to 265 us and the array kernel's, sampled during
# steady_rk4, from 245 us to 340 us: a reference second is close to a wall
# second there.
REFERENCE_S = {"scalar": 190e-6, "array": 260e-6}
INTERVAL_S = 0.1

_STEPS = 300
_GRID = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
_WORK = np.empty_like(_GRID)


def scalar_kernel() -> complex:
    """Scalar complex arithmetic, the kind of work scalar scattering does.

    Pure Python, so it holds the GIL throughout and never lets the program's
    threads run inside a sample.
    """
    total = 0j
    for i in range(_STEPS):
        x = 1e-4 * i
        q = cmath.sqrt(1.0 - x)
        total += cmath.exp(1j * q) / (1.0 + q * q)
    return total


def array_kernel() -> None:
    """Element-wise passes over a 128x128 grid, the kind of work an RK4 step
    does.  numpy lets other threads run during these passes, so it suits
    only workloads whose program runs in one thread."""
    for _ in range(3):
        np.multiply(_GRID, 0.999, out=_WORK)
        _WORK[1:, :] += 1e-3 * _GRID[:-1, :]
        _WORK[:, 1:] -= 1e-3 * _GRID[:, :-1]


KERNELS = {"scalar": scalar_kernel, "array": array_kernel}


class Sampler:
    """Samples one kernel every `INTERVAL_S` of wall time while active."""

    def __init__(self, kind: str = "scalar"):
        self.kind = kind
        self.kernel = KERNELS[kind]
        self.times: list[float] = []  # perf_counter at each sample
        self.kernel_s: list[float] = []  # thread CPU seconds of each sample
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        self.kernel()
        self.kernel_s.append(time.thread_time() - cpu)
        self.times.append(start)

    def __enter__(self) -> Sampler:
        for _ in range(3):  # the first calls warm the interpreter's caches
            self.kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second between two perf_counter readings.

        The mean, not the median, of the samples: a span's time is the sum
        of its moments, slow ones included.  With no sample in the span (it
        was shorter than the interval), the mean of the last ten samples.
        """
        kernel_s = ([k for t, k in zip(self.times, self.kernel_s) if start <= t <= end]
                    or self.kernel_s[-10:])
        if not kernel_s:
            return 1.0
        return REFERENCE_S[self.kind] / statistics.fmean(kernel_s)


if __name__ == "__main__":
    for kind in KERNELS:
        with Sampler(kind) as sampler:
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                sum(i * i for i in range(10000))
        q1, q2, q3 = statistics.quantiles(sampler.kernel_s, n=4)
        print(f"{kind}: {len(sampler.kernel_s)} samples, quartiles {q1 * 1e6:.1f} "
              f"{q2 * 1e6:.1f} {q3 * 1e6:.1f} us, min {min(sampler.kernel_s) * 1e6:.1f}, "
              f"max {max(sampler.kernel_s) * 1e6:.1f}; reference "
              f"{REFERENCE_S[kind] * 1e6:.0f} us")
