"""Seeded workload inputs: each workload is a list of CLI commands.

Seed PRESET_SEED runs the published presets through `cascade-mazer preset`.
Every other seed draws the emission window, the photon numbers n1/n2 and the
coupling ratio gamma inside the presets' regimes and runs the same amount of
work through the `emission`, `steady` and `oracle-twolevel` commands, so the
cost of a pass does not depend on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PRESET_SEED = 0

# Published parameters of the presets (pump r/C = 50 throughout).
EMISSION_PRESETS = {
    "fig3a": dict(k_ratio=0.01, gamma=2.0, start=62800.0, end=62864.0, steps=8000),
    "fig3b": dict(k_ratio=100.0, gamma=2.0, start=0.0, end=2000.0 * math.pi, steps=2000),
}
STEADY_PRESETS = {
    "fig4a": dict(k_ratio=0.01, kappa_l=20000.0 * math.pi, gamma=2.0, nb=0.0),
    "fig4b": dict(k_ratio=0.01, kappa_l=20000.0 * math.pi, gamma=1.0, nb=0.0),
    "fig5": dict(k_ratio=100.0, kappa_l=20000.0 * math.pi, gamma=2.0, nb=0.0),
    "fig6": dict(k_ratio=0.01, kappa_l=40000.0 * math.pi / math.sqrt(2.0), gamma=2.0, nb=1.0),
    "fig7": dict(k_ratio=1.1, kappa_l=20000.0 * math.pi, gamma=2.0, nb=0.0),
}
R_OVER_C = 50.0
DIRECT_GRIDS = (128, 256)  # 256^2 is the direct solver's MAX_DIRECT_STATES cap
RK4_GRID = 128

WORKLOADS = ("emission", "steady_direct", "steady_rk4")


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `--out <file>` is appended when it runs."""

    name: str  # output file stem, unique within a workload
    kind: str  # "emission", "steady" or "oracle": selects the output checks
    argv: tuple[str, ...]
    expect: dict  # config values the table's metadata must echo
    points: int = 0  # emission sweep points produced
    states: int = 0  # grid states solved for a steady state


@dataclass(frozen=True)
class Workload:
    inputs: dict  # the generated parameters, recorded with the result
    commands: tuple[Command, ...]
    # rk4 only: the same config solved directly, run untimed as a cross-check
    cross_check: Command | None = None
    # small untimed commands that load what the first call would load lazily
    warmup: tuple[tuple[str, ...], ...] = ()
    # run on one CPU: the workload runs the program's thread pool (see
    # run.pin_to_one_cpu); the others are single-threaded and keep both CPUs
    one_cpu: bool = False
    # the reference kernel whose work is most like the workload's (calibrate.py)
    kernel: str = "scalar"


def _num(x: float) -> str:
    return repr(float(x))


def _emission(name: str, p: dict, seed: int) -> Command:
    expect = dict(k_ratio=p["k_ratio"], gamma=p["gamma"], n1=p["n1"], n2=p["n2"],
                  start=p["start"], end=p["end"], steps=p["steps"], param="kappa_l")
    if seed == PRESET_SEED:
        argv = ("preset", name)
    else:
        argv = ("emission", "--sweep", "kappa-l", "--k-ratio", _num(p["k_ratio"]),
                "--g-ratio", _num(p["gamma"]), "--n1", str(p["n1"]), "--n2", str(p["n2"]),
                "--start", _num(p["start"]), "--end", _num(p["end"]),
                "--steps", str(p["steps"]))
    return Command(name, "emission", argv, expect, points=p["steps"])


def _steady(name: str, p: dict, grid: int, method: str, seed: int) -> Command:
    expect = dict(k_ratio=p["k_ratio"], kappa_l=p["kappa_l"], gamma=p["gamma"],
                  nb1=p["nb"], nb2=p["nb"], r_over_c=R_OVER_C, n1_max=grid,
                  n2_max=grid, method=method, twolevel=False)
    tail = ("--grid", f"{grid}x{grid}", "--method", method)
    if seed == PRESET_SEED:
        argv = ("preset", name) + tail
        expect["twolevel"] = name == "fig6"
    else:
        argv = ("steady", "--k-ratio", _num(p["k_ratio"]), "--kappa-l", _num(p["kappa_l"]),
                "--g-ratio", _num(p["gamma"]), "--nb", _num(p["nb"]),
                "--r-over-c", _num(R_OVER_C)) + tail
    return Command(f"{name}-{method}-{grid}", "steady", argv, expect, states=grid * grid)


def _oracle(name: str, p: dict, grid: int) -> Command:
    """The gamma = 0 detailed-balance column that the fig6 preset carries."""
    expect = dict(k_ratio=p["k_ratio"], kappa_l=p["kappa_l"], gamma=0.0,
                  nb1=p["nb"], nb2=p["nb"], n1_max=grid, n2_max=grid)
    argv = ("oracle-twolevel", "--k-ratio", _num(p["k_ratio"]), "--kappa-l",
            _num(p["kappa_l"]), "--nb", _num(p["nb"]), "--r-over-c", _num(R_OVER_C),
            "--grid", f"{grid}x{grid}")
    return Command(f"{name}-oracle-{grid}", "oracle", argv, expect)


def _draw_emission(rng: random.Random) -> dict:
    drawn = {}
    for name, p in EMISSION_PRESETS.items():
        width = p["end"] - p["start"]
        # fig3a: a 64-wide window in the deep-tunnelling band around 20000 pi;
        # fig3b: a 2000 pi window of the over-barrier regime.
        lo, hi = (62000.0, 63600.0) if name == "fig3a" else (0.0, 1000.0 * math.pi)
        start = rng.uniform(lo, hi)
        drawn[name] = dict(p, gamma=rng.uniform(1.0, 3.0), n1=rng.randint(0, 10),
                           n2=rng.randint(0, 10), start=start, end=start + width)
    return drawn


def _draw_steady(rng: random.Random) -> dict:
    # gamma within 20% of the preset's; the pump r/C = 50 keeps both means far
    # below the 128 truncation, so the grid checks of the program hold.
    return {name: dict(p, gamma=p["gamma"] * rng.uniform(0.8, 1.2))
            for name, p in STEADY_PRESETS.items()}


def generate(workload: str, seed: int) -> Workload:
    """The commands of one workload; the same seed gives the same commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    if workload == "emission":
        params = ({n: dict(p, n1=0, n2=0) for n, p in EMISSION_PRESETS.items()}
                  if seed == PRESET_SEED else _draw_emission(rng))
        commands = tuple(_emission(n, p, seed) for n, p in params.items())
        warmup = (("emission", "--k-ratio", "100", "--start", "0", "--end", "10",
                   "--steps", "50"),)
        return Workload(params, commands, warmup=warmup, one_cpu=True)

    params = dict(STEADY_PRESETS) if seed == PRESET_SEED else _draw_steady(rng)
    warmup = (("steady", "--r-over-c", "1", "--grid", "16x16", "--method", "direct"),)
    if workload == "steady_direct":
        commands = []
        for grid in DIRECT_GRIDS:
            for name, p in params.items():
                commands.append(_steady(name, p, grid, "direct", seed))
                if name == "fig6" and seed != PRESET_SEED:
                    commands.append(_oracle(name, p, grid))
        return Workload(params, tuple(commands), warmup=warmup)

    p = params["fig4a"]
    return Workload({"fig4a": p},
                    (_steady("fig4a", p, RK4_GRID, "rk4", seed),),
                    cross_check=_steady("fig4a", p, RK4_GRID, "direct", seed),
                    warmup=warmup, kernel="array")
