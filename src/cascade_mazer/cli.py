"""Command-line front end: emission/steady sweeps, presets and unit conversion.

Commands emit plain tables (CSV or JSON) so plotting stays external.  Output
is deterministic: the same inputs and package version produce bit-identical
bytes on one machine with one BLAS kernel, since BLAS dot products and the
sparse factorisation enter steady tables (see the README's CLI section).
Every file carries its full configuration in a metadata block.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import __version__
from . import _numpy as np
from .jc import JcInput, g1_tau_from_beam, jc_gain
from .master import (
    _GRID,
    _T_MAX,
    _TOL,
    MazerConfig,
    SolverError,
    direct_steady_state,
    rk4_steady_state,
    twolevel_detailed_balance,
)
from .scattering import (
    CavityBeam,
    ScatterInput,
    _abs2,
    _require_count,
    _require_finite,
    _require_positive,
    channel_gains,
    gain_probabilities,  # not called here; the benchmark tracer resolves it
    scatter_channels,
)
from .stats import marginals, moments
from .units import DEFAULT_G1_RAD_PER_S, RB85_MASS_KG, PhysicalScale, physical_scale

__all__ = [
    "SweepSpec",
    "Table",
    "emission_sweep",
    "steady_sweep",
    "jc_sweep",
    "oracle_table",
    "units_table",
    "serialize",
    "parse_table",
    "main",
]

_SWEEPABLE = ("kappa_l", "k_ratio")

# Steady-state solver for callers and flags that give none.
_METHOD = "direct"


@dataclass
class Table:
    """Columns, rows and a JSON-serializable metadata block."""

    columns: list[str]
    rows: list[list]
    meta: dict = field(default_factory=dict)


def _table(command: str, config: dict, columns: list[str], rows: list[list], **meta) -> Table:
    """A table whose metadata names its command, the version and its config."""
    meta = {"command": command, "version": __version__, "config": config, **meta}
    return Table(columns=columns, rows=rows, meta=meta)


def _require_range(start: float, end: float, steps: int) -> None:
    _require_count("steps", steps, minimum=2)
    _require_finite("start", start)
    _require_finite("end", end)
    if not start < end:
        raise ValueError(f"need start < end, got {start!r} >= {end!r}")
    if not math.isfinite(end - start):
        raise ValueError(f"end - start overflows, from {start!r} to {end!r}; narrow the range")


@dataclass(frozen=True)
class SweepSpec:
    """Uniform inclusive-endpoint sweep of one beam/cavity parameter."""

    param: str
    start: float
    end: float
    steps: int
    base: ScatterInput

    def __post_init__(self):
        if self.param not in _SWEEPABLE:
            raise ValueError(f"param must be one of {_SWEEPABLE}, got {self.param!r}")
        _require_range(self.start, self.end, self.steps)


def _emission_row(spec: SweepSpec, value: float) -> list[float]:
    inp = replace(spec.base, **{spec.param: float(value)})
    ch = scatter_channels(inp)
    gain = channel_gains(ch)
    jc = jc_gain(
        JcInput(
            gamma=inp.gamma,
            n1=inp.n1,
            n2=inp.n2,
            g1_tau=g1_tau_from_beam(inp.kappa_l, inp.k_ratio),
        )
    )
    return [
        float(value),
        gain.p_one,
        gain.p_two,
        _abs2(ch.r_a),
        _abs2(ch.t_a),
        jc.p_one,
        jc.p_two,
    ]


def emission_sweep(spec: SweepSpec) -> Table:
    """Emission probabilities along the swept parameter.

    One scattering evaluation per point, in index order.  The jc_* columns
    are the timed-transit values at the fast-atom mapping
    g1*tau = kappa_l / (2 k/kappa) for the same point.
    """
    rows = [_emission_row(spec, v) for v in np.linspace(spec.start, spec.end, spec.steps)]
    config = dict(asdict(spec.base), param=spec.param, start=spec.start, end=spec.end,
                  steps=spec.steps)
    columns = [spec.param, "p_one", "p_two", "refl_a", "trans_a", "jc_p_one", "jc_p_two"]
    return _table("emission", config, columns, rows)


def jc_sweep(
    gamma: float, n1: int, n2: int, start: float, end: float, steps: int
) -> Table:
    """Timed-transit gains over a g1*tau range."""
    _require_range(start, end, steps)
    rows = []
    for value in np.linspace(start, end, steps):
        g = jc_gain(JcInput(gamma=gamma, n1=n1, n2=n2, g1_tau=float(value)))
        rows.append([float(value), g.p_one, g.p_two])
    config = {"gamma": gamma, "n1": n1, "n2": n2, "start": start, "end": end, "steps": steps}
    return _table("jc", config, ["g1_tau", "p_one", "p_two"], rows)


def _marginal_rows(*series: np.ndarray) -> list[list]:
    """Rows n, series[0][n], ...; each series is zero-padded to the longest."""
    length = max(s.size for s in series)
    padded = [np.pad(s, (0, length - s.size)) for s in series]
    return [[n] + [float(s[n]) for s in padded] for n in range(length)]


def _config_meta(cfg: MazerConfig) -> dict:
    """The fields of cfg, with those of its beam in place of the beam."""
    meta = asdict(cfg)
    meta.update(meta.pop("beam"))
    return meta


def steady_sweep(
    cfg: MazerConfig,
    *,
    method: str = _METHOD,
    tol: float = _TOL,
    t_max: float = _T_MAX,
) -> Table:
    """Steady-state marginals P1(n), P2(n) with moment and solver metadata.

    Solved directly unless method="rk4", the check that also takes grids
    above MAX_DIRECT_STATES; tol and t_max steer only RK4, but the table's
    config echoes them, so they must be finite and positive for both.  RK4
    steps at 1 / max outflow; the step a run used is model_time / iterations.
    """
    _require_positive("t_max", t_max)
    _require_positive("tol", tol)
    if method == "rk4":
        result = rk4_steady_state(cfg, t_max=t_max, tol=tol)
    elif method == "direct":
        result = direct_steady_state(cfg)
    else:
        raise ValueError(f"method must be rk4 or direct, got {method!r}")
    meta = {
        "moments": asdict(moments(result.dist)),
        "convergence": {
            "iterations": result.iterations,
            "residual": result.residual,
            "tail_leak": result.dist.tail_leak,
            "model_time": result.model_time,
        },
    }
    config = dict(_config_meta(cfg), method=method, tol=tol, t_max=t_max)
    rows = _marginal_rows(*marginals(result.dist))
    return _table("steady", config, ["n", "p1", "p2"], rows, **meta)


def oracle_table(cfg: MazerConfig) -> Table:
    """Detailed-balance marginals for a gamma = 0 config."""
    rows = _marginal_rows(*twolevel_detailed_balance(cfg))
    return _table("oracle-twolevel", _config_meta(cfg), ["n", "p1_balance", "p2_thermal"], rows)


def units_table(ps: PhysicalScale, kappa_l: float, k_ratio: float) -> Table:
    length, temperature, kappa = physical_scale(ps, kappa_l, k_ratio)
    config = dict(asdict(ps), kappa_l=kappa_l, k_ratio=k_ratio)
    columns = ["cavity_length_m", "temperature_K", "kappa_per_m"]
    return _table("units", config, columns, [[length, temperature, kappa]])


def serialize(table: Table, fmt: str = "csv") -> str:
    """Render a table; identical input yields bit-identical text.

    Non-finite cells are refused: they mean the inputs overflowed.
    """
    for row in table.rows:
        for column, value in zip(table.columns, row):
            if not math.isfinite(value):
                raise ValueError(f"{column} = {value!r}: the inputs overflow; "
                                 "bring them to a physical scale")
    if fmt == "csv":
        lines = ["# " + json.dumps(table.meta, sort_keys=True, separators=(",", ":"))]
        lines.append(",".join(table.columns))
        for row in table.rows:
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {"meta": table.meta, "columns": table.columns, "rows": table.rows}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    raise ValueError(f"format must be csv or json, got {fmt!r}")


def _parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_table(text: str) -> Table:
    """Inverse of serialize for both formats."""
    if text.startswith("# "):
        lines = text.splitlines()
        meta = json.loads(lines[0][2:])
        columns = lines[1].split(",")
        rows = [[_parse_cell(cell) for cell in line.split(",")] for line in lines[2:] if line]
        return Table(columns=columns, rows=rows, meta=meta)
    payload = json.loads(text)
    return Table(columns=payload["columns"], rows=payload["rows"], meta=payload["meta"])


def _write(table: Table, out: str | None, fmt: str) -> None:
    text = serialize(table, fmt)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# --- presets: parameters exactly as published; sampling/solver knobs are ours

_FIG3A_NOTE = (
    "published figure scales the one-photon curve by 2.5 and displaces the "
    "timed-transit curve by 0.1; emitted data is unscaled"
)
_FIG6_NOTE = (
    "published figure scales the gamma=0 column by 5; emitted data is unscaled"
)
_FIG6_KAPPA_L = 40000.0 * math.pi / math.sqrt(2.0)  # fourth root of 4
_KAPPA_L = 20000.0 * math.pi
# Fig. 3: gamma = 2 with both modes empty; the kappa_l window of fig3a, around
# 20000 pi, is our choice, since the source gives none
_FIG3 = dict(sweep="kappa-l", g_ratio=2.0, n1=0, n2=0)
# Figs. 4-7: the pump, and the same damping for both modes
_CAVITY = dict(r_over_c=50.0, c1=1.0, c2=1.0)

# name: (command, its flag values, note, whether the gamma = 0 column is added)
_PRESETS = {
    "fig3a": ("emission", dict(_FIG3, k_ratio=0.01, start=62800.0, end=62864.0, steps=8000),
              _FIG3A_NOTE, False),
    "fig3b": ("emission", dict(_FIG3, k_ratio=100.0, start=0.0, end=2000.0 * math.pi,
                               steps=2000), None, False),
    "fig4a": ("steady", dict(_CAVITY, k_ratio=0.01, kappa_l=_KAPPA_L, g_ratio=2.0, nb=0.0),
              None, False),
    "fig4b": ("steady", dict(_CAVITY, k_ratio=0.01, kappa_l=_KAPPA_L, g_ratio=1.0, nb=0.0),
              None, False),
    "fig5": ("steady", dict(_CAVITY, k_ratio=100.0, kappa_l=_KAPPA_L, g_ratio=2.0, nb=0.0),
             None, False),
    "fig6": ("steady", dict(_CAVITY, k_ratio=0.01, kappa_l=_FIG6_KAPPA_L, g_ratio=2.0, nb=1.0),
             _FIG6_NOTE, True),
    "fig7": ("steady", dict(_CAVITY, k_ratio=1.1, kappa_l=_KAPPA_L, g_ratio=2.0, nb=0.0),
             None, False),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def _preset_args(name: str, **settings) -> argparse.Namespace:
    """Preset `name` as its command's flags: the defaults, its own values, then `settings`."""
    command, flags, _, _ = _PRESETS[name]
    args = _build_parser()[1][command].parse_args([])
    vars(args).update(flags, **settings)
    return args


def run_preset(
    name: str,
    *,
    grid: tuple[int, int] | None = None,
    method: str | None = None,
    tol: float | None = None,
    t_max: float | None = None,
) -> Table:
    """Reproduce one published dataset; steady ones solve directly unless method="rk4".

    The other arguments set up a steady preset's solve; emission presets refuse them.
    fig6 adds a p1_twolevel column: the p1_balance column of oracle-twolevel
    on the same cavity, its mode-1 distribution at gamma = 0.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    command, _, note, twolevel_column = _PRESETS[name]
    settings = dict(grid=grid, method=method, tol=tol, t_max=t_max)
    given = {key: value for key, value in settings.items() if value is not None}
    if command == "emission" and given:
        raise ValueError(f"preset {name!r} is an emission sweep and takes no "
                         f"steady-state settings; drop {', '.join(given)}")
    args = _preset_args(name, **given)
    table = _COMMANDS[command](args)
    if twolevel_column:
        table.columns.append("p1_twolevel")
        for row, balance in zip(table.rows, _cmd_oracle(args).rows):
            row.append(balance[1])
    table.meta["preset"] = name
    if note:
        table.meta["note"] = note
    return table


# --- argument plumbing


def _config_args(sub: argparse.ArgumentParser, path: str) -> list[str]:
    """A key = value file as `--flag=value` arguments of `sub`; '#' starts a comment.

    Keys are the flag names of `sub`, so argparse converts and checks a value
    from the file as it does the flag's; the `=` keeps -inf from reading as an option.
    """
    flags = {action.dest: action.option_strings[0] for action in sub._actions
             if action.option_strings and action.dest not in ("help", "config")}
    args = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in flags:
            accepted = ", ".join(sorted(dest.replace("_", "-") for dest in flags))
            raise ValueError(f"{path}: unknown key {key!r}; accepted keys: {accepted}")
        args.append(f"{flags[key]}={value.strip()}")
    return args


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        n1, n2 = map(int, text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 128x128, got {text!r}") from None
    return n1, n2


def _add_output_flags(sub):
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--config", help="key = value file of flag names; flags override it")


def _add_beam_flags(sub, kappa_l=20000.0 * math.pi):
    sub.add_argument("--k-ratio", type=float, default=0.01)
    sub.add_argument("--kappa-l", type=float, default=kappa_l)


def _add_g_ratio_flag(sub):
    sub.add_argument("--g-ratio", type=float, default=2.0, help="coupling ratio g2/g1")


def _add_sweep_flags(sub, start=None, end=None):
    sub.add_argument("--n1", type=int, default=0)
    sub.add_argument("--n2", type=int, default=0)
    sub.add_argument("--start", type=float, default=start)
    sub.add_argument("--end", type=float, default=end)
    sub.add_argument("--steps", type=int, default=2000)


def _add_grid_flag(sub, grid=_GRID):
    sub.add_argument("--grid", type=_parse_grid, default=grid, help="truncation, e.g. 128x128")


def _add_cavity_flags(sub):
    sub.add_argument("--r-over-c", type=float, default=50.0)
    sub.add_argument("--nb", type=float, default=0.0, help="thermal occupation of both baths")
    sub.add_argument("--c1", type=float, default=1.0, help="mode-1 damping over C")
    sub.add_argument("--c2", type=float, default=1.0, help="mode-2 damping over C")
    _add_grid_flag(sub)


def _add_solver_flags(sub, method=_METHOD, tol=_TOL, t_max=_T_MAX):
    sub.add_argument("--method", choices=("rk4", "direct"), default=method)
    sub.add_argument("--tol", type=float, default=tol)
    sub.add_argument("--t-max", type=float, default=t_max)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cascade-mazer",
        description="Two-mode maser pumped by slow cascade atoms: "
        "emission probabilities and steady-state photon statistics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    emission = subs.add_parser("emission", help="sweep scattering gains")
    _add_beam_flags(emission, kappa_l=0.0)
    _add_g_ratio_flag(emission)
    emission.add_argument("--sweep", choices=("kappa-l", "k-ratio"), default="kappa-l")
    _add_sweep_flags(emission)
    _add_output_flags(emission)

    steady = subs.add_parser("steady", help="steady-state photon statistics")
    _add_beam_flags(steady)
    _add_g_ratio_flag(steady)
    _add_cavity_flags(steady)
    _add_solver_flags(steady)
    _add_output_flags(steady)

    jc = subs.add_parser("jc", help="timed-transit gains over g1*tau")
    _add_g_ratio_flag(jc)
    _add_sweep_flags(jc, start=0.0, end=2.0 * math.pi)
    _add_output_flags(jc)

    oracle = subs.add_parser(
        "oracle-twolevel", help="detailed-balance distributions at gamma=0"
    )
    _add_beam_flags(oracle)
    _add_cavity_flags(oracle)
    _add_output_flags(oracle)

    units = subs.add_parser("units", help="physical scales behind the units")
    units.add_argument("--g1", type=float, default=DEFAULT_G1_RAD_PER_S, help="coupling in rad/s")
    units.add_argument("--mass-kg", type=float, default=RB85_MASS_KG)
    _add_beam_flags(units)
    _add_output_flags(units)

    preset = subs.add_parser("preset", help="reproduce a published dataset")
    preset.add_argument("name", choices=PRESET_NAMES)
    _add_grid_flag(preset, grid=None)  # None: run_preset's own settings
    _add_solver_flags(preset, None, None, None)
    _add_output_flags(preset)

    return parser, subs.choices


def _cmd_emission(args) -> Table:
    if args.start is None or args.end is None:
        raise ValueError("emission sweeps need --start and --end")
    base = ScatterInput(
        k_ratio=args.k_ratio, kappa_l=args.kappa_l, gamma=args.g_ratio, n1=args.n1, n2=args.n2
    )
    spec = SweepSpec(
        param=args.sweep.replace("-", "_"),
        start=args.start,
        end=args.end,
        steps=args.steps,
        base=base,
    )
    return emission_sweep(spec)


def _mazer_config(args, gamma: float) -> MazerConfig:
    return MazerConfig(
        r_over_c=args.r_over_c,
        nb1=args.nb,
        nb2=args.nb,
        beam=CavityBeam(k_ratio=args.k_ratio, kappa_l=args.kappa_l, gamma=gamma),
        n1_max=args.grid[0],
        n2_max=args.grid[1],
        c1_over_c=args.c1,
        c2_over_c=args.c2,
    )


def _cmd_steady(args) -> Table:
    return steady_sweep(
        _mazer_config(args, args.g_ratio),
        method=args.method,
        tol=args.tol,
        t_max=args.t_max,
    )


def _cmd_jc(args) -> Table:
    return jc_sweep(
        gamma=args.g_ratio,
        n1=args.n1,
        n2=args.n2,
        start=args.start,
        end=args.end,
        steps=args.steps,
    )


def _cmd_oracle(args) -> Table:
    return oracle_table(_mazer_config(args, gamma=0.0))


def _cmd_units(args) -> Table:
    ps = PhysicalScale(g1_rad_per_s=args.g1, atom_mass_kg=args.mass_kg)
    return units_table(ps, kappa_l=args.kappa_l, k_ratio=args.k_ratio)


def _cmd_preset(args) -> Table:
    return run_preset(
        args.name,
        grid=args.grid,
        method=args.method,
        tol=args.tol,
        t_max=args.t_max,
    )


_COMMANDS = {
    "emission": _cmd_emission,
    "steady": _cmd_steady,
    "jc": _cmd_jc,
    "oracle-twolevel": _cmd_oracle,
    "units": _cmd_units,
    "preset": _cmd_preset,
}


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # right after the command name, so that the command line's own flags win
            extra = _config_args(commands[args.command], args.config)
            args = parser.parse_args([argv[0], *extra, *argv[1:]])
        _write(_COMMANDS[args.command](args), args.out, args.format)
    except (SolverError, ValueError, OSError) as exc:
        print(f"cascade-mazer: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        size = "--grid" if "grid" in vars(args) else "--steps"
        print(f"cascade-mazer: {str(exc) or 'out of memory'}; use a smaller {size}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
