"""Compare the CLI's output files between a git revision and the working tree.

Run from the root of a checkout:

    python3 tools/compare_outputs.py --parent REV

Each side writes the same fixed list of tables with `python -m
cascade_mazer.cli ... --out FILE`, on its own `src/`: the parent from a fresh
`git archive` of REV, the change from the working tree as it stands.  Both
sides are read with `cascade_mazer.cli.parse_table`, in CSV and in JSON.
Every output is reported as `identical`, or with the largest absolute and
relative difference of its table cells and of the numbers in its metadata,
each with the place of the number that moved most, relative to its size: a
cell as `column[row]`, a metadata number by its key path.  The exit status is
1 when a table does not parse, when its columns or any text other than a
number differ, or when a command fails on either side.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import checkout

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cascade_mazer.cli import Table, parse_table  # noqa: E402

# Stands for the config file that the run writes for the --config output.
CONFIG = "CONFIG_FILE"
CONFIG_TEXT = """\
# a steady run read from a file; the command line's --r-over-c overrides it
grid = 32x24
r-over-c = 1
nb = 0.1
c2 = 0.8
method = direct
"""

OUTPUTS = (
    *((f"{name}-{n}", ("preset", name, "--grid", f"{n}x{n}"))
      for name in ("fig4a", "fig4b", "fig5", "fig6", "fig7") for n in (128, 256)),
    ("fig4a-rk4", ("preset", "fig4a", "--method", "rk4")),
    ("fig4a-json", ("preset", "fig4a", "--grid", "64x64", "--format", "json")),
    ("oracle-twolevel", ("oracle-twolevel", "--grid", "64x64", "--nb", "0.3")),
    ("steady", ("steady", "--grid", "40x30", "--r-over-c", "2", "--nb", "0.2", "--c1", "0.7")),
    ("steady-rk4", ("steady", "--grid", "24x24", "--r-over-c", "1", "--method", "rk4")),
    # gamma = 0 leaves mode 2 empty
    ("steady-gamma0", ("steady", "--g-ratio", "0", "--grid", "32x32", "--r-over-c", "5")),
    ("fig3a", ("preset", "fig3a")),
    ("fig3b", ("preset", "fig3b")),
    ("emission-k-ratio", ("emission", "--sweep", "k-ratio", "--start", "0.05", "--end", "3",
                          "--steps", "200", "--kappa-l", "40")),
    ("jc", ("jc", "--start", "0", "--end", "6.28", "--steps", "200")),
    ("units", ("units",)),
    ("steady-config", ("steady", "--config", CONFIG, "--r-over-c", "2")),
)


def write_outputs(root: Path, outdir: Path, config: Path) -> dict[str, str | None]:
    """Each output's text; None, with the error printed, where the command failed."""
    outdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    texts = {}
    for name, argv in OUTPUTS:
        argv = [str(config) if arg == CONFIG else arg for arg in argv]
        out = outdir / name
        done = subprocess.run([sys.executable, "-m", "cascade_mazer.cli", *argv, "--out", str(out)],
                              cwd=root, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{name} failed in {root} with exit {done.returncode}: {done.stderr.strip()}")
        texts[name] = out.read_text() if done.returncode == 0 else None
    return texts


def difference(old, new, path: str = "") -> tuple[float, float, str | None] | None:
    """Largest absolute and relative difference of the numbers in two parsed
    JSON values, and the key path of the largest relative one (None if none
    moved), e.g. convergence.tail_leak or p1[12].

    None when the values differ anywhere but in their numbers; keys and their
    order count.
    """
    if isinstance(old, dict) and isinstance(new, dict) and list(old) == list(new):
        parts = [difference(old[key], new[key], f"{path}.{key}" if path else key) for key in old]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        parts = [difference(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new)):
        if old == new:
            return 0.0, 0.0, None
        return abs(old - new), abs(old - new) / max(abs(old), abs(new)), path
    else:
        return (0.0, 0.0, None) if old == new else None
    if None in parts:
        return None
    _, relative, moved = max(parts, key=lambda part: part[1], default=(0.0, 0.0, None))
    return max((part[0] for part in parts), default=0.0), relative, moved


def cells(table: Table) -> dict[str, list]:
    """A table's cells keyed by column, so that p1[12] is row 12 of column p1."""
    if any(len(row) != len(table.columns) for row in table.rows):
        raise ValueError("a row and the header differ in length")
    return {column: [row[i] for row in table.rows] for i, column in enumerate(table.columns)}


def report(old: str, new: str) -> str | None:
    """One line saying how two outputs differ; None when a table does not
    parse, or when its columns or any text other than a number differ."""
    if old == new:
        return "identical"
    try:
        old, new = parse_table(old), parse_table(new)
        parts = {"cells": difference(cells(old), cells(new)),
                 "metadata": difference(old.meta, new.meta)}
    except (ValueError, LookupError, TypeError):
        return None
    if None in parts.values():
        return None
    return "; ".join(f"{part} max abs {absolute:.3g}, max rel {relative:.3g}"
                     + ("" if moved is None else f" ({moved})")
                     for part, (absolute, relative, moved) in parts.items())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        config = workdir / "run.cfg"
        config.write_text(CONFIG_TEXT)
        parent = write_outputs(checkout(args.parent, workdir / "parent"), workdir / "parent-out",
                               config)
        change = write_outputs(ROOT, workdir / "change-out", config)

    failed = False
    for name, _ in OUTPUTS:
        if parent[name] is None or change[name] is None:
            failed = True
            continue
        line = report(parent[name], change[name])
        if line is None:
            failed = True
            line = f"text differs:\n  parent: {parent[name][:300]!r}\n  change: {change[name][:300]!r}"
        print(f"{name}: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
