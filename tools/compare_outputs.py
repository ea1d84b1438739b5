"""Compare the CLI's output files between a git revision and the working tree.

Run from the root of a checkout:

    python3 tools/compare_outputs.py --parent REV

Each side writes the same fixed list of tables with `python -m
cascade_mazer.cli ... --out FILE`, on its own `src/`: the parent from a fresh
`git archive` of REV, the change from the working tree as it stands.  Every
output is reported as `identical`, or with the largest absolute and relative
difference of its table cells and of the numbers in its metadata line.  The
exit status is 1 when any text other than a number differs, or when a
command fails on either side.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import checkout

ROOT = Path(__file__).resolve().parents[1]

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
    ("oracle-twolevel", ("oracle-twolevel", "--grid", "64x64", "--nb", "0.3")),
    ("steady", ("steady", "--grid", "40x30", "--r-over-c", "2", "--nb", "0.2", "--c1", "0.7")),
    ("steady-rk4", ("steady", "--grid", "24x24", "--r-over-c", "1", "--method", "rk4")),
    ("fig3a", ("preset", "fig3a")),
    ("fig3b", ("preset", "fig3b")),
    ("jc", ("jc", "--start", "0", "--end", "6.28", "--steps", "200")),
    ("units", ("units",)),
    ("steady-config", ("steady", "--config", CONFIG, "--r-over-c", "2")),
)

# A number that is not part of a name such as p1 or n1_max.
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


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


def largest_difference(old: str, new: str) -> tuple[float, float] | None:
    """Largest absolute and relative difference of the numbers in two texts.

    None when the texts differ anywhere but in their numbers.
    """
    if NUMBER.split(old) != NUMBER.split(new):
        return None
    pairs = [(float(a), float(b)) for a, b in zip(NUMBER.findall(old), NUMBER.findall(new))]
    absolute = max((abs(a - b) for a, b in pairs), default=0.0)
    relative = max((abs(a - b) / max(abs(a), abs(b)) for a, b in pairs if a != b), default=0.0)
    return absolute, relative


def report(old: str, new: str) -> str | None:
    """One line saying how two outputs differ; None when text other than numbers does."""
    if old == new:
        return "identical"
    # a CSV table: the metadata comment, the header, then the cells
    (old_meta, _, old_cells), (new_meta, _, new_cells) = old.partition("\n"), new.partition("\n")
    meta, cells = largest_difference(old_meta, new_meta), largest_difference(old_cells, new_cells)
    if meta is None or cells is None:
        return None
    return ("cells max abs {:.3g}, max rel {:.3g}; metadata max abs {:.3g}, max rel {:.3g}"
            .format(*cells, *meta))


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
