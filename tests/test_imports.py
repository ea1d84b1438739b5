"""What a fresh interpreter imports: scipy only for the steady-state solvers."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def fresh(code: str, tmp_path: Path) -> dict:
    """Run code in a new interpreter on this checkout; the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# Runs each command in-process through main and prints the exit codes and the
# scipy modules loaded by then.
_RUN_COMMANDS = """
import contextlib, io, json, sys
import cascade_mazer.cli as cli

codes = []
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps({{"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}}))
"""


def test_commands_without_a_steady_solve_never_load_scipy(tmp_path):
    commands = [
        ["--version"],
        ["--help"],
        ["emission", "--start", "0", "--end", "10", "--steps", "5"],
        ["jc", "--steps", "5"],
        ["units"],
        ["oracle-twolevel", "--grid", "8x8"],
    ]
    seen = fresh(_RUN_COMMANDS.format(commands=commands), tmp_path)
    assert seen["codes"] == [0] * len(commands)
    assert seen["scipy"] == []


def test_steady_solve_loads_the_sparse_solver(tmp_path):
    commands = [["steady", "--r-over-c", "1", "--grid", "16x16"]]
    seen = fresh(_RUN_COMMANDS.format(commands=commands), tmp_path)
    assert seen["codes"] == [0]
    assert "scipy.sparse" in seen["scipy"]
    assert "scipy.sparse.linalg" in seen["scipy"]


def test_every_traced_benchmark_name_resolves(tmp_path):
    # perfbench's tracer wraps each (path, attr) of TRACED on the package
    tree = ast.parse((ROOT / "perfbench" / "layertrace.py").read_text())
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    code = f"""
import json
import cascade_mazer, cascade_mazer.cli

missing = []
for path, attr in {traced!r}:
    owner = cascade_mazer
    try:
        for part in path.split("."):
            owner = getattr(owner, part)
        getattr(owner, attr)
    except AttributeError as err:
        missing.append(f"{{path}}.{{attr}}: {{err}}")
print(json.dumps({{"missing": missing}}))
"""
    assert traced
    assert fresh(code, tmp_path) == {"missing": []}
