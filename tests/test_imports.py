"""What a fresh interpreter imports, and the public names each module declares.

numpy loads at the first numerical call: until then the package holds a lazy
module, so --version, --help, argument errors and units start without it.
scipy loads only for the steady-state solvers.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# Runs one command as `python -m cascade_mazer.cli` would and prints its exit
# code and the numpy modules loaded by then.
_RUN_MODULE = """
import json, runpy, sys
sys.argv = ["cascade-mazer", *{argv!r}]
try:
    runpy.run_module("cascade_mazer.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print()
print(json.dumps({{"code": code,
                  "numpy": sorted(m for m in sys.modules if m.startswith("numpy."))}}))
"""


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["steady", "--frobnicate"], 2),
    (["units"], 0),
])
def test_commands_that_compute_nothing_never_load_numpy(tmp_path, argv, code):
    seen = fresh(_RUN_MODULE.format(argv=argv), tmp_path)
    assert seen == {"code": code, "numpy": []}


def test_numpy_imported_first_is_the_packages_numpy(tmp_path):
    code = """
import json
import numpy
import cascade_mazer.cli, cascade_mazer.master, cascade_mazer.scattering, cascade_mazer.stats

print(json.dumps([module.np is numpy for module in (
    cascade_mazer.cli, cascade_mazer.master, cascade_mazer.scattering, cascade_mazer.stats)]))
"""
    assert fresh(code, tmp_path) == [True] * 4


# Writes one table through main, importing numpy first or not, and prints
# which numpy modules were loaded just before the command ran.
_WRITE_TABLE = """
import json, sys
{first}
import cascade_mazer.cli as cli

before = sorted(m for m in sys.modules if m.startswith("numpy."))
code = cli.main({argv!r})
print(json.dumps({{"code": code, "before": before}}))
"""


@pytest.mark.parametrize("argv", [
    ["emission", "--k-ratio", "100", "--start", "0", "--end", "6283.185307179586",
     "--steps", "200"],
    ["steady", "--r-over-c", "1", "--grid", "16x16", "--format", "json"],
])
def test_lazy_numpy_writes_the_same_bytes(tmp_path, argv):
    texts = []
    for first in ("", "import numpy"):
        out = tmp_path / f"table{len(texts)}"
        seen = fresh(_WRITE_TABLE.format(first=first, argv=[*argv, "--out", str(out)]),
                     tmp_path)
        assert seen["code"] == 0
        assert (seen["before"] == []) == (first == "")
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_missing_numpy_is_named(tmp_path):
    code = """
import importlib.util, json

find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, *args: None if name == "numpy" else find_spec(name, *args)
try:
    import cascade_mazer
except Exception as err:
    print(json.dumps([type(err).__name__, err.name, str(err)]))
"""
    kind, name, message = fresh(code, tmp_path)
    assert (kind, name) == ("ModuleNotFoundError", "numpy")
    assert "numpy" in message


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


# Prints each module's __all__ with the classes and functions in it that
# another module defines, and the package's __all__ with the names in it
# that do not resolve.
_PUBLIC = """
import importlib, json
import cascade_mazer

modules = {}
for name in ("jc", "master", "scattering", "stats", "units", "cli"):
    module = importlib.import_module(f"cascade_mazer.{name}")
    public = [getattr(module, attr) for attr in module.__all__]
    foreign = [attr for attr, obj in zip(module.__all__, public)
               if callable(obj) and obj.__module__ != module.__name__]
    modules[name] = {"all": list(module.__all__), "foreign": foreign}
missing = [attr for attr in cascade_mazer.__all__ if not hasattr(cascade_mazer, attr)]
print(json.dumps({"modules": modules, "package": list(cascade_mazer.__all__),
                  "missing": missing}))
"""


@pytest.fixture(scope="module")
def public(tmp_path_factory):
    return fresh(_PUBLIC, tmp_path_factory.mktemp("public"))


def test_each_module_declares_only_what_it_defines(public):
    foreign = {name: module["foreign"] for name, module in public["modules"].items()}
    assert foreign == dict.fromkeys(public["modules"], [])


def test_no_name_is_declared_by_two_modules(public):
    owners = {}
    for name, module in public["modules"].items():
        for attr in module["all"]:
            owners.setdefault(attr, []).append(name)
    assert {attr: names for attr, names in owners.items() if len(names) > 1} == {}


def test_the_package_re_exports_four_modules_lists(public):
    modules = public["modules"]
    want = ["__version__",
            *(attr for name in ("jc", "master", "scattering", "stats")
              for attr in modules[name]["all"])]
    assert public["package"] == want
    assert len(set(want)) == len(want)
    assert public["missing"] == []
