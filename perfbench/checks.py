"""Output checks: invariants every table must satisfy, and the stored reference.

Each check returns a list of problems; an empty list means the output is
correct.  The checks hold the program to its own outputs and to conservation
laws.  They do not assert the published criterion-4 bound on fig4b (that
failure is the test suite's to show), and they hide nothing about it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

UNITARITY_TOL = 1e-10  # p_one + p_two + refl_a + trans_a = 1
MASS_TOL = 1e-10  # marginals sum to 1
MOMENT_RTOL = 1e-9  # meta moments against moments recomputed from the rows
RK4_VS_DIRECT_TOL = 1e-8  # 1-norm distance of the marginals
# Seed-0 outputs against reference.json, as absolute differences of table
# cells and relative differences of the meta moments.
REFERENCE_ATOL = 1e-10
REFERENCE_MOMENT_RTOL = 1e-8

DEAD_BAND = 1e-3  # classification band around sigma^2 = 1 used by the program
EMISSION_COLUMNS = ["p_one", "p_two", "refl_a", "trans_a", "jc_p_one", "jc_p_two"]


def parse_csv(text: str) -> tuple[dict, list[str], np.ndarray]:
    """(meta, columns, rows) of a CSV table with its `# {json}` first line."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError("not a table: missing the metadata line or the header")
    meta = json.loads(lines[0][2:])
    columns = lines[1].split(",")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[2:]])
    if rows.ndim != 2 or rows.shape[1] != len(columns):
        raise ValueError(f"rows do not match the {len(columns)} columns")
    return meta, columns, rows


def _echo_problems(config: dict, expect: dict) -> list[str]:
    problems = []
    for key, want in expect.items():
        if key == "twolevel":
            continue
        got = config.get(key)
        if got != want:
            problems.append(f"meta config {key} = {got!r}, expected {want!r}")
    return problems


def check_emission(text: str, expect: dict) -> list[str]:
    meta, columns, rows = parse_csv(text)
    problems = _echo_problems(meta.get("config", {}), expect)
    if meta.get("command") != "emission":
        problems.append(f"meta command {meta.get('command')!r}, expected 'emission'")
    if columns != [expect["param"]] + EMISSION_COLUMNS:
        return problems + [f"columns {columns}"]
    if len(rows) != expect["steps"]:
        return problems + [f"{len(rows)} rows, expected {expect['steps']}"]
    grid = np.linspace(expect["start"], expect["end"], expect["steps"])
    if not np.allclose(rows[:, 0], grid, rtol=1e-12, atol=0.0):
        problems.append("swept values are not the requested inclusive range in order")
    values = rows[:, 1:]
    if values.min() < 0.0 or values.max() > 1.0:
        problems.append(f"a probability lies outside [0, 1]: "
                        f"min {values.min():.3e}, max {values.max():.17g}")
    total = rows[:, 1:5].sum(axis=1)
    worst = float(np.abs(total - 1.0).max())
    if worst > UNITARITY_TOL:
        problems.append(f"p_one + p_two + refl_a + trans_a off 1 by {worst:.3e}")
    return problems


def _recomputed_moments(p: np.ndarray) -> tuple[float, float]:
    n = np.arange(p.size, dtype=float)
    mean = float(p @ n)
    if mean <= 0.0:
        return 0.0, 0.0
    return mean, (float(p @ (n * n)) - mean * mean) / mean


def _label(var_norm: float) -> str:
    if var_norm > 1.0 + DEAD_BAND:
        return "super-Poissonian"
    if var_norm < 1.0 - DEAD_BAND:
        return "sub-Poissonian"
    return "Poissonian"


def _distribution_problems(name: str, p: np.ndarray) -> list[str]:
    problems = []
    if p.min() < 0.0:
        problems.append(f"{name} has a negative entry {p.min():.3e}")
    if abs(p.sum() - 1.0) > MASS_TOL:
        problems.append(f"{name} sums to {p.sum():.15f}")
    return problems


def check_steady(text: str, expect: dict) -> list[str]:
    meta, columns, rows = parse_csv(text)
    problems = _echo_problems(meta.get("config", {}), expect)
    if meta.get("command") != "steady":
        problems.append(f"meta command {meta.get('command')!r}, expected 'steady'")
    want_columns = ["n", "p1", "p2"] + (["p1_twolevel"] if expect["twolevel"] else [])
    if columns != want_columns:
        return problems + [f"columns {columns}, expected {want_columns}"]
    size = max(expect["n1_max"], expect["n2_max"])
    if len(rows) != size or not np.array_equal(rows[:, 0], np.arange(size)):
        return problems + [f"photon-number column is not 0..{size - 1}"]
    for i, column in enumerate(columns[1:], start=1):
        problems += _distribution_problems(column, rows[:, i])

    stated = meta.get("moments", {})
    for mode in (1, 2):
        mean, var = _recomputed_moments(rows[:, mode])
        for key, value in ((f"mean{mode}", mean), (f"var{mode}_norm", var)):
            got = stated.get(key)
            if got is None or abs(got - value) > MOMENT_RTOL * max(abs(value), 1e-3):
                problems.append(f"meta {key} = {got!r}, rows give {value!r}")
        if stated.get(f"label{mode}") != _label(var):
            problems.append(f"meta label{mode} = {stated.get(f'label{mode}')!r}, "
                            f"rows give {_label(var)!r}")

    conv = meta.get("convergence", {})
    if expect["method"] == "rk4":
        converged = conv.get("residual", 1.0) < meta["config"]["tol"]
        if not (conv.get("iterations", 0) > 0 and converged):
            problems.append(f"rk4 did not report convergence: {conv}")
    elif not conv.get("residual", 1.0) <= 1e-6:
        problems.append(f"direct solve residual {conv.get('residual')!r} above 1e-6")
    return problems


def check_oracle(text: str, expect: dict) -> list[str]:
    meta, columns, rows = parse_csv(text)
    problems = _echo_problems(meta.get("config", {}), expect)
    if meta.get("command") != "oracle-twolevel":
        problems.append(f"meta command {meta.get('command')!r}, expected 'oracle-twolevel'")
    if columns != ["n", "p1_balance", "p2_thermal"]:
        return problems + [f"columns {columns}"]
    size = max(expect["n1_max"], expect["n2_max"])
    if len(rows) != size:
        return problems + [f"{len(rows)} rows, expected {size}"]
    problems += _distribution_problems("p1_balance", rows[:, 1])
    problems += _distribution_problems("p2_thermal", rows[:, 2])
    return problems


CHECKS = {"emission": check_emission, "steady": check_steady, "oracle": check_oracle}


def check_output(kind: str, text: str, expect: dict) -> list[str]:
    """Problems with one table; a table that cannot be parsed is one problem."""
    try:
        return CHECKS[kind](text, expect)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable {kind} table: {exc!r}"]


def marginal_distance(text_a: str, text_b: str) -> float:
    """1-norm distance between the (p1, p2) marginals of two steady tables."""
    _, _, a = parse_csv(text_a)
    _, _, b = parse_csv(text_b)
    if a.shape != b.shape:
        return float("inf")
    return float(np.abs(a[:, 1:3] - b[:, 1:3]).sum())


# --- stored reference outputs of seed 0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_entry(text: str, every: int) -> dict:
    """What reference.json keeps of one output: its hash, and every
    `every`-th row (plus the last) with the meta moments for tolerance checks."""
    meta, _, rows = parse_csv(text)
    keep = sorted(set(range(0, len(rows), every)) | {len(rows) - 1})
    return {
        "sha256": digest(text),
        "every": every,
        "rows": {str(i): rows[i].tolist() for i in keep},
        "moments": meta.get("moments", {}),
    }


def compare_reference(text: str, entry: dict) -> tuple[list[str], bool]:
    """(problems beyond tolerance, whether the bytes are identical)."""
    meta, _, rows = parse_csv(text)
    problems = []
    for index, want in entry["rows"].items():
        i = int(index)
        if i >= len(rows):
            problems.append(f"row {i} missing")
            continue
        worst = float(np.abs(rows[i] - np.array(want)).max())
        if worst > REFERENCE_ATOL:
            problems.append(f"row {i} differs from the reference by {worst:.3e}")
    stated = meta.get("moments", {})
    for key, want in entry["moments"].items():
        got = stated.get(key)
        if isinstance(want, str):
            if got != want:
                problems.append(f"meta {key} = {got!r}, reference {want!r}")
        elif got is None or abs(got - want) > REFERENCE_MOMENT_RTOL * max(abs(want), 1e-3):
            problems.append(f"meta {key} = {got!r}, reference {want!r}")
    return problems, digest(text) == entry["sha256"]
