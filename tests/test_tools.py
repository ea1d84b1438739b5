"""tools/compare_outputs.py: how two outputs of the CLI are told apart; and
tools/bench_pairs.py: the numbers a BENCH_<n>.json record gives for each metric."""

import importlib
from pathlib import Path

import pytest

from cascade_mazer.cli import Table, serialize

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def tools(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module


@pytest.fixture
def report(tools):
    return tools("compare_outputs").report


@pytest.fixture
def bench_pairs(tools):
    return tools("bench_pairs")


def table() -> Table:
    """A steady-style table whose numbers are exact in binary."""
    return Table(
        columns=["n", "p1", "p2"],
        rows=[[n, 2.0 ** -(n + 1), 2.0 ** -(n + 2)] for n in range(16)],
        meta={"command": "steady",
              "convergence": {"iterations": 0, "residual": 0.25, "tail_leak": 2.0 ** -60},
              "moments": {"label1": "super-Poissonian", "mean1": 1.0}},
    )


def test_identical_texts(report):
    text = serialize(table())
    assert report(text, text) == (True, "identical")


def test_names_the_cell_that_moved_most_relative_to_its_size(report):
    moved = table()
    moved.rows[12][1] *= 1.5  # by a half
    moved.rows[0][2] += 0.0625  # by more, but by a fifth of its size
    assert report(serialize(table()), serialize(moved)) == (
        True, "cells max abs 0.0625, max rel 0.333 (p1[12]); metadata max abs 0, max rel 0")


def test_names_the_metadata_number_that_moved_by_its_key_path(report):
    moved = table()
    moved.meta["convergence"]["residual"] *= 2.0
    assert report(serialize(table()), serialize(moved)) == (
        True, "cells max abs 0, max rel 0; metadata max abs 0.25, max rel 0.5 "
        "(convergence.residual)")


def test_reads_json_tables(report):
    moved = table()
    moved.rows[3][2] *= 1.25
    assert report(serialize(table(), "json"), serialize(moved, "json")) == (
        True, "cells max abs 0.00781, max rel 0.2 (p2[3]); metadata max abs 0, max rel 0")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_names_the_metadata_text_that_differs_and_still_reports_the_moves(report, fmt):
    # a relabelled mode, and a config number that becomes null
    old, moved = table(), table()
    old.meta["config"] = {"dt": 0.002, "tol": 1e-12}
    moved.meta["config"] = {"dt": None, "tol": 1e-12}
    moved.meta["moments"]["label1"] = "sub-Poissonian"
    moved.meta["convergence"]["iterations"] = 4
    moved.rows[12][1] *= 1.5
    assert report(serialize(old, fmt), serialize(moved, fmt)) == (
        False, "cells max abs 6.1e-05, max rel 0.333 (p1[12]); metadata max abs 4, max rel 1 "
        "(convergence.iterations); metadata text differs at config.dt, moments.label1")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_names_the_keys_on_one_side_only_and_still_compares_the_shared_ones(report, fmt):
    old, moved = table(), table()
    old.meta["config"] = {"dt": None, "method": "rk4", "tol": 1e-12}
    moved.meta["config"] = {"method": "rk4", "t_max": 500.0, "tol": 4e-12}
    assert report(serialize(old, fmt), serialize(moved, fmt)) == (
        False, "cells max abs 0, max rel 0; metadata max abs 3e-12, max rel 0.75 (config.tol); "
        "metadata text differs at config.dt (removed), config.t_max (added)")


def _renamed(text):
    return text.replace("n,p1,p2", "n,p1,q2")


def _reordered(text):
    return text.replace("n,p1,p2", "n,p2,p1")


def _ragged(text):
    return text.replace("\n0,", "\n0,0,", 1)


def _unparsable(text):
    return text[:20]


@pytest.mark.parametrize("change", [_renamed, _reordered, _ragged, _unparsable])
def test_text_other_than_numbers_differs(report, change):
    text = serialize(table())
    assert change(text) != text
    same_text, line = report(text, change(text))
    assert not same_text
    assert line.startswith("text differs:\n  parent: ")


RUN_S = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}
ITEMS = {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def test_summary_gives_the_median_and_the_exclusive_quartiles(bench_pairs):
    # statistics.quantiles' default method: q1 and q3 at positions (n + 1)/4
    # and 3(n + 1)/4 of the sorted runs, here 2.75 and 8.25
    runs = [7.0, 1.0, 10.0, 4.0, 2.0, 9.0, 5.0, 3.0, 8.0, 6.0]
    assert bench_pairs.summary(runs) == {"median": 5.5, "q1": 2.75, "q3": 8.25, "n": 10}


def test_compare_counts_wins_pair_by_pair_and_ties_for_neither_side(bench_pairs):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [1.0, 1.5, 2.0, 6.0, 4.0]  # a tie, three lower, one higher
    out = bench_pairs.compare(RUN_S, parent, change)
    assert out == {
        "unit": "s", "better": "lower", "bound": 0.25,
        "parent": {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5},
        "change": {"median": 2.0, "q1": 1.25, "q3": 5.0, "n": 5},
        "change_wins": 3, "parent_runs": parent, "change_runs": change,
        "median_ratio": 2.0 / 3.0, "parent_quartile_gap": 3.0, "median_gap": 1.0,
    }
    assert bench_pairs.compare(ITEMS, parent, change)["change_wins"] == 1


def test_compare_gives_no_ratio_against_a_zero_parent_median(bench_pairs):
    out = bench_pairs.compare(ITEMS, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert out["median_ratio"] is None
    assert (out["change_wins"], out["median_gap"], out["parent_quartile_gap"]) == (1, 0.0, 0.0)
