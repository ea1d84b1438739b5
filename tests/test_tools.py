"""tools/compare_outputs.py: how two outputs of the CLI are told apart."""

import importlib
from pathlib import Path

import pytest

from cascade_mazer.cli import Table, serialize

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def report(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("compare_outputs").report


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
    assert report(text, text) == "identical"


def test_names_the_cell_that_moved_most_relative_to_its_size(report):
    moved = table()
    moved.rows[12][1] *= 1.5  # by a half
    moved.rows[0][2] += 0.0625  # by more, but by a fifth of its size
    assert report(serialize(table()), serialize(moved)) == (
        "cells max abs 0.0625, max rel 0.333 (p1[12]); metadata max abs 0, max rel 0")


def test_names_the_metadata_number_that_moved_by_its_key_path(report):
    moved = table()
    moved.meta["convergence"]["residual"] *= 2.0
    assert report(serialize(table()), serialize(moved)) == (
        "cells max abs 0, max rel 0; metadata max abs 0.25, max rel 0.5 (convergence.residual)")


def test_reads_json_tables(report):
    moved = table()
    moved.rows[3][2] *= 1.25
    assert report(serialize(table(), "json"), serialize(moved, "json")) == (
        "cells max abs 0.00781, max rel 0.2 (p2[3]); metadata max abs 0, max rel 0")


def _relabelled(text):
    return text.replace("super-Poissonian", "sub-Poissonian")


def _renamed(text):
    return text.replace("n,p1,p2", "n,p1,q2")


def _reordered(text):
    return text.replace("n,p1,p2", "n,p2,p1")


def _ragged(text):
    return text.replace("\n0,", "\n0,0,", 1)


def _unparsable(text):
    return text[:20]


@pytest.mark.parametrize("change", [_relabelled, _renamed, _reordered, _ragged, _unparsable])
def test_text_other_than_numbers_differs(report, change):
    text = serialize(table())
    assert change(text) != text
    assert report(text, change(text)) is None
