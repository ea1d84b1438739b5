"""Regenerate reference.json from the program's own seed-0 outputs.

    python3 perfbench/make_reference.py

Runs every command of every workload once at the preset seed and stores each
output's sha256 together with a sample of its rows and its meta moments.  Run
it only when a change to the program's outputs is intended and reviewed.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import checks
import run
import workloads

EVERY = {"emission": 25, "steady": 4}  # keep every n-th row of each kind


def main() -> None:
    package = run.load_program()
    outputs = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for name in workloads.WORKLOADS:
            work = workloads.generate(name, workloads.PRESET_SEED)
            for cmd in work.commands:
                path = Path(tmp) / f"{cmd.name}.csv"
                error = run.run_command(package.cli, cmd.argv, path)
                if error is not None:
                    raise SystemExit(f"{cmd.name}: {error}")
                text = path.read_text()
                problems = checks.check_output(cmd.kind, text, cmd.expect)
                if problems:
                    raise SystemExit(f"{cmd.name}: {problems}")
                outputs[cmd.name] = checks.reference_entry(text, EVERY[cmd.kind])
    payload = {
        "about": "seed-0 outputs of cascade_mazer "
                 f"{package.__version__} at {run.commit()}; see make_reference.py",
        "outputs": outputs,
    }
    run.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
