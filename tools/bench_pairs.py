"""Run alternating parent/change pairs of perfbench and write a BENCH_<n>.json record.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent REV --change REV --workdir DIR \
        --out BENCH_9.json --label "what the change does"

Each side runs from a fresh `git archive` of its revision under --workdir, so
uncommitted files never enter a measurement.  Every workload of BENCHMARK.json
runs PAIRS pairs at perfbench's own run length; pair i uses seed i + 1, and
the parent runs first in even pairs and the change in odd ones.  Only the
end-to-end metrics are recorded (`--trace 0`).  The record is rewritten after
every pair, so an interrupted run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# Pairs per workload that a record needs before it can support a claim.
PAIRS = 10

THREAD_ENV = ("MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "OMP_NUM_THREADS",
              "OPENBLAS_NUM_THREADS", "PYTHON_CPU_COUNT")


def checkout(rev: str, dest: Path) -> Path:
    dest.mkdir(parents=True, exist_ok=False)
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(root: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    # the run length perfbench chose is in its full record, not in the summary line
    full = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    result["seconds"] = json.loads(full.read_text())["seconds"]
    return result


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "n": len(runs)}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    lower = spec["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    out = {key: spec[key] for key in ("unit", "better", "bound")}
    out.update(parent=summary(parent), change=summary(change), change_wins=wins,
               parent_runs=parent, change_runs=change)
    p_med, c_med = out["parent"]["median"], out["change"]["median"]
    out.update(median_ratio=c_med / p_med if p_med else None,
               parent_quartile_gap=out["parent"]["q3"] - out["parent"]["q1"],
               median_gap=abs(c_med - p_med))
    return out


def record(args, metrics_spec: list[dict], results: dict, parent_commit: str) -> dict:
    workloads = {}
    seconds = {pair[side]["seconds"] for pairs in results.values() for pair in pairs
               for side in ("parent", "change")}
    for workload, pairs in results.items():
        if len(pairs) < 2:
            continue
        sides = {side: [pair[side] for pair in pairs] for side in ("parent", "change")}
        workloads[workload] = {
            "seeds": [pair["seed"] for pair in pairs],
            "pairs": len(pairs),
            "failed": {side: sum(r["failed"] for r in runs) for side, runs in sides.items()},
            "attempted": {side: sum(r["attempted"] for r in runs) for side, runs in sides.items()},
            "correct": {side: all(r["correct"] for r in runs) for side, runs in sides.items()},
            "metrics": {
                spec["name"]: compare(spec, [r["metrics"][spec["name"]] for r in sides["parent"]],
                                      [r["metrics"][spec["name"]] for r in sides["change"]])
                for spec in metrics_spec
            },
        }
    return {
        "change": args.label,
        "parent_commit": parent_commit,
        "command": "python3 perfbench/run.py --workload W --seed N --trace 0",
        "seconds": sorted(seconds),
        "protocol": "alternating pairs of parent and change, each side a fresh checkout; the "
                    "parent runs first in even pairs; one seed per pair; times in perfbench "
                    "reference seconds",
        "machine": machine(),
        "workloads": workloads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workdir", required=True, help="empty directory for the checkouts")
    parser.add_argument("--out", required=True, help="path of the BENCH_<n>.json to write")
    parser.add_argument("--label", required=True, help="one line saying what the change does")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parent_commit = subprocess.run(["git", "rev-parse", args.parent], check=True,
                                   capture_output=True, text=True).stdout.strip()
    workdir = Path(args.workdir)
    roots = {"parent": checkout(args.parent, workdir / "parent"),
             "change": checkout(args.change, workdir / "change")}

    results = {workload: [] for workload in workloads}
    for i in range(PAIRS):
        seed = i + 1
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            pair = {"seed": seed}
            for side in order:
                pair[side] = run_once(roots[side], workload, seed)
                print(f"pair {i} {workload} {side}: run_s {pair[side]['metrics']['run_s']:.3f}",
                      flush=True)
            results[workload].append(pair)
        Path(args.out).write_text(
            json.dumps(record(args, bench["end_to_end"], results, parent_commit), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
