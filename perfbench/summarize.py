"""Summarise the run records in perfbench/out/ as one JSON document.

    python3 perfbench/summarize.py > perfbench/baseline.json

For each workload: the median and quartiles over every untraced run record
of each end-to-end metric, the seeds they came from, and the per-layer
metrics of the seed-0 traced record with the median time of each
command over its untraced passes, in reference seconds (calibrate.py).
"""

from __future__ import annotations

import json
import statistics
import sys

import run
import workloads


def summarize() -> dict:
    result = {"workloads": {}}
    for name in workloads.WORKLOADS:
        records = [json.loads(p.read_text())
                   for p in sorted(run.OUT.glob(f"{name}-seed*-trace0.json"))]
        if not records:
            continue
        result.setdefault("environment", records[0]["environment"])
        summary = {"seeds": sorted(r["seed"] for r in records),
                   "failed": sum(r["failed"] for r in records),
                   "attempted": sum(r["attempted"] for r in records),
                   "end_to_end": {}}
        for metric, unit in run.END_TO_END_UNITS.items():
            values = [r["end_to_end"][metric] for r in records]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else (values[0],) * 3)
            summary["end_to_end"][metric] = {
                "unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values), "n": len(values)}
        traced = run.OUT / f"{name}-seed{workloads.PRESET_SEED}-trace1.json"
        if traced.is_file():
            record = json.loads(traced.read_text())
            summary["layers_seed0"] = {
                metric: {"value": record["layers"][metric], "unit": unit}
                for metric, unit in run.LAYER_UNITS.items()}
            plain = [p for p in record["passes"] if not p["traced"]]
            summary["command_s_seed0"] = {  # reference seconds, like every time reported
                cmd: statistics.median(p["command_s"][cmd] * p["scale"] for p in plain)
                for cmd in plain[0]["command_s"]}
        result["workloads"][name] = summary
    return result


if __name__ == "__main__":
    json.dump(summarize(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
