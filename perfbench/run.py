"""Benchmark of cascade_mazer, run through its CLI entry point in-process.

    python3 perfbench/run.py --workload emission --seed 1 --seconds 34 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  One
client runs the workload's commands back to back (a closed loop) through
`cascade_mazer.cli.main(argv)`, repeating whole passes until `--seconds` is
used up, and checks every output.  `--trace 0` prints the end-to-end metrics;
`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics.  The last line of stdout is one JSON object; a readable report with
every metric, its unit and its sample count comes before it.  Run records,
spans and the output tables go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import checks
import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 7
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "PYTHON_CPU_COUNT")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "items_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "scattering.calls": "count", "scattering.busy_s": "s", "scattering.eval_us": "us",
    "scattering.evals_per_point": "evals/point", "jc.calls": "count", "jc.busy_s": "s",
    "master.gain_table_s": "s", "master.gain_table_calls": "count",
    "master.direct.assembly_s": "s", "master.direct.factor_s": "s",
    "master.rk4.steps": "count", "master.rk4.step_us": "us", "master.oracle_s": "s",
    "stats.busy_s": "s", "cli.serialize_s": "s", "cli.output_bytes": "bytes",
    "cli.other_s": "s", "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Pass:
    traced: bool
    run_s: float
    cpu_s: float
    texts: dict  # command name -> output text, for the commands that ran
    command_s: dict  # command name -> wall seconds
    layers: dict = field(default_factory=dict)
    scale: float = 1.0  # reference seconds per wall second while the pass ran


def pin_to_one_cpu() -> int:
    """Run every thread of this process, and every thread and process it
    starts, on one CPU; returns which.

    For workloads that run the program's thread pool (Workload.one_cpu).
    Its threads queue for the interpreter lock, and on two CPUs of a shared
    host each hand-over of the lock to a thread on the other CPU waits for
    the host to wake that CPU: the same pass took 5.9 s or 8.5 s depending on
    the neighbours.  On one CPU the hand-overs are plain thread switches, and
    the sampler in calibrate.py measures the very CPU the threads run on.
    """
    cpu = max(os.sched_getaffinity(0))
    for tid in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(tid), {cpu})
    return cpu


def load_program():
    """Import cascade_mazer from this checkout's src/, never from elsewhere."""
    if not (SRC / "cascade_mazer" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'cascade_mazer'}; "
                         "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import cascade_mazer
    import cascade_mazer.cli

    if Path(cascade_mazer.__file__).resolve().parent != SRC / "cascade_mazer":
        raise BenchError(f"imported cascade_mazer from {cascade_mazer.__file__}, not {SRC}")
    return cascade_mazer


def measure_setup(version: str, sampler) -> tuple[list[float], list[float]]:
    """Fresh interpreter -> import -> build the parser, via `--version`.

    Returns the wall time of each repeat and its scale to reference seconds.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "cascade_mazer.cli", "--version"]
    times, scales = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        end = time.perf_counter()
        times.append(end - start)
        scales.append(sampler.scale(start, end))
        if proc.returncode != 0 or proc.stdout.strip() != version:
            raise BenchError(f"`{' '.join(argv[1:])}` failed: {proc.stderr.strip()}")
    return times, scales


def run_command(cli, argv, out: Path) -> str | None:
    """Run one CLI command writing to `out`; its error, or None on success."""
    try:
        code = cli.main(list(argv) + ["--out", str(out)])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:  # any crash counts as a failed command
        return f"raised {exc!r}"
    return None if code == 0 else f"exit code {code}"


def run_pass(cli, work, table_dir: Path, errors: dict, sampler, tracer=None) -> Pass:
    gc.collect()
    paths = {cmd.name: table_dir / f"{cmd.name}.csv" for cmd in work.commands}
    for path in paths.values():
        path.unlink(missing_ok=True)
    failed, command_s = {}, {}
    run_s = cpu_s = 0.0
    start = time.perf_counter()
    for index, cmd in enumerate(work.commands):
        if tracer is not None:
            tracer.request = index
        begin, cpu = time.perf_counter(), time.process_time()
        error = run_command(cli, cmd.argv, paths[cmd.name])
        command_s[cmd.name] = time.perf_counter() - begin
        run_s += command_s[cmd.name]
        cpu_s += time.process_time() - cpu
        if error is not None:
            failed[cmd.name] = error
    scale = sampler.scale(start, time.perf_counter())
    for name, error in failed.items():
        errors.setdefault(name, []).append(error)
    texts = {name: path.read_text() for name, path in paths.items() if name not in failed}
    return Pass(tracer is not None, run_s, cpu_s, texts, command_s, scale=scale)


def check_pass(work, this: Pass, state: dict, direct_text: str | None,
               reference: dict | None, errors: dict) -> set:
    """Names of the commands whose output in this pass is missing or wrong.

    The first text seen for a command gets every check; later passes must
    repeat its bytes exactly, traced or not, and inherit its verdict.
    """
    first, bad, identical = state["first"], state["bad"], state["identical"]
    failed = set()
    for cmd in work.commands:
        text = this.texts.get(cmd.name)
        if text is None:
            failed.add(cmd.name)
            continue
        if cmd.name in first:
            if text != first[cmd.name]:
                kind = "traced" if this.traced else "repeated"
                errors.setdefault(cmd.name, []).append(
                    f"{kind} pass wrote different bytes from the first pass")
                failed.add(cmd.name)
            elif cmd.name in bad:
                failed.add(cmd.name)
            continue
        first[cmd.name] = text
        problems = checks.check_output(cmd.kind, text, cmd.expect)
        if cmd.expect.get("method") == "rk4":
            if direct_text is None:
                problems.append("no direct solve to cross-check against")
            else:
                distance = checks.marginal_distance(text, direct_text)
                if distance > checks.RK4_VS_DIRECT_TOL:
                    problems.append(f"rk4 marginals differ from the direct solve by "
                                    f"{distance:.3e} in 1-norm")
        if reference is not None:
            entry = reference["outputs"].get(cmd.name)
            if entry is None:
                problems.append("no reference output stored for this command")
            else:
                off, identical[cmd.name] = checks.compare_reference(text, entry)
                problems += off
        if problems:
            errors.setdefault(cmd.name, []).extend(problems)
            bad.add(cmd.name)
            failed.add(cmd.name)
    return failed


def median(values):
    return statistics.median(values) if values else 0.0


def environment(package) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "package_version": package.__version__,
        "commit": commit(),
    }


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.PRESET_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args) -> dict:
    # set-up is timed within --seconds too, so a run's length does not grow with it
    deadline = time.perf_counter() + args.seconds
    work = workloads.generate(args.workload, args.seed)
    pinned = pin_to_one_cpu() if work.one_cpu else None
    package = load_program()
    # starting an interpreter and importing is scalar work in every workload
    with calibrate.Sampler("scalar") as sampler:
        setup, setup_scales = measure_setup(package.__version__, sampler)
    with calibrate.Sampler(work.kernel) as sampler:
        return measure(args, package, work, sampler, deadline, pinned, setup, setup_scales)


def measure(args, package, work, sampler, deadline, pinned: int | None,
            setup: list[float], setup_scales: list[float]) -> dict:
    cli = package.cli
    env = dict(environment(package), pinned_cpu=pinned)
    reference = None
    if args.seed == workloads.PRESET_SEED:
        reference = json.loads(REFERENCE.read_text())

    table_dir = OUT / "tables" / args.workload
    table_dir.mkdir(parents=True, exist_ok=True)
    for argv in work.warmup:
        error = run_command(cli, argv, table_dir / "warmup.csv")
        if error is not None:
            raise BenchError(f"warm-up command {argv} failed: {error}")

    errors: dict[str, list[str]] = {}
    direct_text = None
    if work.cross_check is not None:
        path = table_dir / f"{work.cross_check.name}.csv"
        error = run_command(cli, work.cross_check.argv, path)
        if error is None:
            direct_text = path.read_text()
            problems = checks.check_output("steady", direct_text, work.cross_check.expect)
            if problems:
                direct_text = None
                errors[work.cross_check.name] = problems
        else:
            errors[work.cross_check.name] = [error]

    tracer = layertrace.Tracer(package) if args.trace else None
    points = sum(cmd.points for cmd in work.commands)
    items = points + sum(cmd.states for cmd in work.commands)
    passes: list[Pass] = []
    state = {"first": {}, "bad": set(), "identical": {}}
    failed = 0
    while True:
        if tracer is not None and len(passes) % 2 == 1:
            mark = len(tracer.spans)
            with tracer.installed():
                this = run_pass(cli, work, table_dir, errors, sampler, tracer)
            output_bytes = sum(len(t.encode()) for t in this.texts.values())
            layers = layertrace.layer_metrics(tracer.spans[mark:], this.run_s,
                                              points, output_bytes)
            # times in reference seconds, like the end-to-end ones; counts as counted
            this.layers = {name: value * this.scale if LAYER_UNITS[name] in ("s", "us")
                           else value for name, value in layers.items()}
        else:
            this = run_pass(cli, work, table_dir, errors, sampler)
        passes.append(this)
        failed += len(check_pass(work, this, state, direct_text, reference, errors))
        # two passes at least: a median of two in plain runs, and an untraced
        # pass to compare the traced one with in traced runs
        next_end = time.perf_counter() + median([p.run_s for p in passes])
        if len(passes) >= 2 and next_end > deadline:
            break

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    samples = {  # reference seconds: wall or CPU seconds times the span's scale
        "setup_s": [t * scale for t, scale in zip(setup, setup_scales)],
        "run_s": [p.run_s * p.scale for p in plain],
        "items_per_s": [items / (p.run_s * p.scale) for p in plain],
        "cpu_s": [p.cpu_s * p.scale for p in plain],
    }
    end_to_end = {name: median(values) for name, values in samples.items()}
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = {"setup_s": median(setup), "run_s": median([p.run_s for p in plain]),
            "cpu_s": median([p.cpu_s for p in plain])}
    layers = {}
    if traced:
        layers = {name: median([p.layers[name] for p in traced]) for name in traced[0].layers}
        layers["trace.overhead_s"] = (median([p.run_s * p.scale for p in traced])
                                      - end_to_end["run_s"])
        # one file per workload, so repeated runs do not pile up spans
        tracer.write(OUT / f"spans-{args.workload}.jsonl")

    attempted = len(passes) * len(work.commands)
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "inputs": work.inputs,
        "commands": {cmd.name: list(cmd.argv) for cmd in work.commands},
        "items": items, "setup_runs_s": setup, "setup_scales": setup_scales,
        "kernel": work.kernel, "reference_s": calibrate.REFERENCE_S[work.kernel],
        "kernel_samples": len(sampler.kernel_s),
        "passes": [{"traced": p.traced, "run_s": p.run_s, "cpu_s": p.cpu_s,
                    "scale": p.scale, "command_s": p.command_s} for p in passes],
        "samples": samples, "end_to_end": end_to_end, "wall": wall, "layers": layers,
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "errors": errors,
        "reference_bytes_identical": state["identical"] if reference is not None else None,
    }


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    # no tail percentile: a pass is too long to get the 11+ samples one needs
    return f"n={len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def report(result: dict) -> None:
    """Human-readable lines: the environment, the inputs, every metric."""
    env = result["environment"]
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"seconds={result['seconds']:g}")
    cpus = "all usable" if env["pinned_cpu"] is None else f"pinned to cpu {env['pinned_cpu']}"
    print(f"  machine: {env['nproc']} cpus ({cpus}), {env['cpu']}; "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}; "
          f"threads {json.dumps({k: v for k, v in env['thread_env'].items() if v})}")
    print(f"  program: cascade_mazer {env['package_version']} at {env['commit']}")
    print(f"  inputs: {json.dumps(result['inputs'], sort_keys=True)}")
    print(f"  items per pass: {result['items']} "
          f"({'sweep points' if result['workload'] == 'emission' else 'grid states solved'})")
    traced = [p for p in result["passes"] if p["traced"]]
    e2e, samples = result["end_to_end"], result["samples"]
    scales = result["setup_scales"] + [p["scale"] for p in result["passes"]]
    print(f"  times in reference seconds: set-up by the scalar reference kernel, passes by "
          f"{result['kernel_samples']} samples of the {result['kernel']} one (it takes "
          f"{result['reference_s'] * 1e6:g} us); this run's spans ran at {min(scales):.3g} to {max(scales):.3g} reference s "
          f"per wall s")
    for name, unit in END_TO_END_UNITS.items():
        extra = f"  median ({_spread(samples[name])})" if name in samples else ""
        print(f"  {name:<28} {e2e[name]:>14.6g} {unit}{extra}")
    for name, value in result["wall"].items():
        print(f"  {name + ' (wall clock)':<28} {value:>14.6g} s  median, not rescaled")
    print(f"  {'failed_ratio':<28} {result['failed_ratio']:>14.6g} "
          f"({result['failed']} of {result['attempted']} commands)")
    if result["layers"]:
        print(f"  traced passes: {len(traced)}; layer values are medians over them")
        for name, unit in LAYER_UNITS.items():
            print(f"  {name:<28} {result['layers'][name]:>14.6g} {unit}")
    if result["reference_bytes_identical"] is not None:
        same = result["reference_bytes_identical"]
        print(f"  reference bytes identical: {all(same.values()) and bool(same)} "
              f"{json.dumps(same, sort_keys=True)}")
    for name, problems in result["errors"].items():
        for problem in problems[:5]:
            print(f"  FAILED {name}: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    try:
        result = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    report(result)
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
