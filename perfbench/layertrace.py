"""Outside-in layer tracing: wrap each layer's public functions where their
caller looks them up, record spans in memory, derive per-layer metrics.

Nothing in the program is edited.  Each wrapper replaces a module attribute
for the duration of a traced pass and is removed again afterwards.  Busy
times are thread CPU seconds (time.thread_time), so the emission sweep's
worker threads waiting for the interpreter lock do not count as busy; native
code that runs on threads of its own under a span would be undercounted.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (module path inside the package, attribute): the caller-side names the
# program resolves at call time.  cli.* are the names the CLI calls into the
# lower layers through; scattering.scatter_channels is the lookup inside
# gain_probabilities; master.spla.spsolve is scipy's solver as master sees it.
TRACED = (
    ("cli", "scatter_channels"),
    ("cli", "gain_probabilities"),
    ("cli", "jc_gain"),
    ("cli", "direct_steady_state"),
    ("cli", "rk4_steady_state"),
    ("cli", "twolevel_detailed_balance"),
    ("cli", "marginals"),
    ("cli", "moments"),
    ("cli", "serialize"),
    ("scattering", "scatter_channels"),
    ("master", "build_gain_table"),
    ("master.spla", "spsolve"),
)

# Span fields, in the order they are stored and written.
FIELDS = ("id", "name", "start", "end", "cpu", "parent", "thread", "request", "count")


class Tracer:
    """Collects spans from wrapped functions, on any thread."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.request = -1  # index of the CLI command in flight, set by the runner
        self._ids = itertools.count()
        self._local = threading.local()

    def _owner(self, path: str):
        obj = self.package
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def _wrap(self, name: str, original):
        spans, ids, local = self.spans, self._ids, self._local
        # rk4 reports its step count; that is the work count of its span
        counted = name == "cli.rk4_steady_state"

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.thread = threading.get_ident()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = time.perf_counter()
            cpu = time.thread_time()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                cpu = time.thread_time() - cpu
                end = time.perf_counter()
                stack.pop()
                count = result.iterations if counted and result is not None else 1
                spans.append((sid, name, start, end, cpu, parent, local.thread,
                              self.request, count))

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def installed(self):
        """Wrap every TRACED function; restore the originals on exit."""
        saved = []
        try:
            for path, attr in TRACED:
                owner = self._owner(path)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(f"{path}.{attr}", original))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(spans: list[tuple], run_s: float, points: int, output_bytes: int) -> dict:
    """Per-layer numbers of one traced pass, from its spans.

    A span's self time is its CPU time minus that of its direct children
    (children always run on the parent's thread).  cli.other_s is the pass's
    wall time minus the CPU time inside any span: argument parsing, building
    inputs, thread-pool overhead and file writes.
    """
    child_cpu = defaultdict(float)
    for span in spans:
        if span[5] is not None:
            child_cpu[span[5]] += span[4]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_cpu = defaultdict(float)
    counts = defaultdict(int)
    for sid, name, _start, _end, cpu, _parent, _thread, _request, count in spans:
        calls[name] += 1
        total[name] += cpu
        self_cpu[name] += cpu - child_cpu[sid]
        counts[name] += count
    in_spans = sum(span[4] for span in spans if span[5] is None)

    scatter = ("cli.scatter_channels", "scattering.scatter_channels")
    scatter_calls = sum(calls[n] for n in scatter)
    scatter_cpu = sum(total[n] for n in scatter)
    steps = counts["cli.rk4_steady_state"]
    return {
        "scattering.calls": scatter_calls,
        "scattering.busy_s": scatter_cpu + self_cpu["cli.gain_probabilities"],
        "scattering.eval_us": 1e6 * scatter_cpu / scatter_calls if scatter_calls else 0.0,
        "scattering.evals_per_point": scatter_calls / points if points else 0.0,
        "jc.calls": calls["cli.jc_gain"],
        "jc.busy_s": total["cli.jc_gain"],
        "master.gain_table_s": total["master.build_gain_table"],
        "master.gain_table_calls": calls["master.build_gain_table"],
        "master.direct.assembly_s": self_cpu["cli.direct_steady_state"],
        "master.direct.factor_s": total["master.spla.spsolve"],
        "master.rk4.steps": steps,
        "master.rk4.step_us": 1e6 * self_cpu["cli.rk4_steady_state"] / steps if steps else 0.0,
        "master.oracle_s": self_cpu["cli.twolevel_detailed_balance"],
        "stats.busy_s": total["cli.marginals"] + total["cli.moments"],
        "cli.serialize_s": total["cli.serialize"],
        "cli.output_bytes": output_bytes,
        "cli.other_s": run_s - in_spans,
    }
