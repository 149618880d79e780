"""Per-layer tracing for the benchmark's traced runs.

:func:`install` replaces the package functions named in :data:`TRACED` with
wrappers that time each call.  A span's self time is its duration minus the
durations of the spans it directly caused on the same thread.  Only the
functions whose metrics are reported are wrapped, so each self time is the
function's own code with every reported callee taken out.

The thread pool inside ``interferometer.ensemble_fringe`` is swapped for one
whose tasks are spans too: their self time counts as ensemble_fringe's own
work and their duration as pool busy time, while the caller's wait for the
pool counts as nobody's self time.

Workers of untraced runs never import this module.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

#: Module -> functions wrapped in a traced run, with the span name each gets.
TRACED = {
    "lattice": {"hamiltonian_on": "lattice.hamiltonian_on"},
    "dynamics": {
        "band_eig": "dynamics.band_eig",
        "solve_bands": "dynamics.solve_bands",
        "bloch_state": "dynamics.bloch_state",
        "evolve_columns": "dynamics.evolve_columns",
    },
    "shortcut": {
        "aligned_fidelity_block": "shortcut.aligned_fidelity_block",
        "fidelity": "shortcut.fidelity",
    },
    "interferometer": {
        "locked_sequence_operator": "interferometer.locked_sequence_operator",
        "ideal_pulse_operator": "interferometer.ideal_pulse_operator",
        "ensemble_fringe": "interferometer.ensemble_fringe",
        "contrast_curve": "interferometer.contrast_and_fit",
        "coherence_time": "interferometer.contrast_and_fit",
    },
}
#: RunWriter methods that write a file and return its path.
CLI_OUTPUT_METHODS = ("write_csv", "write_yaml", "write_json", "finish")

FRINGE = "interferometer.ensemble_fringe"
TASK = "interferometer.ensemble_fringe.task"
POOL_WAIT = "interferometer.ensemble_fringe.pool_wait"

#: (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("lattice.hamiltonian_on.calls", "count", "lower"),
    ("lattice.hamiltonian_on.self_s", "s", "lower"),
    ("dynamics.band_eig.calls", "count", "lower"),
    ("dynamics.solve_bands.calls", "count", "lower"),
    ("dynamics.solve_bands.self_s", "s", "lower"),
    ("dynamics.eig_cache.hit_ratio", "1", "higher"),
    ("interferometer.q_points", "count", "lower"),
    ("dynamics.bloch_state.calls", "count", "lower"),
    ("dynamics.bloch_state.self_s", "s", "lower"),
    ("dynamics.evolve_columns.calls", "count", "lower"),
    ("dynamics.evolve_columns.columns", "count", "lower"),
    ("dynamics.evolve_columns.self_s", "s", "lower"),
    ("shortcut.aligned_fidelity_block.calls", "count", "lower"),
    ("shortcut.aligned_fidelity_block.self_s", "s", "lower"),
    ("shortcut.fidelity.calls", "count", "lower"),
    ("shortcut.fidelity.self_s", "s", "lower"),
    ("interferometer.locked_sequence_operator.calls", "count", "lower"),
    ("interferometer.locked_sequence_operator.self_s", "s", "lower"),
    ("interferometer.ideal_pulse_operator.calls", "count", "lower"),
    ("interferometer.ideal_pulse_operator.self_s", "s", "lower"),
    ("interferometer.ensemble_fringe.self_s", "s", "lower"),
    ("interferometer.ensemble_fringe.worker_busy_s", "s", "lower"),
    ("interferometer.contrast_and_fit.self_s", "s", "lower"),
    ("cli.output.self_s", "s", "lower"),
    ("cli.output.bytes", "bytes", "lower"),
)


class Tracer:
    """Aggregates span counts, self and total times, and work counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.child_calls: Counter = Counter()  # (parent, child) -> calls
        self.columns = 0
        self.output_bytes = 0
        self.ensemble_q: set = set()
        self._fringes_open = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]  # name, time covered by direct children
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            with self._lock:
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.total_s[name] += duration
                self.child_calls[(parent, name)] += 1

    def note_band_eig(self, q) -> None:
        if self._fringes_open:
            with self._lock:
                self.ensemble_q.add((round(float(q[0]), 12), round(float(q[1]), 12)))

    def metrics(self) -> dict:
        """Every per-layer metric of :data:`PER_LAYER`, as plain numbers."""
        band_eig = self.calls["dynamics.band_eig"]
        solves = self.child_calls[("dynamics.band_eig", "dynamics.solve_bands")]
        out = {
            "dynamics.eig_cache.hit_ratio": 1.0 - solves / band_eig if band_eig else 0.0,
            "interferometer.q_points": len(self.ensemble_q),
            "dynamics.evolve_columns.columns": self.columns,
            "interferometer.ensemble_fringe.self_s": self.self_s[FRINGE] + self.self_s[TASK],
            "interferometer.ensemble_fringe.worker_busy_s": self.total_s[TASK],
            "cli.output.bytes": self.output_bytes,
        }
        for metric, _, _ in PER_LAYER:
            if metric in out:
                continue
            span, kind = metric.rsplit(".", 1)
            out[metric] = self.calls[span] if kind == "calls" else self.self_s[span]
        return out


def _traced_pool(tracer: Tracer):
    class TracedPool(ThreadPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            def task(*args):
                return tracer.call(TASK, fn, *args)

            results = tracer.call(
                POOL_WAIT, lambda: list(super(TracedPool, self).map(task, *iterables, **kwargs))
            )
            return iter(results)

    return TracedPool


def install(tracer: Tracer) -> None:
    """Wrap the traced functions in every ``artifact`` module that binds them."""
    import artifact
    from artifact import cli, dynamics, interferometer, lattice, shortcut

    modules = {
        "lattice": lattice,
        "dynamics": dynamics,
        "shortcut": shortcut,
        "interferometer": interferometer,
    }
    everywhere = [artifact, cli, *modules.values()]
    for mod_name, functions in TRACED.items():
        for fn_name, span in functions.items():
            original = getattr(modules[mod_name], fn_name)
            wrapper = _wrap(tracer, span, original)
            for mod in everywhere:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    interferometer.ThreadPoolExecutor = _traced_pool(tracer)
    for method in CLI_OUTPUT_METHODS:
        original = getattr(cli.RunWriter, method)
        setattr(cli.RunWriter, method, _wrap_output(tracer, original))


def _wrap(tracer: Tracer, span: str, fn):
    if span == "dynamics.band_eig":

        @functools.wraps(fn)
        def band_eig(q, *args, **kwargs):
            tracer.note_band_eig(q)
            return tracer.call(span, fn, q, *args, **kwargs)

        return band_eig
    if span == "dynamics.evolve_columns":

        @functools.wraps(fn)
        def evolve_columns(cols, *args, **kwargs):
            shape = getattr(cols, "shape", ())
            n = shape[1] if len(shape) == 2 else 1
            with tracer._lock:
                tracer.columns += n
            return tracer.call(span, fn, cols, *args, **kwargs)

        return evolve_columns
    if span == FRINGE:

        @functools.wraps(fn)
        def ensemble_fringe(*args, **kwargs):
            with tracer._lock:
                tracer._fringes_open += 1
            try:
                return tracer.call(span, fn, *args, **kwargs)
            finally:
                with tracer._lock:
                    tracer._fringes_open -= 1

        return ensemble_fringe

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(span, fn, *args, **kwargs)

    return traced


def _wrap_output(tracer: Tracer, method):
    @functools.wraps(method)
    def write(self, *args, **kwargs):
        path = tracer.call("cli.output", method, self, *args, **kwargs)
        with tracer._lock:
            tracer.output_bytes += os.path.getsize(path)
        return path

    return write
