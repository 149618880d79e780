"""One benchmark operation in a fresh process.

Usage: ``python3 perfbench/worker.py '<json request>'``.  The request names
the job (``setup`` alone, or a workload), its parameters, whether to trace,
and the CLOCK_MONOTONIC reading taken just before the process was spawned.
The worker prints one JSON line with its timings and the outputs that the
parent checks.  A fresh process per operation means the package's
module-level eigen-cache starts empty, as it does for a command-line user;
the parent sets the BLAS thread variables to 1 in this process's environment.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


class Stages:
    """Wall and CPU time of each timed stage of one operation."""

    def __init__(self) -> None:
        self.times: dict = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        wall0, cpu0 = now(), cpu()
        yield
        self.times[name] = {"wall_s": now() - wall0, "cpu_s": cpu() - cpu0}


class Package:
    """The package, imported and set up as every workload needs it."""

    def __init__(self) -> None:
        import numpy as np

        from artifact import cli, interferometer, lattice, sequences, shortcut

        self.np = np
        self.cli = cli
        self.ifm = interferometer
        self.sequences = sequences
        self.spec = lattice.LatticeSpec()
        self.basis = lattice.build_basis(self.spec, shell_radius=5)
        self.period = lattice.fringe_period_us(self.spec, self.basis)
        # Part of set-up as a library user meets it, though no job reads it.
        shortcut.build_objective(shortcut.ObjectiveKind.HALF_PI, self.spec, self.basis)


def _fringe_and_fit(pkg: Package, kind, pulses, times, width, quadrature, window, threads, n_echo=2):
    ens = pkg.ifm.EnsembleSpec.from_width(width, reading="fwhm", quadrature=quadrature)
    fringe = pkg.ifm.ensemble_fringe(
        kind, pulses, times, ens, pkg.spec, pkg.basis, n_echo=n_echo, threads=threads
    )
    fit = pkg.ifm.coherence_time(pkg.ifm.contrast_curve(fringe, window))
    return fringe.p_d, fit.fit_tau_us


def interferometry(pkg: Package, p: dict, stage: Stages) -> dict:
    """Ramsey then n=2 echo with the shipped pulses, in one process."""
    np, ifm = pkg.np, pkg.ifm
    pulses = ifm.SequencePulses(pi2=pkg.sequences.REFERENCE_PI2, pi=pkg.sequences.REFERENCE_PI)
    out = {}
    for name, kind, window in (
        ("ramsey", ifm.FringeKind.RAMSEY, pkg.period),
        ("echo", ifm.FringeKind.ECHO, 2.0 * pkg.period),
    ):
        g = p[name]
        times = g["t0"] + g["dt"] * np.arange(g["n"])
        with stage(name):
            p_d, tau = _fringe_and_fit(
                pkg, kind, pulses, times, p["fwhm"], p["quadrature"], window, p["threads"]
            )
        out[name] = {"p_d": p_d.tolist(), "tau_us": tau}
    out["pulses"] = {
        name: [[s.t_on, s.t_off] for s in seq.steps]
        for name, seq in (("pi2", pulses.pi2), ("pi", pulses.pi))
    }
    return out


def interferometry_samples(pkg: Package, p: dict) -> dict:
    """The package's own per-q P_D at the (q, t) points the parent checks."""
    np, ifm = pkg.np, pkg.ifm
    pulses = ifm.SequencePulses(pi2=pkg.sequences.REFERENCE_PI2, pi=pkg.sequences.REFERENCE_PI)
    return {
        "ramsey": [
            ifm.ramsey_pd(pulses, t, np.array(q), pkg.spec, pkg.basis)
            for q, t in p["samples"]["ramsey"]
        ],
        "echo": [
            ifm.echo_pd(pulses, None, 2, t, np.array(q), pkg.spec, pkg.basis)
            for q, t in p["samples"]["echo"]
        ],
    }


def coherence_scan(pkg: Package, p: dict, stage: Stages) -> dict:
    """Ideal-pulse Ramsey at three widths on a thread pool."""
    np, ifm = pkg.np, pkg.ifm
    out = {"fringes": []}
    for g in p["widths"]:
        times = g["t0"] + g["dt"] * np.arange(g["n"])
        with stage(f"fwhm_{g['fwhm']}"):
            p_d, tau = _fringe_and_fit(
                pkg, ifm.FringeKind.RAMSEY, ifm.IdealPulses(), times, g["fwhm"],
                p["quadrature"], pkg.period, p["threads"],
            )
        out["fringes"].append({"fwhm": g["fwhm"], "p_d": p_d.tolist(), "tau_us": tau})
    return out


def design(pkg: Package, p: dict, stage: Stages) -> dict:
    """The command line's design run, called in-process."""
    printed = io.StringIO()
    with stage("design"), contextlib.redirect_stdout(printed):
        code = pkg.cli.main(p["argv"])
    return {"exit_code": code, "stdout": printed.getvalue()}


JOBS = {"interferometry": interferometry, "coherence-scan": coherence_scan, "design": design}
#: Untimed work after an operation, outside the traced counts too.
SAMPLES = {"interferometry": interferometry_samples}


def blas_info() -> list:
    """Each loaded OpenBLAS library with its build string and thread count."""
    with open("/proc/self/maps") as f:
        paths = sorted({line.split()[-1] for line in f if "openblas" in line.split()[-1].lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    entry.update(config=config().decode(), threads=threads())
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }


def main() -> None:
    request = json.loads(sys.argv[1])
    pkg = Package()
    result = {"setup_s": now() - request["spawned"]}
    if request["job"] != "setup":
        tracer = None
        if request["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        stage = Stages()
        result["outputs"] = JOBS[request["job"]](pkg, request["params"], stage)
        result["stages"] = stage.times
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["per_layer"] = tracer.metrics()
        if request["job"] in SAMPLES:
            result["samples"] = SAMPLES[request["job"]](pkg, request["params"])
        result["environment"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except Exception:  # reported to the parent, which counts a failed operation
        print(json.dumps({"error": traceback.format_exc()}))
        sys.exit(1)
