"""Benchmark of the band-basis simulator: one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload interferometry --seed 1 --seconds 20 --trace 0

Every timed operation runs in a fresh worker process (``worker.py``) with
BLAS pinned to one thread.  The run first starts a few workers that only set
the package up, then repeats whole operations until the next one would end
after ``--seconds``; it always runs at least one.  Outputs are checked against
the reference model (``reference.py``) outside the timed region.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics from a traced worker with ``--trace 1``).  Lines before it give the
environment and every figure by name with its unit.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and in every worker: the package's own
# thread pool is then the only source of parallelism.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("interferometry", "coherence-scan", "design")
#: Gated metrics, defined on every workload.  Operation times are printed
#: but not gated: on two shared vCPUs one design run took 33 to 56 s of CPU
#: time over ten runs (spread 0.26, IQR / median), more than the largest
#: bound a gated metric may have.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 5
#: No operation starts once the run is this old, so a run ends well inside
#: the 180 s a run may take.
LAST_START_S = 110.0
WORKER_TIMEOUT_S = 150.0
NPROC = len(os.sched_getaffinity(0))
#: Quadrature points per axis in ``--smoke`` runs (21 otherwise); the
#: smallest grid on which the coherence fits still behave.
SMOKE_QUADRATURE = 9


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def hold_grid(rng, t_max: float, dt: float) -> dict:
    """Hold times t0 + k dt, as many as np.arange(0, t_max, dt) has, with the
    start t0 drawn so that every time stays below t_max."""
    n = len(np.arange(0.0, t_max, dt))
    return {"t0": float(rng.uniform(0.0, t_max - dt * (n - 1))), "dt": dt, "n": n}


def times_of(grid: dict) -> np.ndarray:
    return grid["t0"] + grid["dt"] * np.arange(grid["n"])


def interferometry_params(rng, smoke: bool) -> dict:
    quadrature = SMOKE_QUADRATURE if smoke else 21
    ramsey = hold_grid(rng, 2500.0, 8.0)
    echo = hold_grid(rng, 5000.0, 16.0)
    qs, _ = reference.gaussian_grid(0.72, quadrature)
    samples = {}
    for name, grid in (("ramsey", ramsey), ("echo", echo)):
        picks = rng.choice(len(qs), size=3, replace=False)
        ts = times_of(grid)[rng.choice(grid["n"], size=3, replace=False)]
        samples[name] = [(qs[i].tolist(), float(t)) for i, t in zip(picks, ts)]
    return {
        "fwhm": 0.72,
        "quadrature": quadrature,
        "threads": 1,
        "ramsey": ramsey,
        "echo": echo,
        "samples": samples,
    }


def coherence_scan_params(rng, smoke: bool) -> dict:
    grids = ((0.72, 2500.0, 4.0), (0.56, 4000.0, 4.0), (0.20, 20000.0, 8.0))
    widths = []
    for fwhm, t_max, dt in grids:
        widths.append({"fwhm": fwhm, **hold_grid(rng, t_max, dt)})
    return {"quadrature": SMOKE_QUADRATURE if smoke else 21, "threads": NPROC, "widths": widths}


def design_params(rng, smoke: bool) -> dict:
    # The optimizer's work depends on its seed, so the design input stays the
    # command line's default; a seed-dependent work count would make design
    # times measure the seed instead of the code.
    argv = ["design", "--kind", "pi2", "--steps", "5"]
    if smoke:
        WORK.mkdir(parents=True, exist_ok=True)
        config = WORK / "smoke-design.yaml"
        config.write_text("optimizer:\n  max_iters: 5\n  restarts: 1\n")
        argv += ["--config", str(config), "--threshold", "0"]
    return {"argv": argv, "threads": 1}


PARAMS = {
    "interferometry": interferometry_params,
    "coherence-scan": coherence_scan_params,
    "design": design_params,
}


class Checker:
    """Checks each operation of one workload, building the reference once."""

    def __init__(self, workload: str, params: dict, smoke: bool):
        self.workload = workload
        self.params = params
        self.smoke = smoke
        self.model = reference.ReferenceLattice()
        self.expected = None
        self.first_fringes = None

    def _reference(self, outputs: dict):
        p = self.params
        if self.workload == "interferometry":
            # The reference propagates the durations the package says it used.
            pi2, pi = outputs["pulses"]["pi2"], outputs["pulses"]["pi"]
            return {
                "ramsey": [self.model.ramsey_pd(pi2, q, [t])[0] for q, t in p["samples"]["ramsey"]],
                "echo": [self.model.echo_pd(pi2, pi, 2, q, [t])[0] for q, t in p["samples"]["echo"]],
            }
        if self.workload == "coherence-scan":
            return [
                self.model.ideal_ramsey_fringe(g["fwhm"], times_of(g), p["quadrature"])
                for g in p["widths"]
            ]
        return None

    def __call__(self, result: dict, out_dir: Path) -> list[str]:
        out = result["outputs"]
        if self.expected is None:
            self.expected = self._reference(out)
        if self.workload == "interferometry":
            problems = checks.check_interferometry(out, result["samples"], self.expected)
            fringes = [out["ramsey"]["p_d"], out["echo"]["p_d"]]
        elif self.workload == "coherence-scan":
            problems = checks.check_coherence_scan(out, self.expected)
            fringes = [f["p_d"] for f in out["fringes"]]
        else:
            return checks.check_design(
                out["exit_code"], out_dir, self.model.fidelity, floor=0.0 if self.smoke else 0.98
            )
        # Outputs are documented to be identical across reruns.
        if self.first_fringes is None:
            self.first_fringes = fringes
        elif fringes != self.first_fringes:
            problems.append("fringe differs from this run's first operation")
        return problems


def run_worker(job: str, params: dict, trace: bool, timeout: float) -> dict:
    """Run one worker to its end; return its result or {'error': ...}."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    request = {"job": job, "params": params, "trace": trace}
    request["spawned"] = now()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"no result (exit {proc.returncode}): {proc.stderr[-2000:]}"}
    if proc.returncode != 0 and "error" not in result:
        result["error"] = f"worker exited with code {proc.returncode}: {proc.stderr[-2000:]}"
    return result


def stage_sum(result: dict, key: str) -> float:
    return sum(s[key] for s in result["stages"].values())


def stage_lines(workload: str, params: dict, done: list) -> list[str]:
    """The workload's own figures by name and unit, medians over operations."""
    med = statistics.median
    n = f"(median of {len(done)} operations)"
    lines = [
        f"  wall_s {med([stage_sum(r, 'wall_s') for r in done]):.4f} s {n}",
        f"  cpu_s {med([stage_sum(r, 'cpu_s') for r in done]):.4f} s {n}",
    ]
    if workload == "interferometry":
        for stage in ("ramsey", "echo"):
            lines.append(f"  {stage}_s {med([r['stages'][stage]['wall_s'] for r in done]):.4f} s {n}")
        samples = sum(params[s]["n"] for s in ("ramsey", "echo")) * params["quadrature"] ** 2
    elif workload == "coherence-scan":
        lines.append(f"  coherence_scan_s {med([stage_sum(r, 'wall_s') for r in done]):.4f} s {n}")
        samples = sum(g["n"] for g in params["widths"]) * params["quadrature"] ** 2
    else:
        lines.append(f"  design_s {med([r['stages']['design']['wall_s'] for r in done]):.4f} s {n}")
        lines.append(f"  design_fidelity {med([r['design_fidelity'] for r in done]):.10f} 1 {n}")
        return lines
    rate = med([samples / stage_sum(r, "wall_s") for r in done])
    lines.append(f"  fringe_samples_per_s {rate:.1f} 1/s ({samples} q-point x hold-time samples)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "artifact" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'artifact'}", file=sys.stderr)
        return 2

    started = now()
    rng = np.random.default_rng(args.seed)
    params = PARAMS[args.workload](rng, args.smoke)
    check = Checker(args.workload, params, args.smoke)
    run_dir = WORK / f"{args.workload}-{os.getpid()}"

    setups = []
    for _ in range(SETUP_PROBES):
        probe = run_worker("setup", {}, False, WORKER_TIMEOUT_S)
        if "error" in probe:
            print(f"error: set-up failed: {probe['error']}", file=sys.stderr)
            return 1
        setups.append(probe["setup_s"])

    done, failed, wrong = [], 0, 0
    environment = None
    t0 = now()
    while True:
        out_dir = run_dir / f"op{len(done) + failed}"
        p = dict(params)
        if args.workload == "design":
            p["argv"] = params["argv"] + ["--out", str(out_dir)]
        result = run_worker(args.workload, p, bool(args.trace), WORKER_TIMEOUT_S)
        if "error" in result:
            failed += 1
            print(f"operation failed: {result['error']}", file=sys.stderr)
        else:
            problems = check(result, out_dir)
            if problems:
                failed += 1
                wrong += 1
                print("check failed: " + "; ".join(problems), file=sys.stderr)
            else:
                if args.workload == "design":
                    _, result["design_fidelity"] = checks.read_sequence(out_dir / "sequence.yaml")
                done.append(result)
                setups.append(result["setup_s"])
                environment = result["environment"]
        attempted = len(done) + failed
        elapsed = now() - t0
        per_op = elapsed / attempted
        if elapsed + per_op > args.seconds or now() - started > LAST_START_S:
            break
    shutil.rmtree(run_dir, ignore_errors=True)

    if not done:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    environment["threads"] = params["threads"]
    environment["blas_thread_vars"] = {v: os.environ[v] for v in BLAS_THREAD_VARS}
    print("environment " + json.dumps(environment, sort_keys=True))
    traced = " (traced: timings include tracing overhead)" if args.trace else ""
    print(f"workload {args.workload}: threads {params['threads']}, "
          f"operations attempted {attempted}, failed {failed}{traced}")
    for line in stage_lines(args.workload, params, done):
        print(line)

    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["per_layer"][name] for r in done), "unit": unit}
            for name, unit, _ in tracing.PER_LAYER
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(f"metrics (medians of {len(setups)} set-ups and {len(done)} operations):")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
