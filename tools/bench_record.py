"""Record paired perfbench runs of a parent commit and of this checkout.

Usage, from the root of a checkout::

    python3 tools/bench_record.py --parent <rev> --out BENCH_<n>.json
    python3 tools/bench_record.py --workload design --pairs 1 --smoke --out bench.json

For each workload, ``perfbench/run.py --seed S --trace 0`` runs once per
seed in both checkouts, the side that goes first alternating from seed to
seed, then ``--trace 1`` runs once in each.  The parent is the commit
``--parent`` extracted with ``git archive`` into a temporary directory; this
checkout runs as its files stand.  Without ``--parent`` only this checkout
runs.  The output file holds the environment, the commits, the seeds, every
run's printed figures and metrics, and per side the median and quartiles of
each.  A printed line that is missing or cannot be read stops the recorder
with an error.  Unless ``--smoke`` is given, the tier-1 suite then runs
``TIER1_ROUNDS`` times per side with BLAS pinned to one thread, the side that
goes first alternating from round to round, and the file records each run's
wall time, pytest's summary line and the ten slowest tests, and per side the
median wall time: one run per side cannot resolve a 10 % difference.
Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
HEADER = re.compile(r"workload (\S+): threads (\d+), operations attempted (\d+), failed (\d+)")
# As perfbench/run.py pins them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10",
         "-p", "no:cacheprovider"]
DURATION = re.compile(r"(\d+\.\d+)s (setup|call|teardown) +(.+)$")
TIER1_ROUNDS = 3


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def src_sha256(checkout: Path) -> str:
    """One hash over the package source files, paths included."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def extract(rev: str, dest: Path) -> None:
    with subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE) as archive:
        tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    if archive.returncode or tar.returncode:
        raise SystemExit(f"error: cannot extract {rev} with git archive")


def parse(stdout: str, trace: int) -> dict:
    """The figures a run prints: environment, counts, the workload's own
    figures and the metrics of the JSON line."""
    lines = stdout.strip().splitlines()
    env = [line for line in lines if line.startswith("environment ")]
    heads = [i for i, line in enumerate(lines) if HEADER.match(line)]
    if len(env) != 1 or len(heads) != 1:
        raise ValueError("expected one 'environment' line and one 'workload' line")
    result = json.loads(lines[-1])
    threads, attempted, failed = map(int, HEADER.match(lines[heads[0]]).groups()[1:])
    if (attempted, failed) != (result["attempted"], result["failed"]):
        raise ValueError("the workload line and the JSON line disagree on the counts")
    figures = {}
    for line in lines[heads[0] + 1:]:
        if not line.startswith("  "):
            break
        name, value, unit = line.split()[:3]
        figures[name] = {"value": float(value), "unit": unit}
    gated = BENCHMARK["per_layer" if trace else "end_to_end"]
    missing = [n for n in ("wall_s", "cpu_s") if n not in figures]
    missing += [m["name"] for m in gated if m["name"] not in result["metrics"]]
    if missing:
        raise ValueError(f"missing from the printed lines: {', '.join(missing)}")
    return {"environment": json.loads(env[0][len("environment "):]), "threads": threads,
            "correct": result["correct"], "attempted": attempted, "failed": failed,
            "figures": figures, "metrics": result["metrics"]}


def run(checkout: Path, workload: str, seed: int, trace: int, args) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
               str(seed), "--seconds", f"{args.seconds:g}", "--trace", str(trace)]
    command += ["--smoke"] if args.smoke else []
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(command[1:])} in {checkout} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return parse(proc.stdout, trace)
    except (ValueError, KeyError, IndexError) as exc:
        raise SystemExit(f"error: cannot read the output of {' '.join(command[1:])}: {exc}\n"
                         f"{proc.stdout[-2000:]}")


def tier1(checkout: Path) -> dict:
    """The tier-1 suite once in ``checkout``, BLAS pinned to one thread: its
    exit code, wall time, summary line and ten slowest tests."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in BLAS_THREAD_VARS}, PYTHONPATH="src")
    print(f"tier-1 in {checkout}", file=sys.stderr, flush=True)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in map(DURATION.match, lines) if m]
    if not lines or not slowest:
        raise SystemExit(f"error: cannot read the tier-1 output in {checkout}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {"exit_code": proc.returncode, "wall_s": round(wall_s, 2),
            "summary": lines[-1].strip("= "), "slowest": slowest}


def tier1_rounds(sides: dict) -> dict:
    """Per side, every tier-1 run of :data:`TIER1_ROUNDS` rounds, in each of
    which the side that goes first alternates as the seeds do, and their
    median wall time."""
    names = list(sides)
    runs = {side: [] for side in names}
    for round_ in range(1, TIER1_ROUNDS + 1):
        for side in names if round_ % 2 else names[::-1]:
            runs[side].append(tier1(sides[side]))
    return {side: {"runs": r, "median_wall_s": statistics.median(x["wall_s"] for x in r)}
            for side, r in runs.items()}


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    q1, _, q3 = statistics.quantiles(values * (2 if len(values) == 1 else 1), n=4,
                                     method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list) -> dict:
    """Per figure and metric of the untraced runs of one side."""
    series = {"attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs]}
    for r in runs:
        for name, f in {**r["figures"], **r["metrics"]}.items():
            series.setdefault(name, []).append(f["value"])
    return {name: spread(values) for name, values in series.items()}


def record_workload(workload: str, sides: dict, args) -> dict:
    runs = []
    names = list(sides)
    for seed in args.seeds:
        order = names if seed % 2 else names[::-1]
        for side in order:
            print(f"{workload} seed {seed} {side}", file=sys.stderr, flush=True)
            runs.append({"side": side, "seed": seed, "trace": 0,
                         **run(sides[side], workload, seed, 0, args)})
    traced = {}
    for side in names:
        print(f"{workload} traced {side}", file=sys.stderr, flush=True)
        traced[side] = run(sides[side], workload, args.seeds[0], 1, args)
        runs.append({"side": side, "seed": args.seeds[0], "trace": 1, **traced[side]})
    out = {"threads": runs[0]["threads"], "runs": runs,
           "summary": {side: summarize([r for r in runs if r["side"] == side and not r["trace"]])
                       for side in names}}
    if len(names) == 2:
        counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
        out["traced_count_differences"] = [
            n for n in counts
            if traced["parent"]["metrics"][n]["value"] != traced["change"]["metrics"][n]["value"]]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="commit to compare with (default: this checkout alone)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat for several (default: every workload)")
    parser.add_argument("--pairs", type=int, default=5, help="untraced runs per side, seeds 1..N")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--smoke", action="store_true",
                        help="perfbench's reduced sizes, and no tier-1 run")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    args.seeds = list(range(1, args.pairs + 1))

    commits = {"change": {"head": git("rev-parse", "HEAD"),
                          "modified": git("status", "--porcelain").splitlines(),
                          "src_sha256": src_sha256(ROOT)}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as scratch:
        sides = {"change": ROOT}
        if args.parent:
            sides = {"parent": Path(scratch), "change": ROOT}
            extract(args.parent, Path(scratch))
            commits["parent"] = {"rev": args.parent, "sha": git("rev-parse", args.parent),
                                 "src_sha256": src_sha256(Path(scratch))}
        workloads = {w: record_workload(w, sides, args) for w in args.workload or WORKLOADS}
        suites = {} if args.smoke else tier1_rounds(sides)
    envs = [{k: v for k, v in r.pop("environment").items() if k != "threads"}
            for w in workloads.values() for r in w["runs"]]
    if any(env != envs[0] for env in envs):
        raise SystemExit("error: the runs report different environments")
    bench = {
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace T" + (" --smoke" if args.smoke else ""),
        "environment": envs[0],
        "commits": commits,
        "seeds": args.seeds,
        "workloads": workloads,
        **({"tier1": suites} if suites else {}),
    }
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
