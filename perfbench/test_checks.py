"""The checkers reject perturbed outputs, and every workload passes a
reduced-size run end to end."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
from artifact.sequences import REFERENCE_PI, REFERENCE_PI2

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PI2 = [(s.t_on, s.t_off) for s in REFERENCE_PI2.steps]
PI = [(s.t_on, s.t_off) for s in REFERENCE_PI.steps]


@pytest.fixture(scope="module")
def model():
    return reference.ReferenceLattice()


# -- coherence-scan ----------------------------------------------------------


@pytest.fixture(scope="module")
def scan(model):
    times = np.arange(0.0, 400.0, 4.0)
    closed = [model.ideal_ramsey_fringe(w, times, points=5) for w in (0.72, 0.56, 0.20)]
    outputs = {
        "fringes": [
            {"fwhm": w, "p_d": c.tolist(), "tau_us": tau}
            for w, c, tau in zip((0.72, 0.56, 0.20), closed, (540.0, 740.0, 5600.0))
        ]
    }
    return outputs, closed


def test_scan_accepts_closed_form(scan):
    outputs, closed = scan
    assert checks.check_coherence_scan(outputs, closed) == []


def test_scan_rejects_shifted_fringe(scan):
    outputs, closed = scan
    shifted = json.loads(json.dumps(outputs))
    shifted["fringes"][1]["p_d"] = (np.array(closed[1]) + 1e-3).tolist()
    assert checks.check_coherence_scan(shifted, closed)


def test_scan_rejects_tau_not_growing(scan):
    outputs, closed = scan
    bad = json.loads(json.dumps(outputs))
    bad["fringes"][2]["tau_us"] = 100.0
    assert checks.check_coherence_scan(bad, closed)


# -- interferometry ----------------------------------------------------------


@pytest.fixture(scope="module")
def interferometry(model):
    q = (0.21, -0.13)
    expected = {
        "ramsey": model.ramsey_pd(PI2, q, [96.0]).tolist(),
        "echo": model.echo_pd(PI2, PI, 2, q, [320.0]).tolist(),
    }
    outputs = {
        "ramsey": {"p_d": [0.1, 0.9], "tau_us": 650.0},
        "echo": {"p_d": [0.2, 0.4], "tau_us": 5900.0},
    }
    return outputs, expected


def test_interferometry_accepts_reference_values(interferometry):
    outputs, expected = interferometry
    assert checks.check_interferometry(outputs, expected, expected) == []


def test_interferometry_rejects_shifted_sample(interferometry):
    outputs, expected = interferometry
    shifted = {"ramsey": expected["ramsey"], "echo": [v + 1e-3 for v in expected["echo"]]}
    assert checks.check_interferometry(outputs, shifted, expected)


def test_interferometry_rejects_short_echo(interferometry):
    outputs, expected = interferometry
    bad = json.loads(json.dumps(outputs))
    bad["echo"]["tau_us"] = 1000.0
    assert checks.check_interferometry(bad, expected, expected)


def test_interferometry_rejects_population_above_one(interferometry):
    outputs, expected = interferometry
    bad = json.loads(json.dumps(outputs))
    bad["ramsey"]["p_d"] = [0.5, 1.001]
    assert checks.check_interferometry(bad, expected, expected)


# -- design ------------------------------------------------------------------


def _write_design(out_dir: Path, fidelity: float, trace) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = "".join(f"- t_on_us: {a}\n  t_off_us: {b}\n" for a, b in PI2)
    (out_dir / "sequence.yaml").write_text(f"steps:\n{steps}fidelity: {fidelity!r}\n")
    rows = "".join(f"{i},{f!r}\n" for i, f in enumerate(trace))
    (out_dir / "trace.csv").write_text(f"# run_id: test\niteration,fidelity\n{rows}")
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("sequence.yaml", "trace.csv")
    }
    (out_dir / "manifest.json").write_text(json.dumps({"outputs": digests}))


@pytest.fixture
def design_dir(model):
    out_dir = ROOT / ".bench_work" / "test-design"
    shutil.rmtree(out_dir, ignore_errors=True)
    _write_design(out_dir, model.fidelity(PI2), [0.5, 0.9, 0.95, 0.9832])
    yield out_dir
    shutil.rmtree(out_dir, ignore_errors=True)


def test_design_accepts_consistent_output(design_dir, model):
    assert checks.check_design(0, design_dir, model.fidelity) == []


def test_design_rejects_trace_with_one_decrease(design_dir, model):
    _write_design(design_dir, model.fidelity(PI2), [0.5, 0.9, 0.89, 0.9832])
    assert checks.check_design(0, design_dir, model.fidelity)


def test_design_rejects_hash_mismatch(design_dir, model):
    with open(design_dir / "trace.csv", "a") as f:
        f.write("4,0.9832\n")
    assert checks.check_design(0, design_dir, model.fidelity)


def test_design_rejects_wrong_reported_fidelity(design_dir, model):
    _write_design(design_dir, model.fidelity(PI2) + 1e-6, [0.5, 0.9832])
    assert checks.check_design(0, design_dir, model.fidelity)


def test_design_rejects_nonzero_exit(design_dir, model):
    assert checks.check_design(3, design_dir, model.fidelity)


# -- whole runs --------------------------------------------------------------


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["interferometry", "coherence-scan", "design"])
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert set(result["metrics"]) == set(names)
    for name in names:
        assert isinstance(result["metrics"][name]["value"], (int, float))


def test_refuses_to_run_without_package_source():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, "--workload", "design", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
