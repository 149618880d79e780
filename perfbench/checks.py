"""Correctness checks on one operation's outputs.

Every checker returns a list of problems; an empty list means the output
passed.  The checks compare against the reference model in
:mod:`reference` or test a property the method must have; none compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import yaml

#: Largest difference allowed between the package's per-q P_D and the reference.
#: The phase maximisation pins each pulse phase only to about 1e-8, because the
#: fidelity is flat to second order at its maximum.
SAMPLE_TOL = 1e-6
#: Ideal-pulse fringe against the closed form: round-off of cos(gap w t) at
#: phases up to ~1.5e3 rad (measured at 1.4e-13 on the 21x21 grid).
CLOSED_FORM_TOL = 1e-10
#: Re-evaluated against reported design fidelity.
FIDELITY_TOL = 1e-9
#: Allowed decrease between successive optimizer trace entries.
MONOTONE_TOL = 1e-12
#: The command line's default ranges for on and off durations (us).
ON_RANGE = (0.0, 30.0)
OFF_RANGE = (0.0, 40.0)


def _fringe_bounds(name: str, p_d) -> list[str]:
    p = np.asarray(p_d, dtype=float)
    if not np.all(np.isfinite(p)):
        return [f"{name}: non-finite P_D"]
    if p.min() < -1e-12 or p.max() > 1.0 + 1e-12:
        return [f"{name}: P_D outside [0, 1] ({p.min():.3g} .. {p.max():.3g})"]
    return []


def check_interferometry(outputs: dict, samples: dict, reference: dict) -> list[str]:
    """Ensemble fringes in [0, 1], tau_echo > 2 tau_Ramsey, and per-q P_D at
    the sampled (q, t) points equal to the reference model's."""
    problems = []
    for name in ("ramsey", "echo"):
        problems += _fringe_bounds(name, outputs[name]["p_d"])
        got = np.asarray(samples[name], dtype=float)
        want = np.asarray(reference[name], dtype=float)
        err = float(np.max(np.abs(got - want)))
        if not err <= SAMPLE_TOL:
            problems.append(f"{name}: per-q P_D differs from the reference by {err:.3g}")
    tau_r, tau_e = outputs["ramsey"]["tau_us"], outputs["echo"]["tau_us"]
    if not tau_e > 2.0 * tau_r > 0.0:
        problems.append(f"echo tau {tau_e:.6g} us is not above twice Ramsey tau {tau_r:.6g} us")
    return problems


def check_coherence_scan(outputs: dict, closed_forms: list) -> list[str]:
    """Each ideal-pulse fringe equals its closed form, and tau grows as the
    width narrows (widths are listed broadest first)."""
    problems = []
    for fringe, expected in zip(outputs["fringes"], closed_forms, strict=True):
        name = f"FWHM {fringe['fwhm']}"
        problems += _fringe_bounds(name, fringe["p_d"])
        err = float(np.max(np.abs(np.asarray(fringe["p_d"]) - expected)))
        if not err <= CLOSED_FORM_TOL:
            problems.append(f"{name}: fringe differs from the closed form by {err:.3g}")
    taus = [f["tau_us"] for f in outputs["fringes"]]
    if not all(a < b for a, b in zip(taus, taus[1:])):
        problems.append(f"coherence times do not grow as the width narrows: {taus}")
    return problems


def read_trace(path: Path) -> np.ndarray:
    rows = [
        line.split(",")
        for line in path.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("iteration")
    ]
    return np.array([float(r[1]) for r in rows])


def read_sequence(path: Path) -> tuple[list, float]:
    """(t_on, t_off) steps and reported fidelity of a designed sequence file."""
    data = yaml.safe_load(path.read_text())
    steps = [(float(s["t_on_us"]), float(s["t_off_us"])) for s in data["steps"]]
    return steps, float(data["fidelity"])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_design(exit_code: int, out_dir: Path, fidelity_of, floor: float = 0.98) -> list[str]:
    """Exit code 0; manifest hashes match the files; the trace is monotone;
    durations lie in the on/off ranges; the reported fidelity is at least
    ``floor`` and equals ``fidelity_of(steps)`` re-evaluated apart from the
    package."""
    problems = []
    if exit_code != 0:
        problems.append(f"design exited with code {exit_code}")
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return problems + ["manifest.json is missing"]
    manifest = json.loads(manifest_path.read_text())
    for name, digest in sorted(manifest["outputs"].items()):
        path = out_dir / name
        if not path.is_file() or _sha256(path) != digest:
            problems.append(f"manifest hash of {name} does not match the file")
    for name in ("sequence.yaml", "trace.csv"):
        if name not in manifest["outputs"]:
            problems.append(f"{name} is not in the manifest")
    if problems:
        return problems

    trace = read_trace(out_dir / "trace.csv")
    drops = np.flatnonzero(np.diff(trace) < -MONOTONE_TOL)
    if len(drops):
        problems.append(f"fidelity trace decreases at iteration {int(drops[0]) + 1}")

    steps, reported = read_sequence(out_dir / "sequence.yaml")
    for i, (t_on, t_off) in enumerate(steps):
        if not (ON_RANGE[0] <= t_on <= ON_RANGE[1] and OFF_RANGE[0] <= t_off <= OFF_RANGE[1]):
            problems.append(f"step {i + 1} durations ({t_on}, {t_off}) leave the on/off ranges")
    if not reported >= floor:
        problems.append(f"fidelity {reported:.6f} is below {floor}")
    again = fidelity_of(steps)
    if not abs(again - reported) <= FIDELITY_TOL:
        problems.append(f"re-evaluated fidelity {again:.12f} differs from reported {reported:.12f}")
    return problems
