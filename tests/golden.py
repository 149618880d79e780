"""Golden outputs: small runs whose numbers ``test_golden.py`` pins.

Each CLI run goes through ``artifact.cli.main`` into a scratch directory, and
its numbers are read back from the files it writes:

* ``ramsey`` and ``echo`` on a 9x9 ensemble grid, with ideal and with the
  shipped reference pulses, an unlocked Ramsey with the reference pi/2 and an
  unlocked echo with the variable-depth pi, t < 600 us at dt 8: P_D at every fifth hold time, the window contrasts, the
  1/e crossing and the fitted tau;
* ``bands`` energies at G, M and K;
* ``eval`` of the four shipped sequences: fidelity and leakages;
* ``design --kind pi2 --steps 5`` with 5 iterations and 1 restart: durations,
  fidelities and trace.

The CLI writes no analysis-phase-scan contrast, so the library computes it:
``ensemble_fringe(...).phase_contrast`` for the reference-pulse Ramsey and
n = 2 echo on the same config's 9x9 grid, t < 600 us at dt 8, at every fifth
hold time.

Regenerate ``tests/golden.json`` from the source tree with

    PYTHONPATH=src python tests/golden.py

Changing a golden value is a test change: record each moved value, before
and after, and why.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from artifact.cli import EXIT_OK, RunConfig, main
from artifact.interferometer import SequencePulses, ensemble_fringe
from artifact.sequences import REFERENCE_PI, REFERENCE_PI2

GOLDEN_PATH = Path(__file__).with_name("golden.json")
CONFIG = "ensemble:\n  quadrature: 9\noptimizer:\n  max_iters: 5\n  restarts: 1\n"
FRINGES = {
    "ramsey_ideal": ["ramsey", "--pi2", "ideal"],
    "ramsey_reference": ["ramsey", "--pi2", "reference:pi2"],
    "ramsey_unlocked": ["ramsey", "--pi2", "reference:pi2", "--no-phase-lock"],
    "echo_ideal": ["echo", "--pi2", "ideal"],
    "echo_reference": ["echo", "--pi2", "reference:pi2", "--pi", "reference:pi"],
    "echo_unlocked": ["echo", "--pi2", "reference:pi2", "--pi", "reference:pi_variable",
                      "--no-phase-lock"],
}
SCANS = {
    "scan_ramsey_reference": ("ramsey", SequencePulses(REFERENCE_PI2)),
    "scan_echo_reference": ("echo", SequencePulses(REFERENCE_PI2, REFERENCE_PI)),
}
EVALS = {"pi2": "pi2", "load": "load", "pi": "pi", "pi_variable": "pi"}


def _rows(path: Path) -> np.ndarray:
    """The numeric rows of a CSV output, below its ``#`` header and column line."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def compute(root: Path) -> dict:
    """Run every golden command under ``root`` and collect its numbers."""
    config = root / "config.yaml"
    config.write_text(CONFIG)

    def run(name, *argv) -> Path:
        out = root / name
        code = main([*argv, "--config", str(config), "--out", str(out)])
        if code != EXIT_OK:
            raise RuntimeError(f"{name} exited {code}")
        return out

    golden = {}
    for name, argv in FRINGES.items():
        out = run(name, *argv, "--t-max", "600", "--dt", "8")
        fringe = _rows(out / "fringe.csv")[::5]
        coherence = json.loads((out / "coherence.json").read_text())
        golden[name] = {
            "t_us": fringe[:, 0].tolist(),
            "p_d": fringe[:, 1].tolist(),
            "contrast": _rows(out / "contrast.csv")[:, 1].tolist(),
            "crossing_1e_us": coherence["crossing_1e_us"],
            "fit_tau_us": coherence["fit_tau_us"],
        }

    energies = _rows(run("bands", "bands", "--path", "G,M,K", "--samples", "1") / "bands.csv")
    golden["bands"] = {point: row[3:].tolist() for point, row in zip("GMK", energies)}

    golden["eval"] = {}
    for name, kind in EVALS.items():
        out = run(f"eval_{name}", "eval", "--sequence", f"reference:{name}", "--kind", kind)
        report = json.loads((out / "report.json").read_text())
        golden["eval"][name] = {
            key: report[key] for key in ("fidelity", "leakage_mid_bands", "leakage_above_d")
        }

    out = run("design", "design", "--kind", "pi2", "--steps", "5", "--threshold", "0")
    sequence = yaml.safe_load((out / "sequence.yaml").read_text())
    golden["design"] = {
        "durations_us": [[s["t_on_us"], s["t_off_us"]] for s in sequence["steps"]],
        "fidelity": sequence["fidelity"],
        "fidelity_pre_rounding": sequence["fidelity_pre_rounding"],
        "trace": _rows(out / "trace.csv")[:, 1].tolist(),
    }

    cfg = RunConfig.load(str(config))
    times = np.arange(0.0, 600.0, 8.0)
    for name, (kind, pulses) in SCANS.items():
        fringe = ensemble_fringe(kind, pulses, times, cfg.ensemble, cfg.lattice, cfg.basis)
        scan = fringe.phase_contrast
        golden[name] = {
            "t_us": scan.times[::5].tolist(),
            "contrast": scan.contrast[::5].tolist(),
        }
    return golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        values = compute(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
