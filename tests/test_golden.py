"""CLI and phase-scan outputs against the golden values of ``tests/golden.json``.

Populations (P_D, contrast, leakage) hold to 1e-12 absolute: a thousand
times the 1e-16 that BLAS threading moves them, and far below any physics
change.  Coherence times, fidelities and band energies hold to 1e-9
relative; designed durations, rounded to the grid quantum, hold exactly.
``tests/golden.py`` computes the values and regenerates the file.
"""

import json

import numpy as np
import pytest

from golden import FRINGES, GOLDEN_PATH, SCANS, compute


def test_outputs_match_the_golden_values(tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text())
    got = compute(tmp_path)
    assert got.keys() == expected.keys()

    def populations(a, b):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def relative(a, b):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=0)

    for name in FRINGES:
        run, want = got[name], expected[name]
        assert run["t_us"] == want["t_us"], name
        populations(run["p_d"], want["p_d"])
        populations(run["contrast"], want["contrast"])
        for key in ("crossing_1e_us", "fit_tau_us"):  # None: not crossed, or tau = inf
            if want[key] is None:
                assert run[key] is None, (name, key)
            else:
                assert run[key] == pytest.approx(want[key], rel=1e-9), (name, key)
    for name in SCANS:
        assert got[name]["t_us"] == expected[name]["t_us"], name
        populations(got[name]["contrast"], expected[name]["contrast"])
    for point, energies in expected["bands"].items():
        relative(got["bands"][point], energies)
    for name, report in expected["eval"].items():
        relative(got["eval"][name]["fidelity"], report["fidelity"])
        populations(got["eval"][name]["leakage_mid_bands"], report["leakage_mid_bands"])
        populations(got["eval"][name]["leakage_above_d"], report["leakage_above_d"])
    design, want = got["design"], expected["design"]
    assert design["durations_us"] == want["durations_us"]
    for key in ("fidelity", "fidelity_pre_rounding", "trace"):
        relative(design[key], want[key])
