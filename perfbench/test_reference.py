"""The reference model against the paper's anchors."""

import numpy as np
import pytest

import reference
from artifact.sequences import REFERENCE_PI2


@pytest.fixture(scope="module")
def model():
    return reference.ReferenceLattice()


def test_zone_center_gap(model):
    assert round(model.gap((0.0, 0.0)), 4) == 5.5535


def test_fringe_period(model):
    assert round(model.fringe_period_us(), 2) == 88.80


def test_shipped_half_pi_fidelity(model):
    steps = [(s.t_on, s.t_off) for s in REFERENCE_PI2.steps]
    assert round(model.fidelity(steps), 4) == 0.9832


def test_aligned_phases_recover_target_up_to_band_phases():
    a, b = 0.7, -1.9
    block = np.diag([1.0, np.exp(-1j * b)]) @ reference.HALF_PI_TARGET @ np.diag([1.0, np.exp(-1j * a)])
    eta, a_found, b_found = reference.aligned_phases(block, reference.HALF_PI_TARGET)
    assert eta == pytest.approx(1.0, abs=1e-12)
    assert np.angle(np.exp(1j * (a_found - a))) == pytest.approx(0.0, abs=1e-6)
    assert np.angle(np.exp(1j * (b_found - b))) == pytest.approx(0.0, abs=1e-6)
