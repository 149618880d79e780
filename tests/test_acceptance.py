"""Acceptance gates for the package's headline numbers.

Each test pins one released capability with frozen tolerances: the shipped
pulse fidelities, the zone-center fringe period, ensemble coherence times for
three distribution widths, the echo-vs-Ramsey separation, core numerical
properties, and end-to-end pulse design.  Tolerances are fixed here on
purpose; loosening them is a release decision, not a test fix.
"""

import numpy as np
import pytest
from scipy.optimize import curve_fit

from artifact.dynamics import (
    BandSet,
    PulseSequence,
    bloch_state,
    evolve_columns,
)
from artifact.interferometer import (
    EnsembleSpec,
    FringeKind,
    IdealPulses,
    SequencePulses,
    coherence_time,
    contrast_curve,
    ensemble_fringe,
    ramsey_pd,
)
from artifact.lattice import (
    build_basis,
    fringe_period_us,
    hamiltonian_on,
    sd_gap,
)
from artifact.sequences import (
    REFERENCE_LOAD,
    REFERENCE_PI,
    REFERENCE_PI2,
    REFERENCE_PI_VARIABLE,
)
from artifact.shortcut import (
    ObjectiveKind,
    OptimizerOptions,
    build_objective,
    design_sequence,
    fidelity,
    optimize,
)


def fit_exp_tau(curve):
    res = coherence_time(curve)
    return res.fit_tau_us


class TestHalfPiFidelity:
    def test_half_pi_within_reference_band(self, spec, basis):
        obj = build_objective(ObjectiveKind.HALF_PI, spec, basis)
        f = fidelity(REFERENCE_PI2, obj)
        assert 0.973 <= f <= 0.993


class TestLoadFidelity:
    def test_load_within_reference_band(self, spec, basis):
        obj = build_objective(ObjectiveKind.LOAD, spec, basis)
        f = fidelity(REFERENCE_LOAD, obj)
        assert 0.983 <= f <= 1.003


class TestPiFidelity:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "The shipped two-step pi sequence evaluates to 0.9680 under "
            "this model for every phase convention, and single-momentum "
            "unitarity leaves no freedom to move it.  The target band "
            "[0.915, 0.945] predates this implementation and cannot be "
            "reached by a faithful simulation of the stated durations; "
            "the test is kept failing on purpose rather than widening "
            "the band (see README, 'Known gap')."
        ),
    )
    def test_pi_within_target_band(self, spec, basis):
        obj = build_objective(ObjectiveKind.PI, spec, basis)
        f = fidelity(REFERENCE_PI, obj)
        assert 0.915 <= f <= 0.945


class TestVariableAmplitudePi:
    def test_variable_amplitude_pi_within_reference_band(self, spec, basis):
        obj = build_objective(ObjectiveKind.PI, spec, basis)
        f = fidelity(REFERENCE_PI_VARIABLE, obj)
        assert 0.982 <= f <= 1.002


class TestFringePeriod:
    def test_fringe_period_matches_gap(self, spec, basis):
        times = np.arange(0.0, 880.0, 2.0)
        model = SequencePulses(pi2=REFERENCE_PI2)
        ens = EnsembleSpec()
        curve = ensemble_fringe(FringeKind.RAMSEY, model, times, ens, spec, basis)

        def cosine(t, a, b, period, phase):
            return a + b * np.cos(2 * np.pi * t / period + phase)

        popt, _ = curve_fit(
            cosine, curve.times, curve.p_d, p0=[0.5, 0.4, 88.0, 0.0]
        )
        fitted_period = popt[2]
        assert fitted_period == pytest.approx(88.8, rel=0.02)

        # Internal consistency: the fitted period must equal h / gap.
        gap_period_us = 1e6 / (sd_gap(spec, basis) * spec.recoil_frequency_Hz)
        assert abs(fitted_period - gap_period_us) / gap_period_us < 0.005


class TestReferenceWidthCoherence:
    def test_fwhm_072(self, spec, basis):
        period = fringe_period_us(spec, basis)
        ens = EnsembleSpec.from_width(0.72, reading="fwhm", quadrature=21)
        fr = ensemble_fringe(
            FringeKind.RAMSEY,
            IdealPulses(),
            np.arange(0.0, 2500.0, 4.0),
            ens,
            spec,
            basis,
            threads=4,
        )
        tau = fit_exp_tau(contrast_curve(fr, period))
        assert 472.5 <= tau <= 787.5

    def test_fwhm_056(self, spec, basis):
        period = fringe_period_us(spec, basis)
        ens = EnsembleSpec.from_width(0.56, reading="fwhm", quadrature=21)
        fr = ensemble_fringe(
            FringeKind.RAMSEY,
            IdealPulses(),
            np.arange(0.0, 4000.0, 4.0),
            ens,
            spec,
            basis,
            threads=4,
        )
        tau = fit_exp_tau(contrast_curve(fr, period))
        assert 720.0 <= tau <= 1200.0


class TestNarrowWidthCoherence:
    def test_fwhm_020(self, spec, basis):
        period = fringe_period_us(spec, basis)
        ens = EnsembleSpec.from_width(0.20, reading="fwhm", quadrature=21)
        fr = ensemble_fringe(
            FringeKind.RAMSEY,
            IdealPulses(),
            np.arange(0.0, 20000.0, 8.0),
            ens,
            spec,
            basis,
            threads=4,
        )
        tau = fit_exp_tau(contrast_curve(fr, period))
        assert 4725.0 <= tau <= 7875.0


class TestEchoExtendsCoherence:
    def test_sequence_pulse_echo_ratio(self, spec, basis):
        period = fringe_period_us(spec, basis)
        ens = EnsembleSpec.from_width(0.72, reading="fwhm", quadrature=21)
        model = SequencePulses(pi2=REFERENCE_PI2, pi=REFERENCE_PI)

        ramsey = ensemble_fringe(
            FringeKind.RAMSEY,
            model,
            np.arange(0.0, 2500.0, 8.0),
            ens,
            spec,
            basis,
            threads=4,
        )
        tau_ramsey = fit_exp_tau(contrast_curve(ramsey, period))

        echo = ensemble_fringe(
            FringeKind.ECHO,
            model,
            np.arange(0.0, 5000.0, 16.0),
            ens,
            spec,
            basis,
            n_echo=2,
            threads=4,
        )
        tau_echo = fit_exp_tau(contrast_curve(echo, 2 * period))

        assert tau_echo > tau_ramsey
        assert tau_echo / tau_ramsey > 2.0
        # Regression anchors (canonical lock gauge).
        assert tau_ramsey == pytest.approx(650.0, rel=0.10)
        assert tau_echo == pytest.approx(5936.0, rel=0.10)

    def test_ideal_echo_contrast_dominates_ramsey(self, spec, basis):
        ens = EnsembleSpec(sigma_q=0.3, quadrature=9)
        times = np.linspace(0.0, 1500.0, 6)
        ramsey = ensemble_fringe(
            FringeKind.RAMSEY, IdealPulses(), times, ens, spec, basis
        ).phase_contrast.contrast
        echo = ensemble_fringe(
            FringeKind.ECHO, IdealPulses(), times, ens, spec, basis, n_echo=2
        ).phase_contrast.contrast
        assert np.all(echo >= ramsey - 1e-9)


class TestEchoClaim:
    """The paper's echo claim as an experiment reads it: after the same
    hold, the echo keeps more fringe contrast than Ramsey (the phase-scan
    contrast of the shipped pulses, FWHM 0.72, the default 21x21 grid)."""

    @pytest.mark.parametrize("locked", [
        False,
        pytest.param(True, marks=pytest.mark.xfail(strict=True, reason=(
            "The paper's echo claim, read the way an experiment reads it: with "
            "the default per-q lock the echo's phase contrast dips below "
            "Ramsey's (smallest ratio 0.418, at 264 us)."))),
    ], ids=["unlocked", "locked"])
    def test_echo_keeps_more_contrast(self, spec, basis, locked):
        ens = EnsembleSpec.from_width(0.72, reading="fwhm", quadrature=21)
        model = SequencePulses(REFERENCE_PI2, REFERENCE_PI, phase_locked=locked)
        times = np.arange(0.0, 2500.0, 8.0)
        ramsey, echo = (
            ensemble_fringe(kind, model, times, ens, spec, basis, n_echo=2, threads=2)
            .phase_contrast.contrast
            for kind in (FringeKind.RAMSEY, FringeKind.ECHO)
        )
        late = times >= 250.0
        # Measured unlocked: 1.530, the smallest ratio, at 416 us.
        assert np.all(echo[late] >= 1.4 * ramsey[late])


class TestNumericalProperties:
    def test_sequence_operator_unitary(self, spec, basis):
        for q in (np.zeros(2), np.array([0.21, -0.13])):
            u = evolve_columns(np.eye(basis.size), REFERENCE_PI2, BandSet(q, spec, basis))
            defect = np.max(np.abs(u.conj().T @ u - np.eye(basis.size)))
            assert defect < 1e-10

    def test_state_norm_conserved(self, spec, basis):
        bands = BandSet(np.zeros(2), spec, basis)
        st = bloch_state(1, bands)
        out = evolve_columns(st[:, None], REFERENCE_PI2, bands)[:, 0]
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9

    def test_fidelity_bounds(self, spec, basis):
        obj = build_objective(ObjectiveKind.HALF_PI, spec, basis)
        for seq in (REFERENCE_PI2, REFERENCE_PI, PulseSequence.from_durations([(0.0, 0.0)])):
            f = fidelity(seq, obj)
            assert 0.0 <= f <= 1.0 + 1e-9

    def test_optimizer_trace_monotone(self, spec, basis):
        obj = build_objective(ObjectiveKind.HALF_PI, spec, basis)
        seed = PulseSequence.from_durations([(10.0, 10.0), (10.0, 10.0)])
        result = optimize(
            seed, obj, OptimizerOptions(max_iters=15, restarts=1, rng_seed=0)
        )
        assert np.all(np.diff(np.asarray(result.trace)) >= -1e-12)

    def test_propagator_taylor_oracle(self, spec):
        # A one-step, lattice-on-only sequence against an independent
        # scaling-and-squaring Taylor exponential of the 9-wave Hamiltonian.
        small = build_basis(spec, 1)
        q = np.array([0.1, 0.3])
        h = hamiltonian_on(small, spec, q)
        t_us = 11.0
        a = -1j * spec.angular_frequency_per_Er * t_us * h / 256.0
        term = np.eye(small.size, dtype=complex)
        acc = np.eye(small.size, dtype=complex)
        for k in range(1, 30):
            term = term @ a / k
            acc = acc + term
        for _ in range(8):
            acc = acc @ acc
        step = PulseSequence.from_durations([(t_us, 0.0)])
        u = evolve_columns(np.eye(small.size), step, BandSet(q, spec, small))
        assert np.max(np.abs(u - acc)) < 1e-9

    def test_zero_width_ensemble_equals_single_q(self, spec, basis):
        times = np.linspace(0.0, 200.0, 5)
        ens = EnsembleSpec()
        curve = ensemble_fringe(
            FringeKind.RAMSEY, IdealPulses(), times, ens, spec, basis
        )
        for t, p in zip(times, curve.p_d):
            assert p == pytest.approx(
                ramsey_pd(IdealPulses(), t, np.zeros(2), spec, basis), abs=1e-12
            )

    def test_quadrature_refinement_stable(self, spec, basis):
        times = np.linspace(0.0, 2000.0, 9)
        values = {}
        for n in (21, 31):
            ens = EnsembleSpec(sigma_q=0.3, quadrature=n)
            values[n] = ensemble_fringe(
                FringeKind.RAMSEY, IdealPulses(), times, ens, spec, basis, threads=4
            ).p_d
        assert np.max(np.abs(values[21] - values[31])) < 1e-3

    def test_thread_count_invariance(self, spec, basis):
        times = np.linspace(0.0, 500.0, 7)
        ens = EnsembleSpec(sigma_q=0.3, quadrature=7)
        results = [
            ensemble_fringe(
                FringeKind.RAMSEY,
                IdealPulses(),
                times,
                ens,
                spec,
                basis,
                threads=k,
            ).p_d
            for k in (1, 2, 4)
        ]
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])


class TestDesignFromScratch:
    def test_half_pi_design_reaches_threshold(self, spec, basis):
        opts = OptimizerOptions(max_iters=200, restarts=10, rng_seed=0)
        result = design_sequence(ObjectiveKind.HALF_PI, 5, spec, basis, opts)
        assert result.fidelity >= 0.98
        trace = np.asarray(result.trace)
        assert np.all(np.diff(trace) >= -1e-12)
        assert len(result.sequence.steps) == 5
        for step in result.sequence.steps:
            assert 0.0 <= step.t_on <= 30.0
            assert 0.0 <= step.t_off <= 40.0
