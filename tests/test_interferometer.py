import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from artifact import dynamics, interferometer
from artifact.interferometer import (
    MAX_HOLD_TIMES,
    MAX_QUADRATURE,
    _ensemble_sums,
    _fringe_kernel,
    _pulse,
    _quadrature_nodes,
    ContrastCurve,
    EnsembleSpec,
    FringeCurve,
    FringeKind,
    IdealPulses,
    SequencePulses,
    coherence_time,
    contrast_curve,
    echo_pd,
    ensemble_fringe,
    ideal_pulse_operator,
    locked_sequence_operator,
    ramsey_pd,
)
from artifact.dynamics import (
    MAX_STEP_US,
    BandSet,
    band_eig,
    bloch_state,
    default_band_pair,
    evolve_columns,
)
from artifact.lattice import (
    Geometry,
    angular_frequency_per_Er,
    build_basis,
    fringe_period_us,
    sd_gap,
)
from artifact.sequences import REFERENCE_PI, REFERENCE_PI2, REFERENCE_PI_VARIABLE
from artifact.shortcut import (
    MAX_COUNT,
    ObjectiveKind,
    OptimizerOptions,
    PulseObjective,
    ROTATION_BLOCKS,
    aligned_fidelity_block,
    design_sequence,
)


@pytest.fixture(scope="module")
def period(spec, basis):
    return fringe_period_us(spec, basis)


def _ideal_fringe(gap, times, spec):
    """Analytic two-level Ramsey fringe (1 + cos(gap t))/2 for a gap in E_r."""
    return (1.0 + np.cos(gap * angular_frequency_per_Er(spec) * times)) / 2.0


class TestEnsembleSpec:
    def test_quadrature_must_be_odd(self):
        with pytest.raises(ValueError):
            EnsembleSpec(sigma_q=0.3, quadrature=20)

    def test_quadrature_must_not_be_tiny(self):
        with pytest.raises(ValueError, match="^quadrature must be finite, with 5 <= quadrature "
                                             f"<= {MAX_QUADRATURE}, got 3$"):
            EnsembleSpec(sigma_q=0.3, quadrature=3)

    @pytest.mark.parametrize(
        "quadrature, message",
        [(q, f"quadrature must be finite, with 1 <= quadrature <= {MAX_QUADRATURE}, got {q}")
         for q in (-3, -1, math.nan)]
        # np.linspace refuses a float count, whole or not, with TypeError, and
        # True would be a one-point grid.
        + [(q, f"quadrature must be an integer, got {q}") for q in (5.5, 5.0, True)],
    )
    def test_quadrature_must_be_positive_at_every_width(self, quadrature, message):
        with pytest.raises(ValueError, match=message):
            EnsembleSpec(sigma_q=0.0, quadrature=quadrature)

    def test_quadrature_bounded_above(self):
        with pytest.raises(ValueError, match=f"quadrature <= {MAX_QUADRATURE}, "
                                             f"got {MAX_QUADRATURE + 2}"):
            EnsembleSpec(sigma_q=0.1, quadrature=MAX_QUADRATURE + 2)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(sigma_q=-0.1)

    def test_from_width_fwhm(self):
        ens = EnsembleSpec.from_width(0.72, reading="fwhm")
        assert ens.sigma_q == pytest.approx(0.72 / 2.3548200450309493, rel=1e-9)

    def test_from_width_two_sigma(self):
        ens = EnsembleSpec.from_width(0.56, reading="two_sigma")
        assert ens.sigma_q == pytest.approx(0.28, rel=1e-12)

    def test_from_width_reading_validated(self):
        with pytest.raises(ValueError):
            EnsembleSpec.from_width(0.5, reading="hwhm")

    @pytest.mark.parametrize(
        "name, fields",
        [("sigma_q", {"sigma_q": value})
         for value in (math.nan, math.inf, -math.inf, -math.ulp(0.0))]
        + [("width_schedule width", {"width_schedule": ((0.0, 0.3), (100.0, width))})
           for width in (math.nan, math.inf, -math.inf, 0.0)]
        + [("width_schedule time", {"width_schedule": ((0.0, 0.3), (t, 0.3))})
           for t in (math.nan, math.inf, -math.inf)],
    )
    def test_non_finite_width_rejected(self, name, fields):
        # NaN, +-inf and the floats just outside each bound; a schedule time
        # has no finite bound.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            EnsembleSpec(**{"sigma_q": 0.3, **fields})

    @pytest.mark.parametrize("sigma, width, refused", [
        (0.3, 1e-300, True), (1e-300, 1e-300, False), (0.0, 1e-300, False),
        (0.3, 3.0 * 0.3 / 1e154, False), (0.3, 3.0 * 0.3 / 1.4e154, True),
    ], ids=["far-below", "equal-tiny", "q=0", "just-within", "just-beyond"])
    def test_width_schedule_width_keeps_the_weights_finite(self, sigma, width, refused):
        # The farthest node's weight squares 3 sigma_q / width, which must stay
        # a float (the largest is 1.8e308, so the ratio must stay below 1.34e154).
        make = functools.partial(EnsembleSpec, sigma_q=sigma, quadrature=5,
                                 width_schedule=((0.0, 0.3), (50.0, width)))
        if refused:
            with pytest.raises(ValueError, match=r"^\(3 sigma_q / width\)\^2 must be finite, "
                                                 r"with \(3 sigma_q / width\)\^2 >= 0, got inf$"):
                make()
        else:
            make()

    def test_width_schedule_times_must_ascend(self):
        with pytest.raises(ValueError):
            EnsembleSpec(
                sigma_q=0.3,
                width_schedule=((100.0, 0.3), (50.0, 0.4)),
            )

    @pytest.mark.parametrize("width", [0.0, -0.3])
    def test_width_schedule_widths_must_be_positive(self, width):
        # A zero width once weighed every node by 1 (P_D 0.5137 at 100 us
        # for ideal Ramsey, against 0.8510 for a width of 1e-9).
        with pytest.raises(ValueError, match=f"^width_schedule width must be finite, with "
                                             f"width_schedule width > 0, got {width}$"):
            EnsembleSpec(
                sigma_q=0.3,
                quadrature=7,
                width_schedule=((0.0, 0.3), (50.0, 0.3), (100.0, width)),
            )


class TestCurveTypes:
    def test_fringe_lengths_must_match(self):
        with pytest.raises(ValueError):
            FringeCurve(times=np.array([0.0, 1.0]), p_d=np.array([1.0]))

    def test_fringe_times_must_ascend(self):
        with pytest.raises(ValueError):
            FringeCurve(times=np.array([1.0, 0.0]), p_d=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("record", [FringeCurve, ContrastCurve])
    @pytest.mark.parametrize("times", [[300.0, 200.0, 100.0], [100.0, 200.0, 200.0]],
                             ids=["descending", "repeated"])
    def test_times_must_ascend(self, record, times):
        # A descending contrast curve once fitted tau = inf with a crossing at
        # 167 us, where the same data in order cross at 233 us.
        with pytest.raises(ValueError, match="^times must be strictly ascending$"):
            record(np.array(times), np.array([1.0, 0.5, 0.1]))

    def test_fringe_from_data_has_no_phase_contrast(self):
        assert FringeCurve(np.array([0.0, 1.0]), np.array([0.2, 0.8])).phase_contrast is None

    def test_phase_contrast_must_share_the_times(self):
        scan = ContrastCurve(np.array([0.0, 2.0]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="phase_contrast must have the fringe's times"):
            FringeCurve(np.array([0.0, 1.0]), np.array([0.2, 0.8]), phase_contrast=scan)

    def test_phase_contrast_of_other_length_refused(self):
        scan = ContrastCurve(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.2]))
        with pytest.raises(ValueError, match="phase_contrast must have the fringe's times"):
            FringeCurve(np.array([0.0, 1.0]), np.array([0.2, 0.8]), phase_contrast=scan)

    def test_contrast_bounded(self):
        with pytest.raises(ValueError):
            ContrastCurve(times=np.array([0.0]), contrast=np.array([1.5]))

    @pytest.mark.parametrize("field", ["times", "p_d"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_fringe_must_be_finite(self, field, bad):
        values = {"times": np.array([0.0, 1.0, 2.0]), "p_d": np.array([0.5, 0.7, 0.2])}
        values[field][1] = bad
        with pytest.raises(ValueError, match="finite"):
            FringeCurve(**values)

    def test_contrast_bounded_below(self):
        with pytest.raises(ValueError, match=r"^contrast must lie in \[0, 1\]$"):
            ContrastCurve(times=np.array([0.0, 1.0]), contrast=np.array([0.5, -0.1]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_contrast_times_must_be_finite(self, bad):
        # The shared check, as FringeCurve's times: coherence_time would
        # otherwise interpolate a crossing against a NaN window centre.
        with pytest.raises(ValueError, match="^times and contrast must be finite$"):
            ContrastCurve(times=np.array([0.0, bad, 2.0]), contrast=np.array([1.0, 0.7, 0.2]))

    def test_fringe_may_overshoot(self):
        FringeCurve(times=np.array([0.0, 1.0]), p_d=np.array([-0.01, 1.02]))

    def test_contrast_lengths_must_match(self):
        with pytest.raises(ValueError, match="lengths differ"):
            ContrastCurve(times=np.array([0.0, 1.0]), contrast=np.array([1.0]))

    def test_contrast_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ContrastCurve(times=np.array([0.0, 1.0]), contrast=np.array([0.5, math.nan]))

    def test_lists_are_stored_as_float_arrays(self):
        # Lists once constructed a FringeCurve that contrast_curve then failed
        # on, and a ContrastCurve raised TypeError from its range check.
        fringe = FringeCurve([0.0, 4.0, 8.0, 12.0], [0.5, 0.6, 0.7, 0.6])
        scan = ContrastCurve([100, 200, 300], [1, 0.5, 0.1])
        for values in (fringe.times, fringe.p_d, scan.times, scan.contrast):
            assert isinstance(values, np.ndarray) and values.dtype == float
        times = [float(t) for t in range(17)]
        p_d = [0.5 + 0.4 * math.cos(math.pi * t / 4.0) for t in times]
        assert np.array_equal(contrast_curve(FringeCurve(times, p_d), 8.0).contrast,
                              contrast_curve(FringeCurve(np.array(times), np.array(p_d)),
                                             8.0).contrast)
        got = coherence_time(scan)
        want = coherence_time(ContrastCurve(np.array([100.0, 200.0, 300.0]),
                                            np.array([1.0, 0.5, 0.1])))
        assert got == want
        assert got.crossing_us == pytest.approx(233.03, abs=0.01)
        assert got.fit_tau_us == pytest.approx(116.52, abs=0.01)

    @pytest.mark.parametrize("record", [FringeCurve, ContrastCurve])
    def test_records_with_different_arrays_differ(self, record):
        one = record(np.array([0.0, 1.0]), np.array([0.1, 0.2]))
        assert one == one
        assert one != record(np.array([0.0, 5.0]), np.array([0.9, 0.3]))


class TestIdealFringe:
    def test_quarter_points(self, spec, basis, period):
        # Ideal pulses at q = 0 read the fringe period off the band gap.
        t = [0.0, period / 4, period / 2, period]
        p = [ramsey_pd(IdealPulses(), x, np.zeros(2), spec, basis) for x in t]
        assert p == pytest.approx([1.0, 0.5, 0.0, 1.0], abs=1e-9)


def _dense(pulses, kind, q, spec, basis):
    """The model's pulse of ``kind`` as a dense (n, n) matrix: its apply on the identity."""
    bands = BandSet(q, spec, basis)
    apply, _ = _pulse(pulses, ObjectiveKind(kind), bands)
    return apply(np.eye(basis.size))


class TestIdealOperators:
    def test_unitary(self, spec, basis):
        for kind in ("pi2", "pi"):
            u = _dense(IdealPulses(), kind, np.zeros(2), spec, basis)
            assert np.max(np.abs(u.conj().T @ u - np.eye(basis.size))) < 1e-12

    def test_blocks_match_targets(self, spec, basis):
        s_idx, d_idx = default_band_pair(spec.geometry)
        q = np.array([0.11, -0.04])
        bands = BandSet(q, spec, basis)
        s = bloch_state(s_idx, bands)
        d = bloch_state(d_idx, bands)
        frame = np.stack([s, d], axis=1)
        u2 = _dense(IdealPulses(), "pi2", q, spec, basis)
        upi = _dense(IdealPulses(), "pi", q, spec, basis)
        assert np.allclose(
            frame.conj().T @ u2 @ frame,
            ROTATION_BLOCKS[ObjectiveKind.HALF_PI],
            atol=1e-10,
        )
        assert np.allclose(
            frame.conj().T @ upi @ frame,
            ROTATION_BLOCKS[ObjectiveKind.PI],
            atol=1e-10,
        )

    def test_pi2_squared_is_pi(self, spec, basis):
        u2 = _dense(IdealPulses(), "pi2", np.zeros(2), spec, basis)
        upi = _dense(IdealPulses(), "pi", np.zeros(2), spec, basis)
        assert np.allclose(u2 @ u2, upi, atol=1e-10)


def _dense_ideal(kind, s, d):
    """Ideal pulse as an explicit 121x121 sum: identity, projector, swap."""
    theta = {"pi2": math.pi / 4.0, "pi": math.pi / 2.0}[kind]
    proj = np.outer(s, s.conj()) + np.outer(d, d.conj())
    swap = np.outer(d, s.conj()) - np.outer(s, d.conj())
    return np.eye(len(s)) + (math.cos(theta) - 1.0) * proj + math.sin(theta) * swap


class TestDenseOracles:
    """The S/D-frame operators against their dense 121x121 formulas."""

    Q = np.array([0.21, -0.08])

    def _frame(self, spec, basis):
        s_idx, d_idx = default_band_pair(spec.geometry)
        bands = BandSet(self.Q, spec, basis)
        return bloch_state(s_idx, bands), bloch_state(d_idx, bands)

    @pytest.mark.parametrize("kind", ["pi2", "pi"])
    def test_ideal(self, spec, basis, kind):
        s, d = self._frame(spec, basis)
        u = _dense(IdealPulses(), kind, self.Q, spec, basis)
        assert np.max(np.abs(u - _dense_ideal(kind, s, d))) < 1e-13

    @pytest.mark.parametrize(
        "seq, kind",
        [(REFERENCE_PI2, ObjectiveKind.HALF_PI), (REFERENCE_PI, ObjectiveKind.PI)],
    )
    def test_locked(self, spec, basis, seq, kind):
        s, d = self._frame(spec, basis)
        r = evolve_columns(np.eye(basis.size), seq, BandSet(self.Q, spec, basis))
        frame = np.stack([s, d], axis=1)
        _, a, b = aligned_fidelity_block(
            frame.conj().T @ r @ frame, ROTATION_BLOCKS[kind]
        )
        dd = np.outer(d, d.conj())
        za = np.eye(basis.size) + (np.exp(1j * a) - 1.0) * dd
        zb = np.eye(basis.size) + (np.exp(1j * b) - 1.0) * dd
        u = _dense(SequencePulses(seq, seq), kind, self.Q, spec, basis)
        assert np.max(np.abs(u - zb @ r @ za)) < 1e-13


def _dense_kernel(kind, r_half, r_pi, times, q, spec, basis, n_echo):
    """The kernel's (amplitude, scanned D part) per hold time, from dense
    pulse operators applied state by state; the scanned part is the final
    pulse's image of the D component, read out on D."""
    energies, states = band_eig(q, spec, basis)
    s, d = BandSet(q, spec, basis).frame.T
    w = angular_frequency_per_Er(spec)

    def hold(t):
        return states @ (np.exp(-1j * energies * w * t)[:, None] * states.conj().T)

    amps, parts = [], []
    for t in times:
        psi = r_half @ s
        if kind is FringeKind.RAMSEY:
            psi = hold(t) @ psi
        else:
            for _ in range(n_echo):
                psi = hold(t / (2 * n_echo)) @ (r_pi @ (hold(t / (2 * n_echo)) @ psi))
        amps.append(np.vdot(d, r_half @ psi))
        parts.append(np.vdot(d, psi) * np.vdot(d, r_half @ d))
    return np.array(amps), np.array(parts)


class TestKernelOracle:
    """The column-wise kernel against dense 121x121 pulse operators."""

    Q = np.array([0.21, -0.08])
    TIMES = np.array([0.0, 37.0, 150.0, 333.0])

    @staticmethod
    def _views(model, q, spec, basis):
        if model == "ideal":
            pulses = IdealPulses()
        else:
            pulses = SequencePulses(REFERENCE_PI2, REFERENCE_PI, phase_locked=model == "locked")
        if model == "unlocked":  # the raw sequence operators, evolved on their own
            eye = np.eye(basis.size)
            return pulses, [evolve_columns(eye, sq, BandSet(q, spec, basis))
                            for sq in (REFERENCE_PI2, REFERENCE_PI)]
        return pulses, [_dense(pulses, k, q, spec, basis) for k in ("pi2", "pi")]

    @pytest.mark.parametrize("kind, n_echo", [(FringeKind.RAMSEY, 0), (FringeKind.ECHO, 1),
                                              (FringeKind.ECHO, 2), (FringeKind.ECHO, 3)],
                             ids=["ramsey", "echo1", "echo2", "echo3"])
    @pytest.mark.parametrize("model", ["ideal", "locked", "unlocked"])
    def test_matches_dense_operators(self, spec, basis, model, kind, n_echo):
        pulses, (r_half, r_pi) = self._views(model, self.Q, spec, basis)
        t, q = self.TIMES, self.Q
        amp, part = _dense_kernel(kind, r_half, r_pi, t, q, spec, basis, n_echo)
        got = _fringe_kernel(kind, pulses, t, BandSet(q, spec, basis), n_echo)
        expected = (
            np.abs(amp) ** 2,
            np.conj(amp - part) * part,
            np.abs(amp - part) ** 2 + np.abs(part) ** 2,
        )
        for g, e in zip(got, expected, strict=True):
            assert np.max(np.abs(g - e)) <= 1e-12


class TestLockedOperator:
    def test_unitary(self, spec, basis):
        u = _dense(
            SequencePulses(REFERENCE_PI2), ObjectiveKind.HALF_PI, np.zeros(2), spec, basis
        )
        assert np.max(np.abs(u.conj().T @ u - np.eye(basis.size))) < 1e-10

    def test_block_is_aligned(self, spec, basis):
        # After dressing, the plain trace overlap must equal the aligned
        # fidelity: the dressing absorbs both reference phases.
        q = np.array([0.07, 0.12])
        obj = PulseObjective(ObjectiveKind.HALF_PI, BandSet(q, spec, basis))
        frame = obj.bands.frame
        raw_block = frame.conj().T @ evolve_columns(frame, REFERENCE_PI2, obj.bands)
        f_aligned, _, _ = aligned_fidelity_block(
            raw_block, ROTATION_BLOCKS[ObjectiveKind.HALF_PI]
        )
        u = _dense(
            SequencePulses(REFERENCE_PI2), ObjectiveKind.HALF_PI, q, spec, basis
        )
        dressed = obj.bands.frame.conj().T @ u @ obj.bands.frame
        target = ROTATION_BLOCKS[ObjectiveKind.HALF_PI]
        tr = np.trace(target.conj().T @ dressed) / 2.0
        assert abs(tr) == pytest.approx(f_aligned, abs=1e-9)


class TestZeroLock:
    """An unlocked sequence pulse is the zero lock Z_0 R Z_0, which is the raw
    sequence operator R to the bit."""

    Q = np.array([0.21, -0.08])

    @pytest.mark.parametrize(
        "seq, kind",
        [(REFERENCE_PI2, ObjectiveKind.HALF_PI), (REFERENCE_PI_VARIABLE, ObjectiveKind.PI)],
    )
    def test_unlocked_pulse_is_the_raw_sequence(self, spec, basis, seq, kind):
        bands = BandSet(self.Q, spec, basis)
        _, states = bands.eig()
        frame = bands.frame
        pulses = SequencePulses(seq, seq, phase_locked=False)
        apply, image = _pulse(pulses, kind, bands)

        def raw(cols, adjoint=False):
            return evolve_columns(cols, seq, bands, adjoint=adjoint)

        assert np.array_equal(apply(states), raw(states))
        d = frame[:, 1:]
        assert np.array_equal(apply(d, adjoint=True), raw(d, adjoint=True))
        assert np.array_equal(image, raw(frame))


class TestPulseBuilders:
    """The fringe kernel builds every pulse through the two builders that
    perfbench/tracing.py wraps by module attribute, so their traced counts
    measure the kernel's own pulse work."""

    BUILDERS = ("ideal_pulse_operator", "locked_sequence_operator")

    @pytest.mark.parametrize("kind, model, expected", [
        (FringeKind.RAMSEY, IdealPulses(), {"ideal_pulse_operator": 25}),
        (FringeKind.ECHO, SequencePulses(REFERENCE_PI2, REFERENCE_PI),
         {"locked_sequence_operator": 50}),
        (FringeKind.ECHO, SequencePulses(REFERENCE_PI2, REFERENCE_PI_VARIABLE, phase_locked=False),
         {"locked_sequence_operator": 50}),
    ], ids=["ideal-ramsey", "locked-echo", "unlocked-echo"])
    def test_every_pulse_goes_through_a_builder(self, spec, monkeypatch, kind, model, expected):
        basis = build_basis(spec, shell_radius=2)
        args = (kind, model, np.linspace(0.0, 300.0, 4),
                EnsembleSpec(sigma_q=0.25, quadrature=5), spec, basis)
        plain = ensemble_fringe(*args)
        calls = dict.fromkeys(self.BUILDERS, 0)
        for name in self.BUILDERS:
            def counted(*a, _name=name, _fn=getattr(interferometer, name)):
                calls[_name] += 1
                return _fn(*a)
            monkeypatch.setattr(interferometer, name, counted)
        counted_run = ensemble_fringe(*args)
        # pi/2 and, for echo, pi once per q of the 5 x 5 grid.
        assert calls == {**dict.fromkeys(self.BUILDERS, 0), **expected}
        assert np.array_equal(counted_run.p_d, plain.p_d)

    @pytest.mark.parametrize("locked", [True, False], ids=["locked", "unlocked"])
    def test_sequence_kind_may_be_its_value(self, spec, basis, locked):
        # Unlocked, a value that is not the kind would build the pi pulse.
        bands = BandSet(np.array([0.21, -0.08]), spec, basis)
        pulses = SequencePulses(REFERENCE_PI2, REFERENCE_PI, phase_locked=locked)
        _, by_value = locked_sequence_operator(pulses, "pi2", bands)
        _, by_kind = locked_sequence_operator(pulses, ObjectiveKind.HALF_PI, bands)
        assert np.array_equal(by_value, by_kind)

    def test_ideal_refuses_a_kind_without_a_rotation(self, spec, basis):
        # Once a KeyError from the rotation table.
        bands = BandSet(np.zeros(2), spec, basis)
        with pytest.raises(ValueError, match="got kind 'load'"):
            ideal_pulse_operator("load", bands)

    @pytest.mark.parametrize("pulses, kind", [
        (SequencePulses(REFERENCE_PI2), "pi"),
        (SequencePulses(REFERENCE_PI2, REFERENCE_PI), "load"),
        (SequencePulses(REFERENCE_PI2, REFERENCE_PI, phase_locked=False), "load"),
    ], ids=["missing-pi", "locked-load", "unlocked-load"])
    def test_sequence_refuses_a_kind_it_has_no_sequence_for(
        self, spec, basis, monkeypatch, pulses, kind
    ):
        # Once an AttributeError from evolve_columns, a KeyError after the
        # evolution, and unlocked the pi pulse built silently for 'load'.
        def fail(*args, **kwargs):
            raise AssertionError("evolved before the kind was checked")

        monkeypatch.setattr(interferometer, "evolve_columns", fail)
        bands = BandSet(np.zeros(2), spec, basis)
        with pytest.raises(ValueError, match=f"no {kind!r} sequence"):
            locked_sequence_operator(pulses, kind, bands)


class TestSolveCounts:
    """Each fringe node and each objective solves its bands once per depth,
    shared by the hold, the S/D frame and every pulse."""

    @pytest.mark.parametrize("kind, pi, expected", [
        (FringeKind.RAMSEY, None, 1),
        (FringeKind.ECHO, REFERENCE_PI, 1),
        # The hold depth and the five step depths of the variable pi.
        (FringeKind.ECHO, REFERENCE_PI_VARIABLE, 6),
    ], ids=["ramsey", "echo", "echo-variable-pi"])
    def test_one_kernel_call(self, spec, basis, solved, kind, pi, expected):
        pulses = SequencePulses(REFERENCE_PI2, pi)
        bands = BandSet(np.array([0.13, -0.05]), spec, basis)
        _fringe_kernel(kind, pulses, np.array([0.0, 100.0]), bands, 2)
        assert len(solved) == expected

    def test_design_solves_once(self, spec, basis, solved):
        opts = OptimizerOptions(max_iters=3, restarts=2)
        design_sequence(ObjectiveKind.HALF_PI, 5, spec, basis, opts)
        assert len(solved) == 1

    def test_ensemble_solves_each_node_once(self, spec, basis, solved):
        ens = EnsembleSpec(sigma_q=0.1, quadrature=5)
        pulses = SequencePulses(REFERENCE_PI2)
        ensemble_fringe(FringeKind.RAMSEY, pulses, np.array([0.0, 100.0]), ens, spec, basis)
        assert len(solved) == 25


class TestSharedFrame:
    """The S/D frame is formed once per record: the kernel and both pulse
    builders read the same ``BandSet.frame``."""

    def test_one_frame_per_kernel_call(self, spec, basis, monkeypatch):
        calls = []
        state = dynamics.bloch_state

        def counted(band_index, bands):
            calls.append(band_index)
            return state(band_index, bands)

        monkeypatch.setattr(dynamics, "bloch_state", counted)
        pulses = SequencePulses(REFERENCE_PI2, REFERENCE_PI)
        bands = BandSet(np.array([0.13, -0.05]), spec, basis)
        _fringe_kernel(FringeKind.ECHO, pulses, np.array([0.0, 100.0]), bands, 2)
        # S and D once each; a frame formed on every read would make 6 calls.
        assert calls == list(default_band_pair(spec.geometry))

    def test_frame_is_read_only(self, spec, basis):
        frame = BandSet(np.zeros(2), spec, basis).frame
        with pytest.raises(ValueError, match="read-only"):
            frame[0, 0] = 0.0


class TestPointwiseFringes:
    def test_ideal_ramsey_matches_analytic(self, spec, basis, period):
        gap = sd_gap(spec, basis)
        times = np.linspace(0.0, 2 * period, 9)
        analytic = _ideal_fringe(gap, times, spec)
        for t, expected in zip(times, analytic):
            p = ramsey_pd(IdealPulses(), t, np.zeros(2), spec, basis)
            assert p == pytest.approx(expected, abs=1e-9)

    def test_ideal_echo_is_flat_one(self, spec, basis, period):
        for t in (0.0, period / 3, 5 * period):
            p = echo_pd(IdealPulses(), None, 2, t, np.zeros(2), spec, basis)
            assert p == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n_echo", [1, 2, 3])
    def test_ideal_echo_parity(self, spec, basis, period, n_echo):
        # Each ideal pi pulse swaps S and D, so an even count ends in D and an
        # odd count in S, whatever the hold, also away from q = 0.
        q = np.array([0.21, -0.08])
        for t in (0.0, period / 3, 5 * period):
            p = echo_pd(IdealPulses(), None, n_echo, t, q, spec, basis)
            assert p == pytest.approx(1.0 - n_echo % 2, abs=1e-9)

    def test_negative_hold_rejected(self, spec, basis):
        with pytest.raises(ValueError):
            ramsey_pd(IdealPulses(), -1.0, np.zeros(2), spec, basis)
        with pytest.raises(ValueError):
            echo_pd(IdealPulses(), None, 2, -1.0, np.zeros(2), spec, basis)

    def test_n_echo_validated(self, spec, basis):
        with pytest.raises(ValueError):
            echo_pd(IdealPulses(), None, 0, 10.0, np.zeros(2), spec, basis)

    def test_echo_needs_pi_sequence(self, spec, basis):
        model = SequencePulses(pi2=REFERENCE_PI2)
        with pytest.raises(ValueError):
            echo_pd(model, None, 2, 10.0, np.zeros(2), spec, basis)

    @pytest.mark.parametrize("pi", [None, REFERENCE_PI])
    def test_echo_refuses_a_pi_beside_a_model(self, spec, basis, pi):
        # The pi inside the model was used and the one beside it ignored.
        model = SequencePulses(pi2=REFERENCE_PI2, pi=pi)
        with pytest.raises(ValueError, match="carries its own pi pulse"):
            echo_pd(model, REFERENCE_PI_VARIABLE, 2, 100.0, np.zeros(2), spec, basis)
        with pytest.raises(ValueError, match="carries its own pi pulse"):
            echo_pd(IdealPulses(), REFERENCE_PI, 2, 100.0, np.zeros(2), spec, basis)

    def test_locked_echo_composite_at_gamma(self, spec, basis):
        model = SequencePulses(pi2=REFERENCE_PI2, pi=REFERENCE_PI)
        p = echo_pd(model, None, 2, 0.0, np.zeros(2), spec, basis)
        assert p == pytest.approx(0.675, abs=5e-3)


class TestRunArguments:
    """A fringe's run-level arguments are refused before any eigensolve or
    thread starts."""

    ENSEMBLE_CASES = [
        ("echo", IdealPulses(), [0.0, 10.0], 0, "n_echo"),
        ("echo", IdealPulses(), [0.0, 10.0], MAX_COUNT + 1, "n_echo"),
        ("echo", IdealPulses(), [0.0, 10.0], 2.5, "n_echo must be an integer, got 2.5"),
        ("echo", SequencePulses(REFERENCE_PI2), [0.0, 10.0], 2, "pi sequence"),
        ("ramsey", IdealPulses(), [-50.0, 0.0], 2, "hold times"),
        ("ramsey", IdealPulses(), [0.0, math.nan], 2, "hold times"),
        ("ramsey", IdealPulses(), [0.0, 2.0 * MAX_STEP_US], 2, "hold times"),
        ("ramsey", IdealPulses(), [10.0, 5.0], 2, "ascending"),
        # Once a TypeError from len(), and a (2, 2) grid solved every q first.
        ("ramsey", IdealPulses(), 10.0, 2, r"1-D array, got shape \(\)"),
        ("ramsey", IdealPulses(), [[0.0, 10.0], [20.0, 30.0]], 2,
         r"1-D array, got shape \(2, 2\)"),
        ("echo", IdealPulses(), [[0.0], [10.0]], 2, r"1-D array, got shape \(2, 1\)"),
    ]

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the arguments were checked")

        for name in ("ThreadPoolExecutor", "BandSet"):
            monkeypatch.setattr(interferometer, name, fail)

    @pytest.mark.parametrize("kind, pulses, times, n_echo, message", ENSEMBLE_CASES)
    def test_ensemble(self, spec, basis, kind, pulses, times, n_echo, message):
        ens = EnsembleSpec(sigma_q=0.1, quadrature=5)
        with pytest.raises(ValueError, match=message):
            ensemble_fringe(kind, pulses, np.array(times), ens, spec, basis, n_echo=n_echo,
                            threads=2)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda q, s, b: ramsey_pd(IdealPulses(), -50.0, q, s, b), "hold times"),
            (lambda q, s, b: ramsey_pd(IdealPulses(), math.nan, q, s, b), "hold times"),
            (lambda q, s, b: ramsey_pd(IdealPulses(), 2e6, q, s, b), "hold times"),
            # Once P_D at 5 us alone, with 6 us dropped.
            (lambda q, s, b: ramsey_pd(IdealPulses(), np.array([5.0, 6.0]), q, s, b),
             "hold times must be a 1-D array"),
            (lambda q, s, b: echo_pd(IdealPulses(), None, 2, np.array([5.0, 6.0]), q, s, b),
             "hold times must be a 1-D array"),
            (lambda q, s, b: echo_pd(IdealPulses(), None, 0, 10.0, q, s, b), "n_echo"),
            (lambda q, s, b: echo_pd(IdealPulses(), None, 2.5, 10.0, q, s, b),
             "n_echo must be an integer, got 2.5"),
            (lambda q, s, b: echo_pd(IdealPulses(), None, True, 10.0, q, s, b),
             "n_echo must be an integer, got True"),
            # q beyond the basis's reach, or not finite, as the ensembles refuse
            (lambda q, s, b: ramsey_pd(IdealPulses(), 10.0, np.array([100.0, 0.0]), s, b),
             r"q must be finite, with \|q\| <= the basis's largest \|G\| = 15 k, got \|q\| = 100 k"),
            (lambda q, s, b: echo_pd(IdealPulses(), None, 2, 10.0, np.array([math.nan, 0.0]),
                                     s, b),
             r"q must be finite, .* got \|q\| = nan k"),
            (lambda q, s, b: echo_pd(REFERENCE_PI2, None, 2, 10.0, q, s, b), "pi sequence"),
        ],
    )
    def test_single_q(self, spec, basis, call, message):
        with pytest.raises(ValueError, match=message):
            call(np.zeros(2), spec, basis)

    def test_too_many_hold_times(self, spec, basis):
        # One (basis size, hold times) complex table per q: 10^7 times would
        # ask for about 19 GB.
        times = np.zeros(MAX_HOLD_TIMES + 1)
        with pytest.raises(ValueError, match=f"^hold-time count must be finite, with 0 <= "
                                             f"hold-time count <= {MAX_HOLD_TIMES}, got "
                                             f"{MAX_HOLD_TIMES + 1}$"):
            ensemble_fringe("ramsey", IdealPulses(), times, EnsembleSpec(), spec, basis)

    def test_hold_times_are_refused_before_the_grid(self, spec, basis, monkeypatch):
        # A width schedule's grid holds a weight row per hold time, so the
        # count is refused before any grid is formed.
        def fail(*args, **kwargs):
            raise AssertionError("the grid was formed before the hold times were checked")

        monkeypatch.setattr(interferometer, "_quadrature_nodes", fail)
        ens = EnsembleSpec(sigma_q=0.3, quadrature=5, width_schedule=((0.0, 0.2), (500.0, 0.4)))
        with pytest.raises(ValueError, match="^hold-time count must be finite"):
            ensemble_fringe("ramsey", IdealPulses(), np.zeros(MAX_HOLD_TIMES + 1), ens,
                            spec, basis)

    @pytest.mark.parametrize("fwhm", [23.0, 1e300, 1e308])
    def test_grid_beyond_the_basis(self, spec, basis, fwhm):
        # A FWHM of 23 hbar k puts the farthest node at 3 sqrt(2) sigma =
        # 41.4 k, past the default basis's 15 k.
        ens = EnsembleSpec.from_width(fwhm, quadrature=5)
        with pytest.raises(ValueError, match=r"the basis's largest \|G\| = 15 k"):
            ensemble_fringe("ramsey", IdealPulses(), np.arange(3.0), ens, spec, basis)

    def test_pulses_must_be_a_model_or_a_sequence(self, spec, basis):
        with pytest.raises(TypeError, match="PulseModel or a PulseSequence"):
            ramsey_pd("ideal", 10.0, np.zeros(2), spec, basis)


class TestCheckReach:
    """An ensemble's farthest node, 3 sigma_q out on each grid axis, may
    reach the basis's largest |G| but not pass it."""

    @pytest.mark.parametrize(
        "ens",
        [EnsembleSpec(), EnsembleSpec(sigma_q=0.3, quadrature=9),
         *(EnsembleSpec.from_width(fwhm) for fwhm in (0.20, 0.56, 0.72))],
        ids=["q=0", "sigma=0.3", "fwhm=0.20", "fwhm=0.56", "fwhm=0.72"],
    )
    def test_acceptance_widths_pass(self, basis, ens):
        _quadrature_nodes(ens, basis, np.zeros(1))

    @pytest.mark.parametrize(
        "basis_name, axes, reach", [("basis", 2, 15.0), ("basis_1d", 1, 10.0)]
    )
    def test_edge(self, request, basis_name, axes, reach):
        edge = reach / (3.0 * math.sqrt(axes))
        grid_basis = request.getfixturevalue(basis_name)
        _quadrature_nodes(EnsembleSpec(sigma_q=edge), grid_basis, np.zeros(1))
        with pytest.raises(ValueError, match="farthest quadrature node must be finite"):
            _quadrature_nodes(EnsembleSpec(sigma_q=edge * (1.0 + 1e-6)), grid_basis, np.zeros(1))


class TestQuadratureNodes:
    """The ensemble's nodes sigma_q u on a mirrored unit grid u: every node's
    mirror -q is a node with the same weight, to the bit, and the centre is
    exactly q = 0 with weight 1, at any width down to the smallest floats."""

    @pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
    @pytest.mark.parametrize("schedule", [(), ((0.0, 0.1), (500.0, 0.4))],
                             ids=["fixed", "scheduled"])
    @pytest.mark.parametrize("fwhm", [1e-300, 1e-8, 0.20, 0.72])
    @pytest.mark.parametrize("quadrature", [5, 9, 21, 401])
    def test_mirror_pairs_are_exact(self, request, quadrature, fwhm, schedule, geometry):
        ens = EnsembleSpec(sigma_q=EnsembleSpec.from_width(fwhm).sigma_q,
                           quadrature=quadrature, width_schedule=schedule)
        basis = request.getfixturevalue(
            "basis_1d" if geometry is Geometry.STANDING_WAVE_1D else "basis")
        nodes = _quadrature_nodes(ens, basis, np.linspace(0.0, 900.0, 4))
        q = np.array([node[0] for node in nodes])
        w = np.array([wx * wy for _, wx, wy in nodes])
        assert len(nodes) == quadrature ** (1 if geometry is Geometry.STANDING_WAVE_1D else 2)
        assert np.array_equal(q, -q[::-1])
        assert np.array_equal(w, w[::-1])
        assert q[len(q) // 2].tolist() == [0.0, 0.0]
        assert np.all(w[len(w) // 2] == 1.0)
        assert np.all(np.isfinite(w)) and np.all(w > 0)


class TestEnsembleFringe:
    @pytest.mark.parametrize("ens", [
        EnsembleSpec(sigma_q=1e-300, quadrature=5),
        EnsembleSpec(sigma_q=0.3, quadrature=5, width_schedule=((0.0, 1e-150),)),
    ], ids=["tiny-width", "tiny-scheduled-width"])
    def test_near_delta_ensemble_is_the_zero_q_fringe(self, spec, basis, period, ens):
        # Once gave 0/0 weights: x^2 / (2 sigma^2) with both squares underflowing.
        times = np.linspace(0.0, period, 7)
        args = (FringeKind.RAMSEY, IdealPulses(), times)
        near = ensemble_fringe(*args, ens, spec, basis).p_d
        assert near == pytest.approx(ensemble_fringe(*args, EnsembleSpec(), spec, basis).p_d,
                                     abs=1e-12)

    def test_zero_width_equals_single_q(self, spec, basis, period):
        times = np.linspace(0.0, period, 7)
        ens = EnsembleSpec()
        curve = ensemble_fringe(
            FringeKind.RAMSEY, IdealPulses(), times, ens, spec, basis
        )
        for t, p in zip(times, curve.p_d):
            assert p == pytest.approx(
                ramsey_pd(IdealPulses(), t, np.zeros(2), spec, basis), abs=1e-12
            )

    def test_1d_grid_spans_qx_only(self, spec_1d, basis_1d):
        # The standing wave's ensemble is a line of q along its lattice axis:
        # the Gaussian-weighted mean of the single-q fringes on that line.
        times = np.linspace(0.0, 400.0, 9)
        ens = EnsembleSpec(sigma_q=0.2, quadrature=5)
        curve = ensemble_fringe(
            FringeKind.RAMSEY, IdealPulses(), times, ens, spec_1d, basis_1d
        )
        xs = np.linspace(-0.6, 0.6, 5)
        w = np.exp(-(xs**2) / (2 * 0.2**2))
        for t, p in zip(times, curve.p_d):
            pds = [ramsey_pd(IdealPulses(), t, np.array([x, 0.0]), spec_1d, basis_1d)
                   for x in xs]
            assert p == pytest.approx(w @ pds / w.sum(), abs=1e-12)

    def test_thread_count_invariant(self, spec, basis, period):
        times = np.linspace(0.0, 2 * period, 11)
        ens = EnsembleSpec(sigma_q=0.3, quadrature=7)
        c1 = ensemble_fringe(
            FringeKind.RAMSEY, IdealPulses(), times, ens, spec, basis, threads=1
        )
        c4 = ensemble_fringe(
            FringeKind.RAMSEY, IdealPulses(), times, ens, spec, basis, threads=4
        )
        assert np.array_equal(c1.p_d, c4.p_d)

    @pytest.mark.parametrize(
        "threads, message",
        [(t, f"threads must be finite, with threads >= 1, got {t}") for t in (0, -1, math.nan)]
        + [(t, f"threads must be an integer, got {t}") for t in (2.5, True)],
    )
    def test_threads_below_one_rejected(self, spec, basis, threads, message):
        ens = EnsembleSpec()
        with pytest.raises(ValueError, match=message):
            ensemble_fringe("ramsey", IdealPulses(), np.array([0.0, 1.0]), ens, spec, basis,
                            threads=threads)

    def test_threads_above_the_cpus_are_capped(self, spec, basis, monkeypatch):
        # A caller may pass its machine's CPU count, or more: the pool starts at
        # most one thread per CPU and per q, and the result does not change.
        pools = []

        class Pool(interferometer.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(interferometer, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(interferometer.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(interferometer.os, "cpu_count", lambda: 3)
        args = ("ramsey", IdealPulses(), np.array([0.0, 40.0]),
                EnsembleSpec(sigma_q=0.3, quadrature=5), spec, basis)
        capped, serial = ensemble_fringe(*args, threads=1000), ensemble_fringe(*args, threads=1)
        assert pools == [3, 1]
        assert np.array_equal(capped.p_d, serial.p_d)
        assert np.array_equal(capped.phase_contrast.contrast, serial.phase_contrast.contrast)

    def test_quadrature_refinement_converged(self, spec, basis):
        # Ideal Ramsey at the reference width on the CLI's 2.5 ms grid.  P_D(q, t)
        # oscillates in q at a rate growing with t, so the 21- and 31-node rules
        # part late: measured 6.0e-4 up to 1.5 ms, 5.2e-3 at 2472 us.
        times = np.arange(0.0, 2500.0, 8.0)
        p = {}
        for n in (21, 31):
            ens = EnsembleSpec.from_width(0.72, quadrature=n)
            p[n] = ensemble_fringe(
                FringeKind.RAMSEY, IdealPulses(), times, ens, spec, basis, threads=4
            ).p_d
        gap = np.abs(p[21] - p[31])
        assert np.max(gap[times <= 1500.0]) < 1e-3
        assert np.max(gap) < 6e-3

    def test_wider_ensemble_dephases_faster(self, spec, basis, period):
        t_probe = np.array([500.0])
        c = {}
        for sigma in (0.1, 0.3):
            ens = EnsembleSpec(sigma_q=sigma, quadrature=21)
            c[sigma] = ensemble_fringe(
                FringeKind.RAMSEY, IdealPulses(), t_probe, ens, spec, basis, threads=4
            ).phase_contrast.contrast[0]
        assert c[0.3] < c[0.1]

    @pytest.mark.parametrize("fwhm", [0.72, 0.56, 0.20])
    def test_constant_schedule_is_no_schedule(self, spec, fwhm):
        # A schedule that holds the width constant weighs every hold time as
        # the plain width does, through the same weight path.
        basis = build_basis(spec, shell_radius=2)
        times = np.linspace(0.0, 900.0, 13)
        plain = EnsembleSpec.from_width(fwhm)
        sigma = plain.sigma_q
        scheduled = EnsembleSpec(sigma_q=sigma, width_schedule=((0.0, sigma), (900.0, sigma)))
        a = ensemble_fringe(FringeKind.RAMSEY, IdealPulses(), times, plain, spec, basis)
        b = ensemble_fringe(FringeKind.RAMSEY, IdealPulses(), times, scheduled, spec, basis)
        assert np.array_equal(a.p_d, b.p_d)


class TestStreamedSum:
    """The streamed quadrature sum against a dense (nq, T) oracle,
    sum_q w_q c_q / sum_q w_q, on the grid sigma_q u of mirrored unit nodes u
    with weights exp(-(u sigma_q / sigma(t))^2 / 2)."""

    @staticmethod
    def _dense_sums(kind, model, times, ens, spec, basis):
        half = np.linspace(0.0, 3.0, ens.quadrature // 2 + 1)
        u = np.concatenate((-half[:0:-1], half))
        xs = ens.sigma_q * u
        ratios = [1.0] * len(times)
        if ens.width_schedule:
            ts, ss = (np.array(col, dtype=float) for col in zip(*ens.width_schedule))
            ratios = ens.sigma_q / np.interp(times, ts, ss)
        columns = []
        for ratio in ratios:
            wx = np.exp(-0.5 * (u * ratio) ** 2)
            columns.append(np.outer(wx, wx).ravel())
        weights = np.stack(columns, axis=1)
        parts = [
            _fringe_kernel(kind, model, times, BandSet(np.array([qx, qy]), spec, basis), 2)
            for qx in xs
            for qy in xs
        ]
        total = np.sum(weights, axis=0)
        return [np.sum(weights * np.array(col), axis=0) / total for col in zip(*parts)]

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("kind", [FringeKind.RAMSEY, FringeKind.ECHO])
    @pytest.mark.parametrize("scheduled", [False, True])
    def test_equals_dense_oracle(self, spec, kind, threads, scheduled):
        basis = build_basis(spec, shell_radius=2)
        model = SequencePulses(pi2=REFERENCE_PI2, pi=REFERENCE_PI)
        times = np.linspace(0.0, 900.0, 13)
        schedule = ((0.0, 0.2), (500.0, 0.35), (800.0, 0.3)) if scheduled else ()
        ens = EnsembleSpec(sigma_q=0.25, quadrature=5, width_schedule=schedule)
        args = (kind, model, times, ens, spec, basis)
        p_d, num, den = self._dense_sums(*args)
        contrast = np.clip(np.where(den > 0, 2.0 * np.abs(num) / den, 0.0), 0.0, 1.0)
        fringe = ensemble_fringe(*args, threads=threads)
        assert np.array_equal(fringe.p_d, p_d)
        assert np.array_equal(fringe.phase_contrast.contrast, contrast)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", [FringeKind.RAMSEY, FringeKind.ECHO])
    @pytest.mark.parametrize("model", [IdealPulses(), SequencePulses(REFERENCE_PI2, REFERENCE_PI)],
                             ids=["ideal", "locked"])
    def test_one_pass_yields_both_views(self, spec, kind, threads, model):
        basis = build_basis(spec, shell_radius=2)
        args = (kind, model, np.linspace(0.0, 900.0, 13),
                EnsembleSpec(sigma_q=0.25, quadrature=5), spec, basis)
        p_d, num, den = _ensemble_sums(*args, 2, threads)
        contrast = np.clip(np.where(den > 0, 2.0 * np.abs(num) / den, 0.0), 0.0, 1.0)
        fringe = ensemble_fringe(*args, threads=threads)
        assert np.array_equal(p_d, fringe.p_d)
        assert np.array_equal(contrast, fringe.phase_contrast.contrast)
        assert fringe.phase_contrast.times is fringe.times

    @staticmethod
    def _peak_and_bound(spec, schedule=()):
        basis = build_basis(spec, shell_radius=2)
        times = np.arange(2000) * 4.0
        ens = EnsembleSpec(sigma_q=0.3, quadrature=21, width_schedule=schedule)
        nq = ens.quadrature**2
        ensemble_fringe(FringeKind.RAMSEY, IdealPulses(), times[:3], ens, spec, basis)
        tracemalloc.start()
        try:
            ensemble_fringe(FringeKind.RAMSEY, IdealPulses(), times, ens, spec, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Holding every q's P_D or weights, as a stacked (nq, T) array, needs more.
        return peak, nq * len(times) * 8

    def test_memory_does_not_grow_with_the_grid(self, spec):
        peak, bound = self._peak_and_bound(spec)
        assert peak < bound

    def test_memory_does_not_grow_with_a_width_schedule(self, spec):
        peak, bound = self._peak_and_bound(spec, ((0.0, 0.3), (8000.0, 0.3)))
        assert peak < bound


class TestPhaseScan:
    def test_ideal_ramsey_equals_dephasing_factor(self, spec, basis):
        # For ideal pulses the phase-scan contrast must equal the modulus of
        # the ensemble average of exp(-i gap(q) t / hbar).
        from artifact.lattice import angular_frequency_per_Er

        ens = EnsembleSpec(sigma_q=0.3, quadrature=9)
        times = np.array([0.0, 300.0, 900.0])
        curve = ensemble_fringe(
            FringeKind.RAMSEY, IdealPulses(), times, ens, spec, basis
        ).phase_contrast
        s_idx, d_idx = default_band_pair(spec.geometry)
        w = angular_frequency_per_Er(spec)
        sigma = ens.sigma_q
        xs = np.linspace(-3 * sigma, 3 * sigma, ens.quadrature)
        wx = np.exp(-(xs**2) / (2 * sigma**2))
        num = np.zeros(len(times), dtype=complex)
        den = 0.0
        for qx, wa in zip(xs, wx):
            for qy, wb in zip(xs, wx):
                weight = wa * wb
                energies, _ = band_eig(np.array([qx, qy]), spec, basis)
                gap = energies[d_idx - 1] - energies[s_idx - 1]
                num += weight * np.exp(-1j * gap * w * times)
                den += weight
        assert curve.contrast == pytest.approx(np.abs(num) / den, abs=1e-9)

    def test_ideal_echo_contrast_is_one_everywhere(self, spec, basis):
        ens = EnsembleSpec(sigma_q=0.3, quadrature=9)
        times = np.array([0.0, 400.0, 1600.0])
        ramsey = ensemble_fringe(
            FringeKind.RAMSEY, IdealPulses(), times, ens, spec, basis
        ).phase_contrast.contrast
        echo = ensemble_fringe(
            FringeKind.ECHO, IdealPulses(), times, ens, spec, basis, n_echo=2
        ).phase_contrast.contrast
        assert echo == pytest.approx(np.ones_like(times), abs=1e-9)
        assert np.all(echo >= ramsey - 1e-9)


class TestEffectiveMassLimit:
    """Ideal-pulse Ramsey contrast against the effective-mass model
    Delta(q) ~ Delta_0 + kappa |q|^2 / 2 of the S-D gap near q = 0.  A
    Gaussian ensemble of width sigma then has the phasor 1/(1 + i w kappa
    sigma^2 t), so C(t) = [1 + (w kappa sigma^2 t)^2]^(-1/2) and the 1/e
    time is sqrt(e^2 - 1)/(w kappa sigma^2).  The model checks the ensemble
    grid and weights, the kernel's hold phases and the contrast extraction
    end to end, against physics that does not involve the pulse code."""

    FWHMS = (0.20, 0.10, 0.05)
    NODES = 15
    H = 1e-3

    @pytest.fixture(scope="class")
    def hessian(self, spec, basis):
        """Central differences of the band-4 - band-1 gap at q = 0:
        (kappa_xx, kappa_yy, kappa_xy) in E_r per k^2."""
        s_idx, d_idx = default_band_pair(spec.geometry)

        def gap(qx, qy):
            energies, _ = band_eig(np.array([qx, qy]), spec, basis)
            return energies[d_idx - 1] - energies[s_idx - 1]

        h = self.H
        g0 = gap(0.0, 0.0)
        return (
            (gap(h, 0.0) - 2.0 * g0 + gap(-h, 0.0)) / h**2,
            (gap(0.0, h) - 2.0 * g0 + gap(0.0, -h)) / h**2,
            (gap(h, h) - gap(h, -h) - gap(-h, h) + gap(-h, -h)) / (4.0 * h**2),
        )

    @pytest.fixture(scope="class")
    def scans(self, spec, basis, hessian):
        """Per width: (tau_model, hold times, package contrast, contrast of
        the model summed on the package's +-3 sigma grid and weights)."""
        kappa = (hessian[0] + hessian[1]) / 2.0
        w = angular_frequency_per_Er(spec)
        out = []
        for fwhm in self.FWHMS:
            ens = EnsembleSpec.from_width(fwhm, quadrature=self.NODES)
            sigma = ens.sigma_q
            tau = math.sqrt(math.e**2 - 1.0) / (w * kappa * sigma**2)
            times = tau * np.linspace(0.0, 2.0, 41)
            got = ensemble_fringe(
                FringeKind.RAMSEY, IdealPulses(), times, ens, spec, basis
            ).phase_contrast.contrast
            xs = np.linspace(-3.0 * sigma, 3.0 * sigma, self.NODES)
            wx = np.exp(-(xs**2) / (2.0 * sigma**2))
            axis = np.exp(-0.5j * kappa * w * np.outer(times, xs**2)) @ (wx / wx.sum())
            out.append((tau, times, got, np.abs(axis) ** 2))
        return out

    def test_hessian_is_isotropic(self, hessian):
        kxx, kyy, kxy = hessian
        assert kxx == pytest.approx(6.125, abs=1e-3)
        assert abs(kxx - kyy) < 1e-6
        assert abs(kxy) < 1e-6

    def test_error_falls_with_the_width_squared(self, scans):
        # The anharmonic term is the only difference from the grid-matched
        # model, so halving the width cuts it about 4x.
        errors = [np.max(np.abs(got - model)) for _, _, got, model in scans]
        for wide, narrow in zip(errors, errors[1:]):
            assert narrow * 3.0 <= wide

    def test_crossing_tends_to_the_model(self, scans):
        tau, times, got, _ = scans[-1]
        crossing = coherence_time(ContrastCurve(times=times, contrast=got)).crossing_us
        assert crossing == pytest.approx(tau, rel=5e-3)


class TestContrastCurve:
    def test_decaying_cosine_envelope(self, period):
        tau = 900.0
        t = np.arange(0.0, 8 * period, period / 24)
        p = 0.5 + 0.5 * np.exp(-t / tau) * np.cos(2 * np.pi * t / period)
        curve = contrast_curve(FringeCurve(times=t, p_d=p), period)
        centers = curve.times
        expected = np.exp(-centers / tau)
        assert curve.contrast == pytest.approx(expected, rel=0.08)

    def test_span_validated(self, period):
        t = np.linspace(0.0, period, 30)
        p = np.full_like(t, 0.5)
        with pytest.raises(ValueError):
            contrast_curve(FringeCurve(times=t, p_d=p), period)

    def test_span_rule_is_shared(self, period):
        t = np.linspace(0.0, 2 * period, 17)  # exactly two windows at dt = window/8
        contrast_curve(FringeCurve(times=t, p_d=np.full_like(t, 0.5)), period)
        for times in ([0.0, 1.99 * period], [0.0], []):
            t = np.array(times)
            with pytest.raises(ValueError, match="two periods"):
                contrast_curve(FringeCurve(times=t, p_d=np.full_like(t, 0.5)), period)

    def test_empty_fringe_refused(self, period):
        # ensemble_fringe accepts empty hold times.
        t = np.array([])
        with pytest.raises(ValueError, match="two periods"):
            contrast_curve(FringeCurve(times=t, p_d=np.full_like(t, 0.5)), period)

    def test_eight_samples_per_window_accepted(self, period):
        t = np.arange(0.0, 10 * period, period / 8)
        p = 0.5 + 0.5 * np.cos(2 * np.pi * t / period)
        assert len(contrast_curve(FringeCurve(times=t, p_d=p), period).times) >= 9
        t = np.arange(0.0, 10 * period, period / 7.9)
        with pytest.raises(ValueError, match="dt"):
            contrast_curve(FringeCurve(times=t, p_d=np.full_like(t, 0.5)), period)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_period_must_be_positive_and_finite(self, period, bad):
        t = np.arange(0.0, 10 * period, period / 24)
        p = np.full_like(t, 0.5)
        with pytest.raises(ValueError, match=f"period must be finite, with period > 0, got {bad}"):
            contrast_curve(FringeCurve(times=t, p_d=p), bad)

    def test_sampling_validated(self, period):
        t = np.arange(0.0, 10 * period, period / 3)
        p = np.full_like(t, 0.5)
        with pytest.raises(ValueError):
            contrast_curve(FringeCurve(times=t, p_d=p), period)

    def test_fringe_below_zero_refused(self):
        # A window whose minimum is below 0 would read a contrast above 1.
        t = np.arange(0.0, 1000.0, 4.0)
        p = 0.5 + 0.6 * np.cos(2 * np.pi * t / 88.8) * np.exp(-t / 500.0)
        with pytest.raises(ValueError, match=r"P_D must be >= 0, got -0\.0492365 at t = 44 us"):
            contrast_curve(FringeCurve(times=t, p_d=p), 88.8)


class TestCoherenceTime:
    def test_recovers_synthetic_tau(self):
        t = np.linspace(0.0, 3000.0, 40)
        tau = 800.0
        curve = ContrastCurve(times=t, contrast=np.exp(-t / tau))
        res = coherence_time(curve)
        assert res.fit_tau_us == pytest.approx(tau, rel=0.02)
        assert res.crossing_us == pytest.approx(tau, rel=0.05)
        assert res.fit_amplitude == pytest.approx(1.0, rel=0.02)

    def test_flat_curve_never_crosses(self):
        t = np.linspace(0.0, 1000.0, 12)
        curve = ContrastCurve(times=t, contrast=np.full_like(t, 0.9))
        res = coherence_time(curve)
        assert res.crossing_us is None
        assert np.isinf(res.fit_tau_us)

    def test_curve_starting_below_threshold_has_no_crossing(self):
        t = np.linspace(0.0, 1000.0, 12)
        curve = ContrastCurve(times=t, contrast=np.full_like(t, 0.2))
        res = coherence_time(curve)
        assert res.crossing_us is None

    def test_needs_three_samples(self):
        curve = ContrastCurve(
            times=np.array([0.0, 1.0]), contrast=np.array([1.0, 0.9])
        )
        with pytest.raises(ValueError):
            coherence_time(curve)

    @staticmethod
    def _seed(t, c):
        slope, intercept = np.polyfit(t, np.log(np.clip(c, 1e-12, None)), 1)
        return [float(min(np.exp(intercept), 2.0)), float(-1.0 / slope)]

    @staticmethod
    def _synthetic(seed):
        rng = np.random.default_rng(seed)
        t = np.arange(0.0, 3000.0, 88.8) + 44.4
        amp, tau = rng.uniform(0.5, 0.95), rng.uniform(400.0, 2000.0)
        c = amp * np.exp(-t / tau) + rng.normal(0.0, 0.01, len(t))
        return t, np.clip(c, 0.0, 1.0)

    @staticmethod
    def _ideal_ramsey(spec):
        basis = build_basis(spec, shell_radius=2)
        period = fringe_period_us(spec, basis)
        ens = EnsembleSpec.from_width(0.72, reading="fwhm", quadrature=9)
        times = np.arange(0.0, 1500.0, 4.0)
        fringe = ensemble_fringe(FringeKind.RAMSEY, IdealPulses(), times, ens, spec, basis)
        curve = contrast_curve(fringe, period)
        return curve.times, curve.contrast

    @staticmethod
    def _zero_tail():
        # A = 0.82, tau = 417 us with noise 0.01; the last three windows read
        # exactly 0.
        rng = np.random.default_rng(2)
        t = np.arange(0.0, 1200.0, 44.4) + 22.2
        c = np.clip(0.82 * np.exp(-t / 417.0) + rng.normal(0.0, 0.01, len(t)), 0, 1)
        c[-3:] = 0.0
        return t, c

    @pytest.mark.parametrize("source", [11, 12, 13, 14, "ideal-ramsey", "zero-tail"])
    def test_matches_curve_fit(self, spec, source):
        from scipy.optimize import curve_fit

        if source == "ideal-ramsey":
            t, c = self._ideal_ramsey(spec)
        elif source == "zero-tail":
            t, c = self._zero_tail()
        else:
            t, c = self._synthetic(source)
        res = coherence_time(ContrastCurve(times=t, contrast=c))
        popt, _ = curve_fit(
            lambda tt, a, tau: a * np.exp(-tt / tau), t, c, p0=self._seed(t, c),
            maxfev=10000,
        )
        assert res.fit_amplitude == pytest.approx(popt[0], rel=1e-5)
        assert res.fit_tau_us == pytest.approx(popt[1], rel=1e-5)

        def cost(amp, tau):
            return float(np.sum((c - amp * np.exp(-t / tau)) ** 2))

        assert cost(res.fit_amplitude, res.fit_tau_us) <= cost(*popt) * (1 + 1e-12)

    def test_fit_without_a_minimum_reports_the_seed(self):
        # One window of contrast and zeros after it: the residual falls all
        # the way to an infinite rate, so the fit finds no minimum.
        t = 44.4 + 88.8 * np.arange(28)
        c = np.zeros(len(t))
        c[0] = 1.0
        seed = self._seed(t, c)
        assert interferometer._fit_decay(t, c, seed[1]) is None
        res = coherence_time(ContrastCurve(times=t, contrast=c))
        assert [res.fit_amplitude, res.fit_tau_us] == seed

    def test_overflowing_start_is_clamped(self):
        # Contrast that falls a thousandfold within one window, 10 ms after
        # t = 0: the log-linear intercept, about 783, would overflow exp.
        # The fit's amplitude overflows too, so the clamped start is reported,
        # with no warning.
        t = 10044.4 + 88.8 * np.arange(28)
        c = np.zeros(len(t))
        c[:2] = 1.0, 1e-3
        curve = ContrastCurve(times=t, contrast=c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert interferometer._fit_decay(t, c, 12.8551166643363) is None
            res = coherence_time(curve)
        assert (res.fit_amplitude, res.fit_tau_us) == (2.0, 12.8551166643363)

    def test_zero_samples_do_not_spoil_the_seed(self, monkeypatch):
        # Regressed on log(clip(c, 1e-12)) the seed would be A = 2.0
        # (clamped), tau = 73 us; the samples above the floor give tau = 414 us
        # against the least-squares 409 us.
        curve = ContrastCurve(*self._zero_tail())
        best = coherence_time(curve).fit_tau_us
        monkeypatch.setattr(interferometer, "_fit_decay", lambda *args: None)
        seeded = coherence_time(curve).fit_tau_us
        assert seeded == pytest.approx(best, rel=0.2)

    def test_noise_with_a_falling_log_slope_does_not_decay(self):
        # Uniform noise whose log-linear regression falls: the residual is
        # lowest at rate 0, where the best amplitude is the mean.
        t = 44.4 + 88.8 * np.arange(28)
        c = np.random.default_rng(17).uniform(0.0, 1.0, len(t))
        assert np.polyfit(t, np.log(c), 1)[0] < 0
        res = coherence_time(ContrastCurve(times=t, contrast=c))
        assert res.fit_tau_us == math.inf
        assert res.fit_amplitude == pytest.approx(np.mean(c), rel=1e-15)
        for tau in np.geomspace(1e2, 1e12, 41):
            e = np.exp(-t / tau)
            amp = (c @ e) / (e @ e)
            assert np.sum((c - amp * e) ** 2) >= np.sum((c - np.mean(c)) ** 2)


class TestGlobalPhaseInvariance:
    """A constant added to the potential shifts every band energy alike, so
    it multiplies each pulse and hold operator by a global phase, which no
    population may see (ROADMAP, "A phase lock that a global phase cannot
    move")."""

    PULSES = SequencePulses(REFERENCE_PI2, REFERENCE_PI)
    QS = (np.zeros(2), np.array([0.21, -0.13]))
    T_US = 300.0

    def _shift(self, p_d, monkeypatch, qs=QS):
        """Largest |change| of p_d(q) over ``qs`` when 0.7 E_r is added to
        the potential."""
        from artifact import lattice

        before = [p_d(q) for q in qs]
        base = lattice.potential_fourier

        def shifted(spec, depth=None):
            comps = dict(base(spec, depth))
            comps[(0, 0)] = comps.get((0, 0), 0.0) + 0.7
            return comps

        monkeypatch.setattr(lattice, "potential_fourier", shifted)
        after = [p_d(q) for q in qs]
        return max(abs(a - b) for a, b in zip(after, before))

    def test_ramsey(self, spec, basis, monkeypatch):
        def p_d(q):
            return ramsey_pd(self.PULSES, self.T_US, q, spec, basis)

        assert self._shift(p_d, monkeypatch) <= 1e-8

    def test_ramsey_to_rounding(self, spec, basis, monkeypatch):
        # The pi/2 lock has an isolated maximizer, solved to rounding, so the
        # offset moves Ramsey P_D only by rounding.
        qs = (*self.QS, np.array([-0.09, 0.17]))

        def p_d(q):
            return ramsey_pd(self.PULSES, self.T_US, q, spec, basis)

        assert self._shift(p_d, monkeypatch, qs) <= 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP, 'A phase lock that a global phase cannot move': the "
            "pi pulse's phase lock fixes its free gauge direction by making "
            "one overlap real, which moves with the operator's global phase; "
            "echo P_D moves by 5.7e-2."
        ),
    )
    def test_echo(self, spec, basis, monkeypatch):
        def p_d(q):
            return echo_pd(self.PULSES, None, 2, self.T_US, q, spec, basis)

        assert self._shift(p_d, monkeypatch) <= 1e-8


_KINDS = [FringeKind.RAMSEY, FringeKind.ECHO]
_INVARIANCE_TIMES = np.arange(0.0, 5000.0, 50.0)


def _max_change(before, after):
    """Largest |difference| between two tuples of kernel components."""
    return max(float(np.max(np.abs(a - b))) for a, b in zip(before, after, strict=True))


class TestInversionInvariance:
    """The rhombus site set is closed under n -> -n and the potential's
    Fourier components are equal at +-G, so H(-q) = P H(q) P with P a
    permutation of the plane waves: the per-q fringe and phase-scan
    components are even in q (largest change 9.7e-13 at these q)."""

    QS = np.random.default_rng(3).uniform(-0.9, 0.9, size=(3, 2))

    @pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "pulses",
        [IdealPulses(), SequencePulses(REFERENCE_PI2, REFERENCE_PI)],
        ids=["ideal", "reference"],
    )
    def test_fringe_is_invariant_under_q_inversion(self, spec, basis, kind, pulses):
        for q in self.QS:  # (P_D, num, den) at q and at -q
            at_q, at_minus_q = (
                _fringe_kernel(kind, pulses, _INVARIANCE_TIMES, BandSet(k, spec, basis), 2)
                for k in (q, -q)
            )
            assert _max_change(at_q, at_minus_q) <= 1e-11


class TestMirrorInvariance:
    """The lattice is symmetric under q_x -> -q_x and under q_y -> -q_y.  The
    hexagonal site set max(|n1|, |n2|, |n1 - n2|) <= N is closed under both
    mirrors, so there the per-q fringe and phase-scan components are even
    under each (largest change 1.3e-12 at these q).  The rhombus site set of
    :func:`build_basis` breaks them: by 1.9e-8 for ideal Ramsey, 5.6e-5 for
    reference Ramsey and 9.1e-5 for reference echo, while ideal echo stays
    even to 8.9e-15; so the rhombus xfails on the largest case alone."""

    QS = TestInversionInvariance.QS
    MIRRORS = (np.array([-1.0, 1.0]), np.array([1.0, -1.0]))

    def _largest_change(self, spec, basis):
        changes = []
        for kind in _KINDS:
            for pulses in (IdealPulses(), SequencePulses(REFERENCE_PI2, REFERENCE_PI)):
                for q in self.QS:  # (P_D, num, den) at q and at its mirror images
                    at_q, *mirrored = (
                        _fringe_kernel(kind, pulses, _INVARIANCE_TIMES, BandSet(k, spec, basis), 2)
                        for k in (q, *(q * m for m in self.MIRRORS))
                    )
                    changes += [_max_change(at_q, at_m) for at_m in mirrored]
        return max(changes)

    def test_fringe_is_mirror_invariant_on_the_hexagonal_basis(self, spec, hex_basis):
        assert self._largest_change(spec, hex_basis) <= 1e-11

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the rhombus truncation breaks the mirrors, by up to 9.1e-5",
    )
    def test_fringe_is_mirror_invariant_on_the_rhombus_basis(self, spec, basis):
        assert self._largest_change(spec, basis) <= 1e-11


class TestFringeIsTheScansZeroPhase:
    """The phase scan's P_D at zero analysis phase is the fringe itself:
    den + 2 Re(num) = |(amp - b) + b|^2 = |amp|^2 whatever b is, so the rows
    agree at every q and hold time when P_D and the scan pair read the same
    final state (largest difference 4.4e-16 over these cases), and a P_D
    taken from a stale state breaks it.  The dense oracle checks b."""

    QS = (*TestInversionInvariance.QS, np.array([0.917, 0.0]))

    @pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "pulses",
        [IdealPulses(),
         SequencePulses(REFERENCE_PI2, REFERENCE_PI),
         SequencePulses(REFERENCE_PI2, REFERENCE_PI_VARIABLE, phase_locked=False)],
        ids=["ideal", "locked", "unlocked-variable-pi"],
    )
    def test_fringe_is_the_scan_at_zero_phase(self, spec, basis, kind, pulses):
        for q in self.QS:
            bands = BandSet(q, spec, basis)
            p_d, num, den = _fringe_kernel(kind, pulses, _INVARIANCE_TIMES, bands, 2)
            assert np.max(np.abs(p_d - (den + 2.0 * num.real))) <= 1e-14


class TestBasisConvergence:
    """P_D at q = (0.3, 0.1) with the reference pulses on the rhombus basis
    of shell radius N = 4, 5, 6.  |P_4 - P_5| is 2.1e-5 for Ramsey (300 us)
    and 3.8e-4 for echo (1 ms); |P_5 - P_6| is 6.0e-6 and 2.7e-6."""

    Q = np.array([0.3, 0.1])
    PULSES = SequencePulses(REFERENCE_PI2, REFERENCE_PI)

    @pytest.mark.parametrize(
        "kind, t_us", [(FringeKind.RAMSEY, 300.0), (FringeKind.ECHO, 1000.0)],
        ids=lambda v: getattr(v, "value", None),
    )
    def test_pd_converges_in_shell_radius(self, spec, kind, t_us):
        p4, p5, p6 = (
            ramsey_pd(self.PULSES, t_us, self.Q, spec, build_basis(spec, n))
            if kind is FringeKind.RAMSEY
            else echo_pd(self.PULSES, None, 2, t_us, self.Q, spec, build_basis(spec, n))
            for n in (4, 5, 6)
        )
        assert abs(p5 - p6) <= 2e-5
        assert abs(p5 - p6) < abs(p4 - p5)


class TestEigenvectorGaugeInvariance:
    """Every pulse and hold is built from projectors and band phases, so no
    output may see the phase of an eigenvector column.  Random per-band
    phases in place of the package's convention move P_D and the ensemble's
    phase-scan num and den by at most 1.1e-14.  The per-q ratio 2|num|/den is
    not compared: at q = (0.9, 0) the reference pulses leave den as small as
    2.9e-13 at these times, and there the gauge moves the ratio by 1.5e-9."""

    QS = (np.zeros(2), np.array([0.21, -0.13]), np.array([-0.5, 0.4]),
          np.array([0.9, 0.0]))
    ENS = EnsembleSpec(sigma_q=0.3, quadrature=5)  # q axes reach +-0.9

    def _outputs(self, kind, pulses, spec, basis):
        p_d = [_fringe_kernel(kind, pulses, _INVARIANCE_TIMES, BandSet(q, spec, basis), 2)[0]
               for q in self.QS]
        _, num, den = _ensemble_sums(kind, pulses, _INVARIANCE_TIMES, self.ENS, spec,
                                     basis, 2, 1)
        return (*p_d, num, den)

    @pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "pulses",
        [IdealPulses(),
         SequencePulses(REFERENCE_PI2, REFERENCE_PI),
         SequencePulses(REFERENCE_PI2, REFERENCE_PI_VARIABLE),
         SequencePulses(REFERENCE_PI2, REFERENCE_PI, phase_locked=False)],
        ids=["ideal", "locked", "locked-variable-pi", "unlocked"],
    )
    def test_fringe_is_invariant_under_eigenvector_gauge(
        self, spec, basis, monkeypatch, kind, pulses
    ):
        from artifact import dynamics

        before = self._outputs(kind, pulses, spec, basis)
        rng = np.random.default_rng(11)

        def random_gauge(states):
            return states * np.exp(2j * np.pi * rng.random(states.shape[1]))

        monkeypatch.setattr(dynamics, "_fix_phases", random_gauge)
        after = self._outputs(kind, pulses, spec, basis)
        assert _max_change(before, after) <= 1e-13


class TestSequenceEnsembleRegression:
    def test_locked_ramsey_contrast_start(self, spec, basis, period):
        # Realistic locked pulses on the reference ensemble: the fringe
        # keeps near-full contrast at short times.
        times = np.arange(0.0, 3 * period, 4.0)
        ens = EnsembleSpec.from_width(0.72, reading="fwhm", quadrature=21)
        model = SequencePulses(pi2=REFERENCE_PI2)
        curve = ensemble_fringe(
            FringeKind.RAMSEY, model, times, ens, spec, basis, threads=4
        )
        contrast = contrast_curve(curve, period)
        assert contrast.contrast[0] > 0.9

    def test_unlocked_pulses_still_run(self, spec, basis):
        model = SequencePulses(pi2=REFERENCE_PI2, phase_locked=False)
        p = ramsey_pd(model, 50.0, np.zeros(2), spec, basis)
        assert 0.0 <= p <= 1.0 + 1e-9
