import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import dynamics
from artifact.dynamics import BandSet, PulseSequence, evolve_columns
from artifact.lattice import MAX_DEPTH_ER
from artifact.sequences import (
    REFERENCE_LOAD,
    REFERENCE_PI,
    REFERENCE_PI2,
    REFERENCE_PI_VARIABLE,
)
from artifact import shortcut
from artifact.shortcut import (
    MAX_COUNT,
    ObjectiveKind,
    OptimizerOptions,
    PulseObjective,
    ROTATION_BLOCKS,
    _ascend,
    aligned_fidelity_block,
    build_objective,
    design_sequence,
    fidelity,
    fidelity_report,
    optimize,
)

TINY = OptimizerOptions(max_iters=5, restarts=1, rng_seed=0)


@pytest.fixture(scope="module")
def objectives(spec, basis):
    return {k: build_objective(k, spec, basis) for k in ObjectiveKind}


class TestObjective:
    def test_pair_counts(self, objectives):
        assert objectives[ObjectiveKind.HALF_PI].initial.shape[1] == 2
        assert objectives[ObjectiveKind.PI].initial.shape[1] == 2
        assert objectives[ObjectiveKind.LOAD].initial.shape[1] == 1

    def test_band_frame_orthonormal(self, objectives):
        frame = objectives[ObjectiveKind.HALF_PI].bands.frame
        assert np.allclose(frame.conj().T @ frame, np.eye(2), atol=1e-10)

    def test_rotation_blocks_unitary(self):
        for block in ROTATION_BLOCKS.values():
            assert np.allclose(
                block.conj().T @ block, np.eye(2), atol=1e-12
            )

    def test_default_quasimomentum_is_gamma(self, objectives):
        assert objectives[ObjectiveKind.HALF_PI].bands.q == pytest.approx(
            [0.0, 0.0], abs=1e-15
        )

    def test_objectives_at_different_q_differ(self, objectives, spec, basis):
        at_gamma = objectives[ObjectiveKind.HALF_PI]
        assert at_gamma == at_gamma
        assert at_gamma != PulseObjective(ObjectiveKind.HALF_PI,
                                          BandSet(np.array([0.3, 0.0]), spec, basis))

    @pytest.mark.parametrize("kind", [ObjectiveKind.HALF_PI, ObjectiveKind.PI])
    def test_rotations_start_from_the_frame(self, objectives, kind):
        obj = objectives[kind]
        assert obj.initial is obj.bands.frame

    @pytest.mark.parametrize("q", [[100.0, 0.0], [math.nan, 0.0], [1e200, 0.0]],
                             ids=["beyond-reach", "nan", "huge"])
    def test_refuses_a_q_beyond_the_basis(self, spec, basis, monkeypatch, q):
        # Once an objective 85 k beyond the default basis's 15 k reach, and
        # for nan or 1e200 an ArithmeticError from the Hamiltonian.  The
        # refusal is ramsey_pd's, made by the record before any band is solved.
        def fail(*args, **kwargs):
            raise AssertionError("solved a band before checking q")

        monkeypatch.setattr(dynamics, "band_eig", fail)
        bands = BandSet(np.array(q), spec, basis)
        with pytest.raises(ValueError, match=r"^q must be finite, with \|q\| <= the basis's "
                                             r"largest \|G\| = 15 k, got \|q\| = "):
            PulseObjective(ObjectiveKind.HALF_PI, bands)

    @pytest.mark.parametrize("kind, reference", [(ObjectiveKind.HALF_PI, REFERENCE_PI2),
                                                 (ObjectiveKind.PI, REFERENCE_PI),
                                                 (ObjectiveKind.LOAD, REFERENCE_LOAD)],
                             ids=["pi2", "pi", "load"])
    def test_takes_a_kind_or_its_value(self, objectives, spec, basis, kind, reference):
        # Once a KeyError from fidelity for a value: "load" built a two-pair
        # rotation objective from the frame.
        obj = PulseObjective(kind.value, BandSet(np.zeros(2), spec, basis))
        assert obj.kind is kind
        assert obj.initial.shape == objectives[kind].initial.shape
        assert fidelity(reference, obj) == fidelity(reference, objectives[kind])

    def test_refuses_an_unknown_kind(self, spec, basis):
        with pytest.raises(ValueError, match="'bogus' is not a valid ObjectiveKind"):
            PulseObjective("bogus", BandSet(np.zeros(2), spec, basis))


class TestReferenceFidelities:
    def test_half_pi(self, objectives):
        f = fidelity(REFERENCE_PI2, objectives[ObjectiveKind.HALF_PI])
        assert f == pytest.approx(0.9832, abs=5e-4)

    def test_load(self, objectives):
        f = fidelity(REFERENCE_LOAD, objectives[ObjectiveKind.LOAD])
        assert f == pytest.approx(0.9946, abs=5e-4)

    def test_pi(self, objectives):
        f = fidelity(REFERENCE_PI, objectives[ObjectiveKind.PI])
        assert f == pytest.approx(0.9680, abs=5e-4)

    def test_pi_variable_amplitude(self, objectives):
        f = fidelity(REFERENCE_PI_VARIABLE, objectives[ObjectiveKind.PI])
        assert f == pytest.approx(0.9962, abs=5e-4)

    def test_zero_duration_half_pi_is_over_sqrt2(self, objectives):
        seq = PulseSequence.from_durations([(0.0, 0.0)])
        f = fidelity(seq, objectives[ObjectiveKind.HALF_PI])
        assert f == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)


class TestFidelityProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        durations=st.lists(
            st.tuples(
                st.floats(0.0, 30.0, allow_nan=False),
                st.floats(0.0, 30.0, allow_nan=False),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_bounded(self, objectives, durations):
        seq = PulseSequence.from_durations(durations)
        for kind in (ObjectiveKind.HALF_PI, ObjectiveKind.LOAD):
            f = fidelity(seq, objectives[kind])
            assert 0.0 <= f <= 1.0 + 1e-9

    def test_aligned_at_least_fixed(self, objectives):
        for seq in (REFERENCE_PI2, REFERENCE_PI):
            for kind in (ObjectiveKind.HALF_PI, ObjectiveKind.PI):
                obj = objectives[kind]
                aligned = fidelity(seq, obj)
                target = ROTATION_BLOCKS[kind]
                frame = obj.bands.frame
                evolved = evolve_columns(frame, seq, obj.bands)
                fixed = abs(np.trace(target.conj().T @ frame.conj().T @ evolved)) / 2
                assert aligned >= fixed - 1e-12


class TestAlignedBlock:
    def test_identity_block_vs_identity_target(self):
        f, a, b = aligned_fidelity_block(np.eye(2, dtype=complex), np.eye(2))
        assert f == pytest.approx(1.0, abs=1e-9)
        assert abs(a) < 1e-6 and abs(b) < 1e-6

    def test_gauge_recovers_dephased_target(self):
        rng = np.random.default_rng(7)
        a_true, b_true = 0.8, -1.3
        target = ROTATION_BLOCKS[ObjectiveKind.HALF_PI]
        za = np.diag([1.0, np.exp(-1j * a_true)])
        zb = np.diag([1.0, np.exp(-1j * b_true)])
        block = zb @ target @ za
        f, a, b = aligned_fidelity_block(block, target)
        assert f == pytest.approx(1.0, abs=1e-8)

    def test_antidiagonal_target_canonical_gauge(self):
        # For a pi target the aligned score is flat in b; the canonical
        # branch must make c0 = conj(rt10) e^{ib} m10 real positive and
        # return the b-independent fidelity (|m01| + |m10|) / 2.
        rng = np.random.default_rng(3)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        target = ROTATION_BLOCKS[ObjectiveKind.PI]
        f, a, b = aligned_fidelity_block(m, target)
        assert f == pytest.approx((abs(m[0, 1]) + abs(m[1, 0])) / 2.0, abs=1e-12)
        c0 = np.conj(target[1, 0]) * np.exp(1j * b) * m[1, 0]
        assert c0.imag == pytest.approx(0.0, abs=1e-12)
        assert c0.real > 0

    @staticmethod
    def _blocks(rng, n):
        """n random blocks, then n near the half-pi target in random gauges."""
        target = ROTATION_BLOCKS[ObjectiveKind.HALF_PI]
        def gaussian():
            return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))

        blocks = [gaussian() for _ in range(n)]
        for _ in range(n):
            g, a, b = rng.uniform(-np.pi, np.pi, 3)
            near = np.exp(1j * g) * np.diag([1, np.exp(1j * b)]) @ target
            near = near @ np.diag([1, np.exp(1j * a)])
            blocks.append(near + 10.0 ** rng.uniform(-8, -1) * gaussian())
        return blocks

    def test_phases_solved_to_rounding(self):
        # The maximum is flat to second order, so a bracketing search moves
        # (a, b) by about sqrt(eps) under a rounding-size change of the block.
        rng = np.random.default_rng(5)
        target = ROTATION_BLOCKS[ObjectiveKind.HALF_PI]
        for m in self._blocks(rng, 100):
            _, a0, b0 = aligned_fidelity_block(m, target)
            nudged = m * (1.0 + 1e-15 * rng.normal(size=(2, 2)))
            _, a1, b1 = aligned_fidelity_block(nudged, target)
            assert abs(np.exp(1j * a1) - np.exp(1j * a0)) <= 1e-12
            assert abs(np.exp(1j * b1) - np.exp(1j * b0)) <= 1e-12

    def test_fidelity_is_the_maximum_over_b(self):
        rng = np.random.default_rng(6)
        target = ROTATION_BLOCKS[ObjectiveKind.HALF_PI]
        eb = np.exp(1j * np.linspace(-np.pi, np.pi, 20000, endpoint=False))
        for m in self._blocks(rng, 50):
            f, _, _ = aligned_fidelity_block(m, target)
            c = np.conj(target[0])[:, None] * m[0][:, None]
            c = c + np.conj(target[1])[:, None] * m[1][:, None] * eb
            assert f >= np.max(np.abs(c).sum(axis=0)) / 2.0 - 1e-12

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        target = ROTATION_BLOCKS[ObjectiveKind.HALF_PI]
        f0, _, _ = aligned_fidelity_block(m, target)
        f1, _, _ = aligned_fidelity_block(np.exp(1j * 0.9) * m, target)
        assert f0 == pytest.approx(f1, abs=1e-9)


class TestGradientConsistency:
    def test_finite_difference_richardson(self, objectives):
        # The optimizer's forward model must be smooth in each duration:
        # central differences at h and h/2 must agree to a few percent.
        obj = objectives[ObjectiveKind.PI]
        x0 = np.asarray(REFERENCE_PI.durations, dtype=float)

        def f(x):
            seq = PulseSequence.from_durations(
                list(zip(x[: len(x) // 2], x[len(x) // 2 :]))
            )
            return fidelity(seq, obj)

        for k in range(2):
            for h in (0.02,):
                ek = np.zeros_like(x0)
                ek[k] = 1.0
                g_h = (f(x0 + h * ek) - f(x0 - h * ek)) / (2 * h)
                g_h2 = (f(x0 + h / 2 * ek) - f(x0 - h / 2 * ek)) / h
                assert g_h == pytest.approx(g_h2, rel=0.05, abs=1e-7)


class TestOptimize:
    def test_monotone_trace_and_improves_on_seed(self, objectives):
        obj = objectives[ObjectiveKind.HALF_PI]
        seed = PulseSequence.from_durations([(10.0, 10.0), (10.0, 10.0)])
        result = optimize(seed, obj, TINY)
        trace = np.asarray(result.trace)
        assert np.all(np.diff(trace) >= -1e-12)
        assert result.fidelity_pre_rounding >= fidelity(seed, obj) - 1e-12

    def test_deterministic(self, objectives):
        obj = objectives[ObjectiveKind.HALF_PI]
        seed = PulseSequence.from_durations([(12.0, 8.0)])
        r1 = optimize(seed, obj, TINY)
        r2 = optimize(seed, obj, TINY)
        assert r1.sequence == r2.sequence
        assert r1.fidelity == r2.fidelity
        assert r1.trace == r2.trace

    def test_durations_on_grid(self, objectives):
        obj = objectives[ObjectiveKind.HALF_PI]
        seed = PulseSequence.from_durations([(10.3, 9.1), (4.0, 6.0)])
        result = optimize(seed, obj, TINY)
        for d in result.sequence.durations:
            assert d == pytest.approx(round(d / 0.1) * 0.1, abs=1e-9)
            assert d >= 0.0

    def test_options_validated(self):
        with pytest.raises(ValueError):
            OptimizerOptions(max_iters=0)

    @pytest.mark.parametrize(
        "name, value, message",
        [(name, MAX_COUNT + 1, re.escape(f"{name} must be finite, with 1 <= {name} <= "
                                         f"{MAX_COUNT:g}, got {MAX_COUNT + 1}"))
         for name in ("max_iters", "restarts")]
        # A float count or seed, whole or not, fails later in range() or the
        # RNG; a bool is a flag, though numbers.Integral includes it.
        + [(name, value, f"{name} must be an integer, got {value}")
           for name, value in (("max_iters", 2.5), ("restarts", 2.5), ("rng_seed", 0.5),
                               ("rng_seed", 1.0), ("max_iters", True))],
    )
    def test_counts_bounded_and_integral(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            OptimizerOptions(**{name: value})

    @pytest.mark.parametrize("name, value", [("on_max", 1e9), ("off_max", -5.0)])
    def test_step_maxima_bounded(self, name, value):
        with pytest.raises(ValueError, match=fr"{name} must be finite, with 0 <= {name} <= "
                                             fr"1e\+06 us, got {value}"):
            OptimizerOptions(**{name: value})

    def test_non_finite_fidelity_raises(self, objectives, monkeypatch):
        # optimize's evaluate is the one place that checks the fidelity.
        monkeypatch.setattr(shortcut, "fidelity", lambda seq, obj: math.nan)
        seed = PulseSequence.from_durations([(10.0, 10.0)])
        with pytest.raises(ArithmeticError, match="non-finite fidelity"):
            optimize(seed, objectives[ObjectiveKind.HALF_PI], TINY)

    @pytest.mark.parametrize(
        "name, value",
        [("grid_quantum", value) for value in (math.nan, math.inf, -math.inf, -math.ulp(0.0))]
        + [(name, value) for name in ("on_max", "off_max")
           for value in (math.nan, math.inf, -math.inf)]
        + [(name, value) for name in ("max_iters", "restarts", "rng_seed")
           for value in (math.nan, math.inf, -math.inf)]
        + [("max_iters", 0), ("restarts", 0), ("rng_seed", -1)],
    )
    def test_non_finite_options_rejected(self, name, value):
        # NaN, +-inf and the values just outside each bound; the step maxima's
        # finite bounds are test_step_maxima_bounded's, and the counts' upper
        # bound test_counts_bounded_and_integral's.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            OptimizerOptions(**{name: value})


class TestAscend:
    def test_one_stencil_per_iteration(self):
        # Three parameters, the last frozen by its box: one iteration makes
        # the start evaluation, two per free parameter, then the line search.
        lower, upper = np.array([0.0, 0.0, 5.0]), np.array([np.inf, np.inf, 5.0])
        x0 = np.array([1.0, 2.0, 5.0])
        points = []

        def evaluate(x):
            points.append(np.array(x))
            return -float((x[0] - 3.0) ** 2 + (x[1] - 1.0) ** 2)

        opts = OptimizerOptions(max_iters=1)
        x, f, trace = _ascend(x0, evaluate, lambda x: np.clip(x, lower, upper), opts)
        assert np.array_equal(points[0], x0)
        stencil, search = points[1:5], points[5:]
        for k, (plus, minus) in enumerate([stencil[0:2], stencil[2:4]]):
            assert np.array_equal(plus, x0 + 0.01 * np.eye(3)[k])
            assert np.array_equal(minus, x0 - 0.01 * np.eye(3)[k])
        assert len(search) >= 1
        assert all(p[2] == 5.0 for p in points)
        assert len(trace) == 2 and trace[1] == f > trace[0]

    def test_stencil_memory_is_linear_in_the_parameters(self):
        # 2,400 parameters, as an 800-step design has: a stencil of (n, n)
        # projected points would take 8 n^2 bytes (46 MB) per copy.
        n = 2400
        lower, upper = np.zeros(n), np.full(n, 10.0)
        tracemalloc.start()
        try:
            _ascend(np.ones(n), lambda x: -float(x @ x),
                    lambda x: np.clip(x, lower, upper), OptimizerOptions(max_iters=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_failed_line_search_halves_the_rate(self):
        # At a kink whose central difference reads +1, every step uphill of
        # the start falls: all 30 trials fail, x stays, and the next
        # iteration's search starts from half the rate.
        points = []

        def evaluate(x):
            points.append(float(x[0]))
            return -max(float(x[0]), -3.0 * float(x[0]))

        opts = OptimizerOptions(max_iters=2)
        x, f, trace = _ascend(np.zeros(1), evaluate, lambda x: x, opts)
        assert x.tolist() == [0.0] and f == 0.0 and trace == [0.0, 0.0, 0.0]
        assert len(points) == 1 + 2 * (2 + 30)
        rates = 50.0 * 0.5 ** np.arange(30)
        assert points[3:33] == pytest.approx(rates, rel=1e-12)
        assert points[35:] == pytest.approx(rates / 2, rel=1e-12)


class TestVariableAmplitude:
    def test_pinned_box_equals_fixed_depth(self, objectives, spec):
        obj = objectives[ObjectiveKind.HALF_PI]
        seed = PulseSequence.from_durations([(10.0, 10.0)])
        flat = optimize(seed, obj, TINY)
        pinned = optimize(seed, obj, TINY, depth_bounds=(spec.depth, spec.depth))
        assert pinned.fidelity == pytest.approx(flat.fidelity, abs=1e-12)
        assert list(pinned.sequence.durations) == pytest.approx(
            list(flat.sequence.durations), abs=1e-12
        )

    def test_depths_stay_in_box(self, objectives):
        obj = objectives[ObjectiveKind.HALF_PI]
        seed = PulseSequence.from_durations([(10.0, 10.0), (8.0, 12.0)])
        result = optimize(seed, obj, TINY, depth_bounds=(4.0, 6.0))
        for step in result.sequence.steps:
            assert 4.0 - 1e-9 <= step.depth <= 6.0 + 1e-9

    def test_box_must_contain_spec_depth(self, objectives):
        obj = objectives[ObjectiveKind.HALF_PI]
        seed = PulseSequence.from_durations([(10.0, 10.0)])
        # and be finite: a random start would call rng.uniform(lo, inf).
        for bounds in ((6.0, 7.0), (6.0, 5.0)):
            with pytest.raises(ValueError, match=r"^depth_bounds\[0\] must be finite, with "
                                                 r"0 <= depth_bounds\[0\] <= 5 E_r, got 6.0$"):
                optimize(seed, obj, TINY, depth_bounds=bounds)
        for hi in (math.inf, math.nan, 2 * MAX_DEPTH_ER):
            with pytest.raises(ValueError, match=r"^depth_bounds\[1\] must be finite, with "
                                                 rf"5 <= depth_bounds\[1\] <= {MAX_DEPTH_ER:g} "
                                                 rf"E_r, got {hi}$"):
                optimize(seed, obj, TINY, depth_bounds=(4.0, hi))

    def test_box_refuses_negative_depths(self, objectives):
        obj = objectives[ObjectiveKind.HALF_PI]
        seed = PulseSequence.from_durations([(10.0, 10.0)])
        with pytest.raises(ValueError, match=r"^depth_bounds\[0\] must be finite, with "
                                             r"0 <= depth_bounds\[0\] <= 5 E_r, got -3.0$"):
            optimize(seed, obj, TINY, depth_bounds=(-3.0, 6.0))

    def test_frozen_seed_depths_come_back_exactly(self, objectives):
        obj = objectives[ObjectiveKind.HALF_PI]
        seed = PulseSequence.from_durations(
            [(10.0, 10.0), (8.0, 12.0), (6.0, 4.0)], depths=[4.27, None, 5.5]
        )
        opts = OptimizerOptions(max_iters=3, restarts=2, rng_seed=0)
        result = optimize(seed, obj, opts)
        assert [s.depth for s in result.sequence.steps] == [4.27, None, 5.5]
        assert result.fidelity == fidelity(result.sequence, obj)


class TestDesignAndReport:
    def test_design_smoke(self, spec, basis):
        result = design_sequence(
            ObjectiveKind.HALF_PI, 2, spec, basis, TINY
        )
        assert len(result.sequence.steps) == 2
        assert 0.0 <= result.fidelity <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "depth_bounds, steps, eta, pre_rounding, trace",
        [
            (None, [(15.4, 6.9, None), (24.3, 37.7, None)],
             0.8974910145957075, 0.897324003828954,
             [0.8785979691288596, 0.8794460196068816, 0.8807057760304204,
              0.8825881109578022, 0.8854488249474288, 0.8899437218341892,
              0.897324003828954]),
            ((4.0, 6.0), [(15.5, 7.300000000000001, 5.9), (27.6, 36.9, 4.0)],
             0.9242786509920851, 0.9242244860746383,
             [0.8785979691288596, 0.9200616374895279, 0.9204673946222948,
              0.9209445859476801, 0.9216156149871562, 0.9226329186006377,
              0.9242244860746383]),
        ],
    )
    def test_design_pinned(self, spec, basis, depth_bounds, steps, eta, pre_rounding,
                           trace):
        # Recorded before the ascent was rewritten around one stencil.
        opts = OptimizerOptions(max_iters=6, restarts=2, rng_seed=0)
        result = design_sequence(
            ObjectiveKind.HALF_PI, 2, spec, basis, opts, depth_bounds
        )
        assert [(s.t_on, s.t_off, s.depth) for s in result.sequence.steps] == steps
        assert result.restart == 0
        assert result.fidelity == pytest.approx(eta, abs=1e-12)
        assert result.fidelity_pre_rounding == pytest.approx(pre_rounding, abs=1e-12)
        assert list(result.trace) == pytest.approx(trace, abs=1e-12)

    def test_report_structure(self, objectives):
        report = fidelity_report(REFERENCE_PI2, objectives[ObjectiveKind.HALF_PI])
        assert report["kind"] == "pi2"
        assert report["fidelity"] == pytest.approx(0.9832, abs=5e-4)
        assert len(report["pair_overlaps"]) == 2
        for o in report["pair_overlaps"]:
            assert 0.0 <= o["magnitude"] <= 1.0 + 1e-9
        for mid, above in zip(
            report["leakage_mid_bands"], report["leakage_above_d"]
        ):
            assert mid >= 0.0 and above >= 0.0
            assert mid < 1e-6  # symmetry forbids P-band transfer at Gamma
