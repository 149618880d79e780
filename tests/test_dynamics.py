import math
import re

import numpy as np
import pytest

from artifact import dynamics
from artifact.dynamics import (
    MAX_STEP_US,
    BandSet,
    PulseSequence,
    PulseStep,
    band_eig,
    bloch_state,
    default_band_pair,
    evolve_columns,
    solve_bands,
)
from artifact.lattice import (
    Geometry,
    LatticeSpec,
    TRIANGULAR_COUPLING_OFFSETS,
    build_basis,
    hamiltonian_on,
)
from artifact.sequences import REFERENCE_PI2, REFERENCE_PI_VARIABLE


def _sequence_matrix(seq, q, spec, basis):
    """A pulse sequence's full (n, n) matrix at q: every plane wave evolved
    as one column."""
    return evolve_columns(np.eye(basis.size), seq, BandSet(q, spec, basis))


def _on_operator(t_us, q, spec, basis):
    """The package's lattice-on propagator for t_us at q, through a pulse
    sequence of one on-only step."""
    return _sequence_matrix(PulseSequence.from_durations([(t_us, 0.0)]), q, spec, basis)


def _taylor_expm(a):
    """Independent matrix exponential: scaling and squaring of a 30-term
    Taylor series."""
    s = 8
    term = np.eye(len(a), dtype=complex)
    acc = np.eye(len(a), dtype=complex)
    for k in range(1, 30):
        term = term @ (a / 2**s) / k
        acc = acc + term
    for _ in range(s):
        acc = acc @ acc
    return acc


def _free_propagator(t_us, q, spec, basis):
    """exp(-i (q+G)^2 t) on the plane waves, written out from the kinetic
    energies (q+G)^2 in E_r."""
    kinetic = np.sum((basis.g_vectors + q) ** 2, axis=1)
    return np.diag(np.exp(-1j * kinetic * spec.angular_frequency_per_Er * t_us))


class TestBandPair:
    def test_triangular(self):
        assert default_band_pair(Geometry.TRIANGULAR_3BEAM) == (1, 4)

    def test_1d(self):
        assert default_band_pair(Geometry.STANDING_WAVE_1D) == (1, 3)


class TestSolveBands:
    def test_free_spectrum(self, spec, basis):
        energies, _ = solve_bands(hamiltonian_on(basis, spec, np.zeros(2), depth=0.0))
        assert energies[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(energies[1:7], 3.0, atol=1e-12)
        assert energies[7] == pytest.approx(9.0, abs=1e-12)

    def test_orthonormal(self, spec, basis):
        _, states = solve_bands(hamiltonian_on(basis, spec, np.array([0.17, 0.05])))
        overlap = states.conj().T @ states
        assert np.allclose(overlap, np.eye(basis.size), atol=1e-10)

    def test_eigen_residual(self, spec, basis):
        h = hamiltonian_on(basis, spec, np.array([0.1, -0.2]))
        energies, states = solve_bands(h)
        resid = h @ states - states * energies
        assert np.max(np.abs(resid)) < 1e-10

    def test_non_hermitian_input_refused(self, spec, basis):
        # eigh reads one triangle only, so the residual sees the other.
        h = hamiltonian_on(basis, spec, np.array([0.1, -0.2]))
        h[0, 5] += 1e-6
        with pytest.raises(ArithmeticError, match="eigen-residual"):
            solve_bands(h)

    @pytest.mark.parametrize(
        "h", [np.diag([1.0, np.inf, 2.0]), np.full((3, 3), np.nan)], ids=["inf", "nan"]
    )
    def test_non_finite_input_refused(self, h):
        with pytest.raises(ArithmeticError, match="not finite"):
            solve_bands(h)

    def test_phases_equal_column_loop(self, spec, basis):
        h = hamiltonian_on(basis, spec, np.array([0.31, -0.02]))
        _, states = np.linalg.eigh(h)
        expected = states.astype(complex)
        for j in range(expected.shape[1]):
            piv = expected[np.argmax(np.abs(expected[:, j])), j]
            expected[:, j] = expected[:, j] * (np.conj(piv) / abs(piv))
        assert np.array_equal(solve_bands(h)[1], expected)

    def test_deterministic_phases(self, spec, basis):
        _, states = solve_bands(hamiltonian_on(basis, spec, np.array([0.07, 0.21])))
        for col in states.T:
            i = np.argmax(np.abs(col))
            assert col[i].real > 0
            assert abs(col[i].imag) < 1e-12

    def test_cache_consistency(self, spec, basis):
        q = np.array([0.123, -0.456])
        e1, v1 = band_eig(q, spec, basis)
        e2, v2 = band_eig(q, spec, basis)
        assert np.array_equal(e1, e2)
        assert np.array_equal(v1, v2)

    def test_cache_keyed_on_site_set(self, spec, basis, hex_basis):
        q = np.array([0.0123, -0.0456])
        _, full = band_eig(q, spec, basis)
        energies, states = band_eig(q, spec, hex_basis)
        assert full.shape == (121, 121)
        assert energies.shape == (91,)
        assert states.shape == (91, 91)


class TestBandSet:
    def test_each_depth_is_solved_once(self, spec, solved):
        basis = build_basis(spec, shell_radius=1)
        bands = BandSet(np.array([0.07, -0.02]), spec, basis)
        first = bands.eig()
        # The spec's depth, given or defaulted, is one entry.
        assert bands.eig() is first and bands.eig(spec.depth) is first
        deep = bands.eig(6.0)
        assert bands.eig(6) is deep
        assert len(solved) == 2
        assert np.array_equal(deep[0], band_eig(bands.q, spec, basis, 6.0)[0])

    def test_least_recently_used_depth_is_dropped(self, spec, solved):
        basis = build_basis(spec, shell_radius=1)
        bands = BandSet(np.zeros(2), spec, basis)
        depths = [1.0 + 0.1 * i for i in range(dynamics._MEMO_DEPTHS)]
        for d in depths:
            bands.eig(d)
        bands.eig(depths[0])  # refreshed: the oldest is now depths[1]
        bands.eig(9.0)
        before = len(solved)
        bands.eig(depths[0])
        assert len(solved) == before
        bands.eig(depths[1])
        assert len(solved) == before + 1

    def test_each_build_solves_to_the_same_bits(self, spec):
        # A basis compares and hashes by identity; records on two builds of
        # the same sites solve to the same bits.
        a, b = build_basis(spec), build_basis(spec)
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
        q = np.array([0.0831, -0.1427])
        (ea, va), (eb, vb) = BandSet(q, spec, a).eig(), BandSet(q, spec, b).eig()
        assert np.array_equal(ea, eb) and np.array_equal(va, vb)

    def test_band_eig_solves_on_every_call(self, spec, solved):
        basis = build_basis(spec, shell_radius=1)
        for _ in range(3):
            band_eig(np.zeros(2), spec, basis)
        assert len(solved) == 3


class TestBlochState:
    def test_normalized(self, spec, basis):
        for band in (1, 4):
            for q in (np.zeros(2), np.array([0.19, -0.07])):
                st = bloch_state(band, BandSet(q, spec, basis))
                assert np.linalg.norm(st) == pytest.approx(1.0, abs=1e-12)

    def test_band_index_validated(self, spec, basis):
        bands = BandSet(np.zeros(2), spec, basis)
        with pytest.raises(ValueError):
            bloch_state(0, bands)
        with pytest.raises(ValueError):
            bloch_state(basis.size + 1, bands)
        for band in (1.5, True):
            with pytest.raises(ValueError, match=f"band_index must be an integer, got {band}"):
                bloch_state(band, bands)

    @pytest.mark.parametrize("band", [0, 122, math.nan])
    def test_band_index_range_message(self, spec, basis, band):
        assert basis.size == 121
        message = f"band_index must be finite, with 1 <= band_index <= 121, got {band}"
        with pytest.raises(ValueError, match=re.escape(message)):
            bloch_state(band, BandSet(np.zeros(2), spec, basis))

    def test_ground_band_dominated_by_g0(self, spec, basis):
        st = bloch_state(1, BandSet(np.zeros(2), spec, basis))
        i0 = basis.index[(0, 0)]
        weights = np.abs(st) ** 2
        assert weights[i0] > 0.4
        assert i0 == np.argmax(weights)

    def test_degenerate_d_band_is_the_symmetric_first_shell_state(self, basis):
        # At depth 0 and q = 0 bands 2-7 are the six first-shell plane waves,
        # degenerate at 3 E_r; of them the rule returns the equal-weight
        # combination, the one state the S band couples to.
        spec = LatticeSpec(depth=0.0)
        q = np.zeros(2)
        energies, states = band_eig(q, spec, basis)
        assert energies[1:7] == pytest.approx([3.0] * 6, abs=1e-12)
        w = np.zeros(basis.size)
        w[[basis.index[off] for off in TRIANGULAR_COUPLING_OFFSETS]] = 1.0 / math.sqrt(6)
        assert abs(np.vdot(w, states[:, 3])) < 0.5  # the rule is what aligns it
        assert abs(np.vdot(w, bloch_state(4, BandSet(q, spec, basis)))) == pytest.approx(
            1.0, abs=1e-12)


class TestSdFrame:
    @pytest.mark.parametrize("fixture", ["basis", "basis_1d"])
    def test_columns_are_the_band_pair(self, request, fixture):
        b = request.getfixturevalue(fixture)
        spec = LatticeSpec(geometry=b.geometry)
        q = np.array([0.05, 0.0])
        frame = BandSet(q, spec, b).frame
        assert frame.shape == (b.size, 2)
        for col, band in zip(frame.T, default_band_pair(spec.geometry)):
            assert np.array_equal(col, bloch_state(band, BandSet(q, spec, b)))


class TestPropagator:
    """The lattice-on propagator, as one on-only pulse step applies it."""

    def test_zero_time_identity(self, spec, basis):
        u = _on_operator(0.0, np.array([0.11, 0.07]), spec, basis)
        assert np.allclose(u, np.eye(basis.size), atol=1e-12)

    def test_negative_time_rejected(self, spec, basis):
        with pytest.raises(ValueError):
            _on_operator(-1.0, np.zeros(2), spec, basis)

    def test_unitary(self, spec, basis):
        u = _on_operator(13.7, np.array([0.11, 0.07]), spec, basis)
        assert np.max(np.abs(u.conj().T @ u - np.eye(basis.size))) < 1e-10

    def test_semigroup(self, spec, basis):
        q = np.zeros(2)
        u_ab = _on_operator(9.0, q, spec, basis)
        u_a = _on_operator(4.0, q, spec, basis)
        u_b = _on_operator(5.0, q, spec, basis)
        assert np.allclose(u_ab, u_b @ u_a, atol=1e-9)

    def test_small_basis_taylor_oracle(self, spec):
        # On the 9-wave basis, compared elementwise to the package product.
        small = build_basis(spec, 1)
        q = np.array([0.2, -0.1])
        t_us = 7.3
        h = hamiltonian_on(small, spec, q)
        acc = _taylor_expm(-1j * spec.angular_frequency_per_Er * t_us * h)
        u = _on_operator(t_us, q, spec, small)
        assert np.max(np.abs(u - acc)) < 1e-9


class TestPulseStructures:
    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            PulseStep(-1.0, 0.0)
        with pytest.raises(ValueError):
            PulseStep(0.0, -0.5)

    @pytest.mark.parametrize("name", ["t_on", "t_off"])
    def test_durations_above_the_bound_rejected(self, name):
        # A 1e308 us step once gave a NaN fidelity instead of an error.
        fields = {"t_on": 1.0, "t_off": 1.0, name: 2 * MAX_STEP_US}
        message = re.escape(f"{name} must be finite, with 0 <= {name} <= {MAX_STEP_US:g} us")
        with pytest.raises(ValueError, match=message):
            PulseStep(**fields)
        PulseStep(**{**fields, name: MAX_STEP_US})

    @pytest.mark.parametrize(
        "name, value",
        [(name, value) for name in ("t_on", "t_off", "depth")
         for value in (math.nan, math.inf, -math.inf, -math.ulp(0.0))]
        + [(name, math.nextafter(MAX_STEP_US, math.inf)) for name in ("t_on", "t_off")],
    )
    def test_non_finite_rejected(self, name, value):
        # NaN, +-inf and the floats just outside each bound.
        fields = {"t_on": 1.0, "t_off": 1.0, "depth": 4.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PulseStep(**fields)

    def test_from_durations_roundtrip(self):
        seq = PulseSequence.from_durations([(1.0, 2.0), (3.0, 4.0)])
        assert list(seq.durations) == [1.0, 3.0, 2.0, 4.0]
        assert len(seq.steps) == 2

    def test_from_durations_with_depths(self):
        seq = PulseSequence.from_durations([(1.0, 2.0)], depths=[4.5])
        assert seq.steps[0].depth == 4.5
        with pytest.raises(ValueError):
            PulseSequence.from_durations([(1.0, 2.0)], depths=[4.5, 5.0])


class TestEvolution:
    def test_zero_duration_sequence_is_identity(self, spec, basis):
        bands = BandSet(np.zeros(2), spec, basis)
        st = bloch_state(1, bands)
        seq = PulseSequence.from_durations([(0.0, 0.0)])
        out = evolve_columns(st[:, None], seq, bands)[:, 0]
        assert np.allclose(out, st, atol=1e-12)

    def test_sequence_operator_unitary(self, spec, basis):
        op = _sequence_matrix(REFERENCE_PI2, np.zeros(2), spec, basis)
        assert np.max(np.abs(op.conj().T @ op - np.eye(basis.size))) < 1e-10

    def test_sequence_operator_composes(self, spec, basis):
        q = np.array([0.05, 0.02])
        s1 = PulseSequence.from_durations([(3.0, 4.0)])
        s2 = PulseSequence.from_durations([(5.0, 6.0)])
        both = PulseSequence(steps=s1.steps + s2.steps)
        u1 = _sequence_matrix(s1, q, spec, basis)
        u2 = _sequence_matrix(s2, q, spec, basis)
        u = _sequence_matrix(both, q, spec, basis)
        assert np.allclose(u, u2 @ u1, atol=1e-10)

    def test_norm_preserved(self, spec, basis):
        bands = BandSet(np.zeros(2), spec, basis)
        st = bloch_state(1, bands)
        out = evolve_columns(st[:, None], REFERENCE_PI2, bands)[:, 0]
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)

    def test_per_step_depth_override_changes_result(self, spec, basis):
        flat = PulseSequence.from_durations([(10.0, 5.0)])
        deep = PulseSequence.from_durations([(10.0, 5.0)], depths=[6.0])
        bands = BandSet(np.zeros(2), spec, basis)
        st = bloch_state(1, bands)
        out_flat = evolve_columns(st[:, None], flat, bands)[:, 0]
        out_deep = evolve_columns(st[:, None], deep, bands)[:, 0]
        assert not np.allclose(out_flat, out_deep, atol=1e-6)

    def test_one_dimensional_state_refused(self, spec, basis):
        # A 1-D state would broadcast against the (n, 1) phase columns into
        # an (n, n) array; it is refused instead.
        bands = BandSet(np.zeros(2), spec, basis)
        st = bloch_state(1, bands)
        with pytest.raises(ValueError, match=r"cols must be \(n, k\) state columns, "
                                             r"got shape \(121,\)"):
            evolve_columns(st, REFERENCE_PI2, bands)

    @pytest.mark.parametrize(
        "seq",
        [
            REFERENCE_PI_VARIABLE,
            PulseSequence.from_durations(
                [(3.0, 0.0), (0.0, 5.0), (2.5, 4.0)], [6.0, None, 4.0]
            ),
        ],
        ids=["variable-depth pi", "zero-duration intervals"],
    )
    def test_adjoint_applies_the_operator_adjoint(self, spec, basis, seq):
        q = np.array([0.13, -0.07])
        rng = np.random.default_rng(2)
        cols = rng.normal(size=(basis.size, 3)) + 1j * rng.normal(size=(basis.size, 3))
        cols /= np.linalg.norm(cols, axis=0)
        expected = _sequence_matrix(seq, q, spec, basis).conj().T @ cols
        out = evolve_columns(cols, seq, BandSet(q, spec, basis), adjoint=True)
        assert np.max(np.abs(out - expected)) <= 1e-13

    def test_off_segment_uses_free_hamiltonian(self, spec, basis):
        # A pure-off step must equal the free propagator.
        q = np.array([0.03, 0.01])
        seq = PulseSequence.from_durations([(0.0, 8.0)])
        u = _sequence_matrix(seq, q, spec, basis)
        assert np.allclose(u, _free_propagator(8.0, q, spec, basis), atol=1e-10)


def _band_populations(amplitudes, q, spec, basis, n_bands=6):
    """|<band_i|state>|^2 for the lowest n_bands bands, from band_eig."""
    _, states = band_eig(q, spec, basis)
    return np.abs(states[:, :n_bands].conj().T @ amplitudes) ** 2


class TestBandPopulations:
    def test_pure_band_state(self, spec, basis):
        # The D-band Bloch state is band 4 itself: the triangular D band is
        # isolated at the package's gap convention.
        st = bloch_state(4, BandSet(np.zeros(2), spec, basis))
        pops = _band_populations(st, np.zeros(2), spec, basis)
        assert pops[3] == pytest.approx(1.0, abs=1e-12)
        assert sum(pops) == pytest.approx(1.0, abs=1e-12)

    def test_populations_sum_below_one(self, spec, basis):
        bands = BandSet(np.zeros(2), spec, basis)
        st = bloch_state(1, bands)
        out = evolve_columns(st[:, None], REFERENCE_PI2, bands)[:, 0]
        pops = _band_populations(out, np.zeros(2), spec, basis)
        assert 0.0 <= sum(pops) <= 1.0 + 1e-9

    def test_half_pi_leaves_mid_bands_empty(self, spec, basis):
        # The shipped half-pi sequence moves population S -> D with
        # negligible transfer into the symmetry-mismatched P bands.
        bands = BandSet(np.zeros(2), spec, basis)
        st = bloch_state(1, bands)
        out = evolve_columns(st[:, None], REFERENCE_PI2, bands)[:, 0]
        pops = _band_populations(out, np.zeros(2), spec, basis)
        assert pops[1] + pops[2] < 1e-8
        assert pops[0] + pops[3] > 0.96
