import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact.dynamics import MAX_STEP_US, PulseSequence, PulseStep
from artifact.interferometer import MAX_QUADRATURE, EnsembleSpec
from artifact.lattice import (
    Geometry,
    LatticeSpec,
    MAX_DEPTH_ER,
    MAX_SHELL_RADIUS,
    REFERENCE_DEPTH_ER,
    TRIANGULAR_FOURIER_COEF,
    bisect_root,
    build_basis,
    calibrate_fourier_coefficient,
    fringe_period_us,
    hamiltonian_on,
    potential_fourier,
    reciprocal_primitives,
    recoil_energy,
    sd_gap,
    wavenumber,
)
from artifact.shortcut import MAX_COUNT, ObjectiveKind, OptimizerOptions, build_objective, optimize


class TestConstants:
    def test_recoil_frequency(self, spec):
        _, f_hz = recoil_energy(spec)
        assert f_hz == pytest.approx(2027.7586, rel=1e-6)

    def test_recoil_energy_joules(self, spec):
        e_j, f_hz = recoil_energy(spec)
        assert e_j == pytest.approx(f_hz * 6.62607015e-34, rel=1e-12)

    def test_wavenumber(self, spec):
        assert wavenumber(spec) == pytest.approx(5.905249e6, rel=1e-6)

    def test_wavelength_scaling(self):
        base = LatticeSpec()
        doubled = LatticeSpec(wavelength=2 * base.wavelength)
        assert recoil_energy(doubled)[1] == pytest.approx(
            recoil_energy(base)[1] / 4.0, rel=1e-12
        )

    def test_mass_scaling(self):
        base = LatticeSpec()
        heavy = LatticeSpec(atom_mass=2 * base.atom_mass)
        assert recoil_energy(heavy)[1] == pytest.approx(
            recoil_energy(base)[1] / 2.0, rel=1e-12
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(depth=-1.0)
        with pytest.raises(ValueError):
            LatticeSpec(wavelength=0.0)
        with pytest.raises(ValueError):
            LatticeSpec(atom_mass=-1e-25)

    @pytest.mark.parametrize(
        "name, value",
        [(name, value) for name in ("wavelength", "depth", "atom_mass")
         for value in (math.nan, math.inf, -math.inf)]
        + [("wavelength", 0.0), ("depth", -math.ulp(0.0)), ("atom_mass", 0.0)],
    )
    def test_spec_rejects_non_finite(self, name, value):
        # NaN, +-inf and the floats just outside each bound.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LatticeSpec(**{name: value})

    @pytest.mark.parametrize(
        "fields, got",
        # E_r/h underflows to 0, overflows in the division, or overflows in
        # k**2, which Python raises as OverflowError.
        [({"atom_mass": 1e300}, "0.0"), ({"wavelength": 1e308}, "0.0"),
         ({"wavelength": 1e-309}, "inf"), ({"wavelength": 1e-200}, "inf")],
    )
    def test_spec_refuses_a_recoil_frequency_out_of_range(self, fields, got):
        with pytest.raises(ValueError) as exc:
            LatticeSpec(**fields)
        assert str(exc.value) == ("recoil frequency E_r/h must be finite, with "
                                  f"recoil frequency E_r/h > 0, got {got}")


def _beams(spec):
    """The beam wavevectors k_1, k_2, k_3 that the reciprocal primitives
    imply: b1 = k1 - k2, b2 = k2 - k3 and k1 + k2 + k3 = 0."""
    b1, b2 = reciprocal_primitives(spec.geometry)
    return np.array([2 * b1 + b2, b2 - b1, -b1 - 2 * b2]) / 3.0


class TestBeamsAndReciprocal:
    def test_beams_at_120_degrees(self, spec):
        beams = _beams(spec)
        assert np.allclose(np.linalg.norm(beams, axis=1), 1.0, atol=1e-12)
        for i in range(3):
            a, b = beams[i], beams[(i + 1) % 3]
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos == pytest.approx(-0.5, abs=1e-12)

    def test_first_beam_along_x(self, spec):
        assert _beams(spec)[0] == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_reciprocal_primitives(self, spec):
        b1, b2 = reciprocal_primitives(spec.geometry)
        assert b1 == pytest.approx([1.5, -math.sqrt(3) / 2], abs=1e-12)
        assert b2 == pytest.approx([0.0, math.sqrt(3)], abs=1e-12)
        assert np.linalg.norm(b1) == pytest.approx(math.sqrt(3), abs=1e-12)
        assert np.linalg.norm(b2) == pytest.approx(math.sqrt(3), abs=1e-12)


class TestBasis:
    def test_sizes(self, spec):
        assert build_basis(spec, 1).size == 9
        assert build_basis(spec, 5).size == 121

    def test_1d_size(self, spec_1d):
        assert build_basis(spec_1d, 5).size == 11

    def test_shell_radius_validated(self, spec):
        for radius in (0, MAX_SHELL_RADIUS + 1, math.nan):
            with pytest.raises(ValueError, match=f"shell_radius must be finite, with 1 <= "
                                                 f"shell_radius <= {MAX_SHELL_RADIUS}, got {radius}"):
                build_basis(spec, radius)
        # range() refuses a float with TypeError; True is a flag, not a count
        for radius in (2.5, 2.0, True):
            with pytest.raises(ValueError, match=f"shell_radius must be an integer, got {radius}"):
                build_basis(spec, radius)

    def test_sites_lexicographic(self, basis):
        sites = [tuple(s) for s in basis.sites]
        assert sites == sorted(sites)

    def test_negation_closure(self, basis):
        sites = {tuple(s) for s in basis.sites}
        assert all((-a, -b) in sites for a, b in sites)

    def test_site_index_roundtrip(self, basis):
        for i, s in enumerate(basis.sites):
            assert basis.index[tuple(s)] == i

    def test_g_vectors_match_sites(self, basis, spec):
        b1, b2 = reciprocal_primitives(spec.geometry)
        for (n1, n2), g in zip(basis.sites, basis.g_vectors):
            assert g == pytest.approx(n1 * np.asarray(b1) + n2 * np.asarray(b2))


class TestPotential:
    def test_zero_depth_empty(self, spec):
        assert potential_fourier(spec, depth=0.0) == {}

    @pytest.mark.parametrize("depth", [-1.0, math.nan, math.inf, -math.inf, 2 * MAX_DEPTH_ER])
    def test_depth_must_be_finite_and_non_negative(self, spec, depth):
        with pytest.raises(ValueError, match=f"depth must be finite, with 0 <= depth <= "
                                             f"{MAX_DEPTH_ER:g} E_r, got {depth}"):
            potential_fourier(spec, depth)

    def test_triangular_first_shell(self, spec):
        coefs = potential_fourier(spec)
        shell = {k: v for k, v in coefs.items() if k != (0, 0)}
        assert len(shell) == 6
        expected = -TRIANGULAR_FOURIER_COEF * spec.depth
        for v in shell.values():
            assert v == pytest.approx(expected, rel=1e-12)
        assert coefs[(0, 0)] == pytest.approx(3 * expected, rel=1e-12)

    def test_shell_offsets_negation_closed(self, spec):
        coefs = potential_fourier(spec)
        assert all((-a, -b) in coefs for a, b in coefs)

    def test_1d_coefficients(self, spec_1d):
        coefs = potential_fourier(spec_1d)
        assert coefs[(0, 0)] == pytest.approx(-spec_1d.depth / 2.0)
        assert coefs[(1, 0)] == pytest.approx(-spec_1d.depth / 4.0)
        assert coefs[(-1, 0)] == pytest.approx(-spec_1d.depth / 4.0)


def _loop_hamiltonian(basis, spec, q):
    """Reference assembly: kinetic diagonal plus one coupling per site and
    Fourier offset, found by a site lookup."""
    h = np.diag(np.sum((basis.g_vectors + q) ** 2, axis=1))
    for offset, coef in potential_fourier(spec).items():
        if offset == (0, 0):
            h[np.arange(basis.size), np.arange(basis.size)] += coef
            continue
        for i, (n1, n2) in enumerate(basis.sites):
            j = basis.index.get((n1 + offset[0], n2 + offset[1]))
            if j is not None:
                h[j, i] += coef
    return h


class TestHamiltonian:
    @pytest.mark.parametrize("geometry", list(Geometry))
    @pytest.mark.parametrize("q", [(0.0, 0.0), (0.3, -0.11)])
    def test_coupling_table_equals_site_loop(self, geometry, q):
        spec = LatticeSpec(geometry=geometry)
        b = build_basis(spec, 5)
        q = np.array(q)
        assert np.array_equal(
            hamiltonian_on(b, spec, q), _loop_hamiltonian(b, spec, q)
        )

    def test_geometry_mismatch_refused(self, spec, basis_1d):
        with pytest.raises(ValueError, match="^basis and spec geometries differ$"):
            hamiltonian_on(basis_1d, spec, np.zeros(2))

    def test_hermitian(self, spec, basis):
        h = hamiltonian_on(basis, spec, np.array([0.13, -0.29]))
        assert np.allclose(h, h.conj().T, atol=1e-12)

    def test_depth_recorded(self, spec, basis):
        h = hamiltonian_on(basis, spec, np.zeros(2), depth=3.3)
        assert np.array_equal(h, hamiltonian_on(basis, LatticeSpec(depth=3.3), np.zeros(2)))

    def test_free_spectrum_at_gamma(self, spec, basis):
        h = hamiltonian_on(basis, spec, np.zeros(2), depth=0.0)
        e = np.linalg.eigvalsh(h)
        assert e[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(e[1:7], 3.0, atol=1e-12)
        assert e[7] == pytest.approx(9.0, abs=1e-12)

    def test_off_equals_zero_depth(self, spec, basis):
        q = np.array([0.2, 0.1])
        h_off = np.diag(np.sum((basis.g_vectors + q) ** 2, axis=1))
        h_zero = hamiltonian_on(basis, spec, q, depth=0.0)
        assert np.allclose(h_off, h_zero, atol=1e-14)

    def test_gamma_spectrum_at_reference_depth(self, spec, basis):
        h = hamiltonian_on(basis, spec, np.zeros(2))
        e = np.linalg.eigvalsh(h)
        rel = e - e[0]
        assert rel[1] == pytest.approx(3.9439, abs=2e-4)
        assert rel[2] == pytest.approx(3.9439, abs=2e-4)
        assert rel[3] == pytest.approx(5.5535, abs=2e-4)
        assert rel[4] == pytest.approx(6.6591, abs=2e-4)
        assert rel[5] == pytest.approx(6.6591, abs=2e-4)

    @pytest.mark.parametrize("q", [(0.0, 0.0), (0.3, -0.11)])
    def test_hex_sub_basis_is_principal_submatrix(self, spec, basis, hex_basis, q):
        ids = [basis.index[s] for s in hex_basis.sites]
        full = hamiltonian_on(basis, spec, np.array(q))
        sub = hamiltonian_on(hex_basis, spec, np.array(q))
        assert hex_basis.size == 91
        assert np.array_equal(sub, full[np.ix_(ids, ids)])

    def test_sixfold_rotation_symmetry(self, spec, basis):
        # The rotation (n1, n2) -> (-n2, n1 - n2) permutes reciprocal sites.
        # The square truncation |n1|,|n2| <= N is not closed under it, but the
        # hexagonal subset |n1|,|n2|,|n1-n2| <= N is; the restricted
        # Hamiltonian block at q = 0 must commute with that permutation.
        n = 5
        sites = [tuple(s) for s in basis.sites]
        hex_ids = [
            i
            for i, (a, b) in enumerate(sites)
            if max(abs(a), abs(b), abs(a - b)) <= n
        ]
        pos = {sites[i]: j for j, i in enumerate(hex_ids)}
        perm = []
        for i in hex_ids:
            a, b = sites[i]
            rotated = (-b, a - b)
            assert rotated in pos
            perm.append(pos[rotated])
        h = hamiltonian_on(basis, spec, np.zeros(2))
        block = h[np.ix_(hex_ids, hex_ids)]
        rotated_block = block[np.ix_(perm, perm)]
        assert np.allclose(rotated_block, block, atol=1e-12)


class TestGapAndCalibration:
    def test_sd_gap(self, spec, basis):
        assert sd_gap(spec, basis) == pytest.approx(5.5535, abs=2e-4)

    def test_fringe_period(self, spec, basis):
        assert fringe_period_us(spec, basis) == pytest.approx(88.800, abs=0.02)

    def test_setup_diagonalises_gamma_once(self, spec, basis, monkeypatch):
        from artifact import dynamics
        from artifact.shortcut import ObjectiveKind, build_objective

        calls = []
        solve = dynamics.solve_bands

        def counting_solve(h):
            calls.append(h)
            return solve(h)

        monkeypatch.setattr(dynamics, "solve_bands", counting_solve)
        fresh = functools.lru_cache(maxsize=32)(dynamics._cached_bands.__wrapped__)
        monkeypatch.setattr(dynamics, "_cached_bands", fresh)
        fringe_period_us(spec, basis)
        build_objective(ObjectiveKind.HALF_PI, spec, basis)
        assert len(calls) == 1

    def test_gap_converged_in_shell_radius(self, spec):
        g5 = sd_gap(spec, build_basis(spec, 5))
        g7 = sd_gap(spec, build_basis(spec, 7))
        assert abs(g5 - g7) < 1e-6

    def test_calibration_recovers_shipped_coefficient(self):
        c = calibrate_fourier_coefficient()
        assert c == pytest.approx(TRIANGULAR_FOURIER_COEF, abs=1e-6)

    def test_calibration_needs_triangular_geometry(self, spec_1d):
        with pytest.raises(ValueError, match="^calibration needs the triangular geometry$"):
            calibrate_fourier_coefficient(spec=spec_1d)

    def test_calibration_lands_within_1e_12_of_the_root(self):
        # The root as SciPy's brentq finds it with xtol=1e-12; the bisection
        # lands 3.8e-14 from it.
        assert abs(calibrate_fourier_coefficient() - 0.2420392873417238) <= 1e-12

    def test_calibration_is_pinned_to_the_bit(self):
        assert calibrate_fourier_coefficient() == 0.2420392873416859

    def test_bisect_root(self):
        root = bisect_root(lambda x: x * x - 2.0, 1.0, 2.0, 1e-12)
        assert abs(root - math.sqrt(2.0)) <= 1e-12
        assert bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12) is None

    @pytest.mark.parametrize("period_us", [1.0, 1e9])
    def test_calibration_refuses_a_bracket_without_a_root(self, period_us):
        with pytest.raises(ValueError, match="for no c in"):
            calibrate_fourier_coefficient(period_us=period_us)


@functools.cache
def _half_pi_objective():
    spec = LatticeSpec()
    return build_objective(ObjectiveKind.HALF_PI, spec, build_basis(spec))


def _optimize_in_box(lo, hi):
    """One cheap refinement of a one-step seed within the depth box (lo, hi)."""
    seed = PulseSequence.from_durations([(10.0, 10.0)])
    optimize(seed, _half_pi_objective(), OptimizerOptions(max_iters=1, restarts=1),
             depth_bounds=(lo, hi))


#: Every bounded scalar of the library, by where it lives: (field, constructor
#: of the value, lower end, upper end or None, whether the lower end is excluded).
BOUNDED_FIELDS = {
    "LatticeSpec.wavelength": ("wavelength", lambda v: LatticeSpec(wavelength=v), 0, None, True),
    "LatticeSpec.atom_mass": ("atom_mass", lambda v: LatticeSpec(atom_mass=v), 0, None, True),
    "LatticeSpec.depth": ("depth", lambda v: LatticeSpec(depth=v), 0, MAX_DEPTH_ER, False),
    "build_basis.shell_radius": ("shell_radius", lambda v: build_basis(LatticeSpec(), v),
                                 1, MAX_SHELL_RADIUS, False),
    "PulseStep.t_on": ("t_on", lambda v: PulseStep(v, 0.0), 0, MAX_STEP_US, False),
    "PulseStep.t_off": ("t_off", lambda v: PulseStep(0.0, v), 0, MAX_STEP_US, False),
    "PulseStep.depth": ("depth", lambda v: PulseStep(1.0, 1.0, v), 0, MAX_DEPTH_ER, False),
    "EnsembleSpec.sigma_q": ("sigma_q", lambda v: EnsembleSpec(sigma_q=v), 0, None, False),
    "EnsembleSpec.quadrature": ("quadrature", lambda v: EnsembleSpec(quadrature=v),
                                1, MAX_QUADRATURE, False),
    "EnsembleSpec.quadrature at sigma_q > 0": (
        "quadrature", lambda v: EnsembleSpec(sigma_q=0.3, quadrature=v), 5, MAX_QUADRATURE, False),
    "EnsembleSpec.width_schedule time": (
        "width_schedule time",
        lambda v: EnsembleSpec(sigma_q=0.3, quadrature=5, width_schedule=((v, 0.3),)),
        -sys.float_info.max, sys.float_info.max, False),
    "EnsembleSpec.width_schedule width": (
        "width_schedule width",
        lambda v: EnsembleSpec(sigma_q=0.3, quadrature=5, width_schedule=((0.0, v),)),
        0, None, True),
    "OptimizerOptions.grid_quantum": ("grid_quantum", lambda v: OptimizerOptions(grid_quantum=v),
                                      0, None, False),
    "OptimizerOptions.rng_seed": ("rng_seed", lambda v: OptimizerOptions(rng_seed=v),
                                  0, None, False),
    "OptimizerOptions.max_iters": ("max_iters", lambda v: OptimizerOptions(max_iters=v),
                                   1, MAX_COUNT, False),
    "OptimizerOptions.restarts": ("restarts", lambda v: OptimizerOptions(restarts=v),
                                  1, MAX_COUNT, False),
    "OptimizerOptions.on_max": ("on_max", lambda v: OptimizerOptions(on_max=v),
                                0, MAX_STEP_US, False),
    "OptimizerOptions.off_max": ("off_max", lambda v: OptimizerOptions(off_max=v),
                                 0, MAX_STEP_US, False),
    "optimize.depth_bounds[0]": ("depth_bounds[0]", lambda v: _optimize_in_box(v, 6.0),
                                 0, REFERENCE_DEPTH_ER, False),
    "optimize.depth_bounds[1]": ("depth_bounds[1]", lambda v: _optimize_in_box(3.0, v),
                                 REFERENCE_DEPTH_ER, MAX_DEPTH_ER, False),
}
#: The fields that are counts or seeds: a bool or a float is refused.
INTEGER_FIELDS = {"shell_radius", "quadrature", "rng_seed", "max_iters", "restarts"}
#: EnsembleSpec's quadrature rule besides its range.
QUADRATURE_RULES = ("quadrature must be odd",)
#: The probed values inside their own range that a derived bound refuses, with
#: that bound's name: a wavelength or atom mass (the other at its default) that
#: gives no finite, positive recoil frequency E_r/h, and a schedule width whose
#: squared ratio 3 sigma_q / width overflows.
DERIVED_REFUSED = {("LatticeSpec.wavelength", 5e-324): "recoil frequency E_r/h",
                   ("LatticeSpec.wavelength", 1e308): "recoil frequency E_r/h",
                   ("LatticeSpec.atom_mass", 1e308): "recoil frequency E_r/h",
                   ("EnsembleSpec.width_schedule width", 5e-324): "(3 sigma_q / width)^2"}


def _boundary_values(lo, hi):
    """The values that probe a bound: signs, non-finite floats, a float and an
    integer beyond the largest float, both bools, a fraction, and each end of
    the range with its integer and float neighbours."""
    values = [0, -1, math.nan, math.inf, -math.inf, 1e308, 10**400, True, False, 2.5]
    for end in (lo,) if hi is None else (lo, hi):
        values += [end - 1, end, end + 1,
                   math.nextafter(end, -math.inf), math.nextafter(end, math.inf)]
    return values


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(BOUNDED_FIELDS)).flatmap(lambda where: st.tuples(
    st.just(where), st.sampled_from(_boundary_values(*BOUNDED_FIELDS[where][2:4])))))
@example(case=("LatticeSpec.depth", 10**400))
@example(case=("EnsembleSpec.sigma_q", 10**400))
@example(case=("OptimizerOptions.grid_quantum", 10**400))
@example(case=("LatticeSpec.depth", True))
@example(case=("LatticeSpec.wavelength", True))
@example(case=("PulseStep.t_on", True))
@example(case=("OptimizerOptions.grid_quantum", True))
@example(case=("EnsembleSpec.sigma_q", True))
@example(case=("EnsembleSpec.width_schedule time", True))
@example(case=("EnsembleSpec.width_schedule time", 10**400))
@example(case=("EnsembleSpec.width_schedule width", True))
@example(case=("EnsembleSpec.width_schedule width", 10**400))
@example(case=("optimize.depth_bounds[0]", True))
@example(case=("optimize.depth_bounds[1]", 10**400))
def test_every_bound_refuses_in_one_form(case):
    """Each bounded field, at each boundary value, constructs when the value
    lies in its range, is not a bool, and is an integer for a count, and
    otherwise raises ValueError in the one form of a bound, of the integer
    rule for a count or of the number rule for any other field: never
    TypeError or OverflowError, and never with a value too large for a float.
    A value in range that a derived bound refuses (a recoil frequency, a
    schedule width's squared ratio) raises in the form of that bound."""
    where, value = case
    name, construct, lo, hi, above = BOUNDED_FIELDS[where]
    top = sys.float_info.max if hi is None else hi
    inside = (lo < value <= top) if above else (lo <= value <= top)
    inside = inside and not isinstance(value, bool)
    if name in INTEGER_FIELDS:
        inside = inside and isinstance(value, int)
    kind = "an integer" if name in INTEGER_FIELDS else "a number"
    forms = (f"{name} must be finite, with ", f"{name} must be {kind}, got ")
    if inside and (where, value) in DERIVED_REFUSED:
        inside, forms = False, (f"{DERIVED_REFUSED[where, value]} must be finite, with ",)
    try:
        construct(value)
    except ValueError as exc:
        assert str(exc).startswith(QUADRATURE_RULES if inside else forms), exc
    else:
        assert inside
