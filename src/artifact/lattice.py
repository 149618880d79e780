"""Lattice geometry, plane-wave basis, and lattice Hamiltonians.

The triangular optical lattice is formed by three coplanar travelling beams
of equal wavelength whose wavevectors k_1, k_2, k_3 sum to zero and meet at
mutual 120-degree angles.  Interference produces a periodic potential whose
reciprocal lattice is spanned by the beam differences b_j = k_i - k_j with
|b_j| = sqrt(3) k.  A one-dimensional standing-wave geometry (reciprocal
spacing 2k) is also provided.

Internal unit conventions (used across the whole package):

* energies in recoil units E_r = hbar^2 k^2 / 2m,
* times in microseconds,
* quasi-momenta and wavevectors in units of the single-beam wavenumber k,
* hbar = 1 via the conversion ``angular_frequency_per_Er`` (rad/us per E_r),
  always computed from the spec, never hard-coded.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

# CODATA physical constants (SI).
HBAR = 1.054571817e-34  # J s
PLANCK_H = 6.62607015e-34  # J s
MASS_RB87 = 1.4432e-25  # kg
DEFAULT_WAVELENGTH = 1.064e-6  # m

#: Fraction of the lattice depth carried by each of the six first-shell
#: Fourier components of the triangular potential,
#: V(r) = -coef*V_OL * sum over +-(k_i - k_j) of e^(i G . r)  (+ constant).
#: The value is fixed by the band-gap convention of this package: it is the
#: unique coefficient for which the S-D band gap at V_OL = 5 E_r equals
#: h / (88.8 us), i.e. the gap that the band solver must reproduce for the
#: standard interferometer fringe period at the reference depth.  It can be
#: re-derived at runtime with :func:`calibrate_fourier_coefficient`; a unit
#: test asserts the frozen value matches the re-derivation.
TRIANGULAR_FOURIER_COEF = 0.2420392

#: Reference depth (E_r) and fringe period (us) that define the calibration.
REFERENCE_DEPTH_ER = 5.0
REFERENCE_FRINGE_PERIOD_US = 88.8

#: The largest shell radius N of :func:`build_basis`: an eigensolve costs
#: (2N+1)^6, and a huge radius would exhaust memory.
MAX_SHELL_RADIUS = 10
#: The deepest lattice (E_r) of a spec, pulse step or depth box: the absolute
#: 1e-10 eigen-residual check sees 8.4e-13 at 1e3 E_r but 9.1e-11 at 1e5.
MAX_DEPTH_ER = 1e3

#: First-shell index offsets (n1, n2) whose reciprocal vectors carry the six
#: triangular Fourier components: +-b1, +-b2, +-(b1 + b2).
TRIANGULAR_COUPLING_OFFSETS = (
    (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1),
)


class Geometry(enum.Enum):
    """Lattice geometry selector."""

    TRIANGULAR_3BEAM = "triangular"
    STANDING_WAVE_1D = "1d"


#: Non-zero Fourier offsets of each geometry's potential (besides (0, 0)).
COUPLING_OFFSETS = {
    Geometry.TRIANGULAR_3BEAM: TRIANGULAR_COUPLING_OFFSETS,
    Geometry.STANDING_WAVE_1D: ((1, 0), (-1, 0)),
}


@dataclass(frozen=True)
class LatticeSpec:
    """Physical description of the optical lattice.

    Attributes
    ----------
    geometry:
        Triangular three-beam lattice or 1D standing wave.
    wavelength:
        Laser wavelength in metres.
    depth:
        Lattice depth V_OL in recoil units E_r.
    atom_mass:
        Atomic mass in kg (default: Rb-87).
    """

    geometry: Geometry = Geometry.TRIANGULAR_3BEAM
    wavelength: float = DEFAULT_WAVELENGTH
    depth: float = REFERENCE_DEPTH_ER
    atom_mass: float = MASS_RB87

    def __post_init__(self) -> None:
        require_within("wavelength", self.wavelength, 0, above=True)
        require_within("atom_mass", self.atom_mass, 0, above=True)
        require_within("depth", self.depth, 0, MAX_DEPTH_ER, unit=" E_r")
        try:  # E_r/h, the unit of every energy and time
            f_hz = recoil_energy(self)[1]
        except OverflowError:  # k**2 beyond the largest float
            f_hz = math.inf
        require_within("recoil frequency E_r/h", f_hz, 0, above=True)


def wavenumber(spec: LatticeSpec) -> float:
    """Single-beam wavenumber k = 2 pi / lambda in 1/m."""
    return 2.0 * math.pi / spec.wavelength


def recoil_energy(spec: LatticeSpec) -> tuple[float, float]:
    """Recoil energy E_r = hbar^2 k^2 / 2m.

    Returns
    -------
    (energy_J, frequency_Hz):
        The recoil energy in joules and the equivalent frequency E_r / h.
    """
    k = wavenumber(spec)
    e_j = HBAR**2 * k**2 / (2.0 * spec.atom_mass)
    return e_j, e_j / PLANCK_H


def angular_frequency_per_Er(spec: LatticeSpec) -> float:
    """Conversion factor: 1 E_r of energy <-> this many rad/us of phase.

    With hbar = 1, a state of energy E (in E_r) acquires phase
    exp(-i * E * angular_frequency_per_Er(spec) * t_us).
    """
    _, f_hz = recoil_energy(spec)
    return 2.0 * math.pi * f_hz * 1e-6


def reciprocal_primitives(geometry: Geometry) -> np.ndarray:
    """Primitive reciprocal vectors in units of k, as a (2, 2) array of rows.

    Triangular: b1 = k1 - k2, b2 = k2 - k3 (|b| = sqrt(3)).
    1D standing wave: b1 = (2, 0) (|b| = 2); b2 is unused and set to zero.
    """
    if geometry is Geometry.TRIANGULAR_3BEAM:
        s = math.sqrt(3.0)
        return np.array([[1.5, -s / 2.0], [0.0, s]])
    return np.array([[2.0, 0.0], [0.0, 0.0]])


@dataclass(frozen=True)
class PlaneWaveBasis:
    """Truncated plane-wave basis over reciprocal-lattice sites.

    ``sites`` are integer coordinates (n1, n2) (n2 = 0 for the 1D geometry);
    :func:`build_basis` gives the standard |n1|, |n2| <= N set, ordered
    lexicographically so that basis output is deterministic, but any site set
    works.  The physical reciprocal vector of a site is G = n1 b1 + n2 b2.
    Everything else is derived from the sites once, on construction.
    """

    geometry: Geometry
    sites: tuple[tuple[int, int], ...]
    #: (n_sites, 2) array of G vectors in units of k.
    g_vectors: np.ndarray = field(init=False, repr=False, compare=False)
    #: map site -> row index.
    index: dict = field(init=False, repr=False, compare=False)
    #: coupling table: Fourier offset -> (rows, cols) index arrays, site
    #: ``cols[k]`` shifted by the offset being site ``rows[k]``; the offsets
    #: are (0, 0) (the diagonal) and the geometry's COUPLING_OFFSETS.
    couplings: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        prims = reciprocal_primitives(self.geometry)
        g = np.array([n1 * prims[0] + n2 * prims[1] for (n1, n2) in self.sites])
        index = {s: i for i, s in enumerate(self.sites)}
        couplings = {}
        for o1, o2 in ((0, 0), *COUPLING_OFFSETS[self.geometry]):
            pairs = [
                (index[(n1 + o1, n2 + o2)], i)
                for i, (n1, n2) in enumerate(self.sites)
                if (n1 + o1, n2 + o2) in index
            ]
            couplings[(o1, o2)] = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        derived = {"g_vectors": g, "index": index, "couplings": couplings}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return len(self.sites)

    def kinetic(self, q: np.ndarray) -> np.ndarray:
        """Kinetic energies (q + G)^2 in E_r, one per site."""
        return np.sum((self.g_vectors + q) ** 2, axis=1)

    def check_reach(self, q_norm: float, what: str) -> None:
        """Refuse a quasi-momentum of norm ``q_norm`` (in k), described by
        ``what``, that is not finite or lies beyond the largest |G| of the
        basis, where the lowest eigenvalues are no longer Bloch bands.  The
        comparison allows 1e-9 relative, as the default basis's 15 k comes
        out as 14.999999999999998."""
        reach = float(np.max(np.linalg.norm(self.g_vectors, axis=1)))
        if not q_norm <= reach * (1.0 + 1e-9):
            raise ValueError(f"{what} must be finite, with |q| <= the basis's largest "
                             f"|G| = {reach:.6g} k, got |q| = {q_norm:.6g} k")


def require_within(name: str, value, lo, hi=None, *, above: bool = False,
                   integer: bool = False, unit: str = "") -> None:
    """Refuse ``value`` outside [lo, hi], or (lo, hi] when ``above``, saying
    ``{name} must be finite, with {bound}, got {value}``; then refuse a bool
    (a flag) as not a number, and with ``integer`` also a non-``Integral``
    count (a float fails later in ``range`` or the RNG).  With no ``hi`` the
    upper end is the largest float, so NaN, +-inf and integers too large for a
    float fail the range too."""
    top = sys.float_info.max if hi is None else hi
    if not (lo < value <= top if above else lo <= value <= top):
        eq = "" if above else "="
        bound = (f"{name} >{eq} {lo:g}" if hi is None
                 else f"{lo:g} <{eq} {name} <= {hi:g}{unit}")
        raise ValueError(f"{name} must be finite, with {bound}, got {value}")
    if isinstance(value, bool) or integer and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value}")


def build_basis(spec: LatticeSpec, shell_radius: int = 5) -> PlaneWaveBasis:
    """Build the truncated plane-wave basis for the spec's geometry.

    Size is (2N+1)^2 for the triangular lattice and 2N+1 for the 1D one.
    """
    require_within("shell_radius", shell_radius, 1, MAX_SHELL_RADIUS, integer=True)
    n = shell_radius
    if spec.geometry is Geometry.TRIANGULAR_3BEAM:
        sites = tuple(
            (n1, n2) for n1 in range(-n, n + 1) for n2 in range(-n, n + 1)
        )
    else:
        sites = tuple((n1, 0) for n1 in range(-n, n + 1))
    return PlaneWaveBasis(geometry=spec.geometry, sites=sites)


def potential_fourier(spec: LatticeSpec, depth: float | None = None) -> dict:
    """Fourier components of the lattice potential, keyed by site offset.

    Returns a map from integer offsets (dn1, dn2) to coefficients in E_r;
    the physical reciprocal vector of an offset is dn1 b1 + dn2 b2.

    Triangular: a constant term at (0, 0) plus six equal real components
    -TRIANGULAR_FOURIER_COEF * depth at the first-shell offsets (all equal by
    beam-exchange symmetry).  1D: the standard two-component cosine lattice
    (constant -depth/2, -depth/4 at each of +-b1).

    The constant term shifts all lattice-on band energies uniformly, so it
    only multiplies a pulse sequence's operator by a global phase, which no
    single-sequence fidelity or population sees.  It is not inert, though:
    the canonical gauge that phase-locks pi (anti-diagonal) pulses, see
    :func:`artifact.shortcut.aligned_fidelity_block`, depends on that global
    phase, so phase-locked echo fringes change if the term is dropped.
    """
    d = spec.depth if depth is None else depth
    require_within("depth", d, 0, MAX_DEPTH_ER, unit=" E_r")
    if d == 0:
        return {}
    if spec.geometry is Geometry.TRIANGULAR_3BEAM:
        c = TRIANGULAR_FOURIER_COEF * d
        c0 = 3.0 * c
    else:
        c, c0 = d / 4.0, d / 2.0
    comps = {offset: -c for offset in COUPLING_OFFSETS[spec.geometry]}
    comps[(0, 0)] = -c0
    return comps


def _assemble(basis: PlaneWaveBasis, q: np.ndarray, fourier: dict) -> np.ndarray:
    """Kinetic diagonal (q+G)^2 plus Fourier components (offset -> E_r),
    placed through the basis's coupling table."""
    h = np.diag(basis.kinetic(q))
    for offset, coef in fourier.items():
        rows, cols = basis.couplings[offset]
        h[rows, cols] += coef
    return h


def hamiltonian_on(
    basis: PlaneWaveBasis,
    spec: LatticeSpec,
    q: np.ndarray,
    depth: float | None = None,
) -> np.ndarray:
    """Lattice-on Hamiltonian in E_r, an (n, n) real symmetric matrix:
    kinetic diagonal (q+G)^2 plus the potential.

    ``q`` is a 2-vector in units of hbar*k; ``depth`` overrides the spec's
    depth (used by variable-amplitude pulse steps).
    """
    if basis.geometry is not spec.geometry:
        raise ValueError("basis and spec geometries differ")
    q = np.asarray(q, dtype=float)
    return _assemble(basis, q, potential_fourier(spec, depth))


def sd_gap(spec: LatticeSpec, basis: PlaneWaveBasis) -> float:
    """S-D band gap at the zone center, in E_r, at the spec's depth.

    Goes through :func:`artifact.dynamics.band_eig`, whose cache keeps the
    q = 0 solve for the objectives and pulse operators built afterwards.
    """
    from . import dynamics  # local import to avoid a cycle

    energies, _ = dynamics.band_eig(np.zeros(2), spec, basis)
    s_idx, d_idx = dynamics.default_band_pair(spec.geometry)
    return float(energies[d_idx - 1] - energies[s_idx - 1])


def fringe_period_us(spec: LatticeSpec, basis: PlaneWaveBasis) -> float:
    """Interferometer fringe period h / (S-D gap) in microseconds."""
    _, f_hz = recoil_energy(spec)
    return 1e6 / (sd_gap(spec, basis) * f_hz)


def calibrate_fourier_coefficient(
    spec: LatticeSpec | None = None,
    period_us: float = REFERENCE_FRINGE_PERIOD_US,
) -> float:
    """Re-derive the triangular Fourier coefficient from its defining gap.

    Solves for the per-depth coefficient c such that the S-D gap at the
    spec's depth (default: the reference spec) equals h / period_us.  This is
    the executable definition of :data:`TRIANGULAR_FOURIER_COEF`.  The root
    is found by :func:`bisect_root` on (0.05, 0.45), across which the
    reference gap rises monotonically, down to an interval of 1e-12; a
    bracket whose ends have the same sign raises ValueError.
    """
    from . import dynamics  # local import to avoid a cycle

    spec = LatticeSpec() if spec is None else spec
    if spec.geometry is not Geometry.TRIANGULAR_3BEAM:
        raise ValueError("calibration needs the triangular geometry")
    basis = build_basis(spec)
    _, f_hz = recoil_energy(spec)
    target_gap = 1e6 / (period_us * f_hz)
    s_idx, d_idx = dynamics.default_band_pair(spec.geometry)

    def gap_minus_target(c: float) -> float:
        shell = {offset: -c * spec.depth for offset in TRIANGULAR_COUPLING_OFFSETS}
        e = np.linalg.eigvalsh(_assemble(basis, np.zeros(2), shell))
        return (e[d_idx - 1] - e[s_idx - 1]) - target_gap

    lo, hi = 0.05, 0.45
    root = bisect_root(gap_minus_target, lo, hi, 1e-12)
    if root is None:
        raise ValueError(
            f"the S-D gap equals h / {period_us:g} us for no c in ({lo}, {hi})"
        )
    return root


def bisect_root(f, lo: float, hi: float, xtol: float) -> float | None:
    """A root of ``f`` in (lo, hi), bisected down to an interval of ``xtol``;
    None when ``f`` has the same sign at both ends."""
    f_lo = f(lo)
    if f_lo * f(hi) > 0:
        return None
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid * f_lo > 0:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
