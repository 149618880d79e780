"""Band solutions and pulse-sequence evolution.

All evolution is exact within the truncated plane-wave basis: lattice-on
intervals act by spectral decomposition of the (small, real symmetric)
lattice Hamiltonian, U = V exp(-i E t) V^dagger, and lattice-off intervals
are diagonal in the plane waves, with energies in E_r and times in
microseconds (see :mod:`artifact.lattice` for the unit conventions).

A pulse sequence is an ordered list of steps; each step applies the
lattice-on propagator for ``t_on`` at the step's depth and then the
lattice-off (free) propagator for ``t_off``.  Sequences compose as
time-ordered products, applied left to right in step order, lattice-on
first within each step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    MAX_DEPTH_ER,
    TRIANGULAR_COUPLING_OFFSETS,
    Geometry,
    LatticeSpec,
    PlaneWaveBasis,
    hamiltonian_on,
    require_within,
)

#: Near-degeneracy threshold (E_r) for the D-band selection rule.
DEGENERACY_TOL_ER = 1e-6


def default_band_pair(geometry: Geometry) -> tuple[int, int]:
    """1-based (S-band, D-band) indices for the interferometer states.

    The S and D bands are the two lowest bands that are even at the zone
    center: bands 1 and 4 for the triangular lattice (bands 2-3 are the odd
    P-bands), bands 1 and 3 for the 1D standing wave.
    """
    if geometry is Geometry.TRIANGULAR_3BEAM:
        return 1, 4
    return 1, 3


#: Longest step duration (us) that a :class:`PulseStep` or an optimizer maximum
#: accepts: designed steps last tens of us, and at 1e300 us a step's phases
#: have lost all precision.
MAX_STEP_US = 1e6


@dataclass(frozen=True)
class PulseStep:
    """One lattice-on / lattice-off interval pair, durations in us."""

    t_on: float
    t_off: float
    depth: float | None = None  # E_r; None = use the spec's depth

    def __post_init__(self) -> None:
        require_within("t_on", self.t_on, 0, MAX_STEP_US, unit=" us")
        require_within("t_off", self.t_off, 0, MAX_STEP_US, unit=" us")
        if self.depth is not None:
            require_within("depth", self.depth, 0, MAX_DEPTH_ER, unit=" E_r")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse steps applied left to right (on, then off, per step)."""

    steps: tuple[PulseStep, ...]

    def __post_init__(self) -> None:
        if len(self.steps) == 0:
            raise ValueError("a pulse sequence needs at least one step")

    @classmethod
    def from_durations(
        cls,
        durations: "list[tuple[float, float]]",
        depths: "list[float] | None" = None,
    ) -> "PulseSequence":
        """Build from (t_on, t_off) pairs and optional per-step depths."""
        if depths is None:
            depths = [None] * len(durations)
        if len(depths) != len(durations):
            raise ValueError("depths and durations lengths differ")
        steps = (PulseStep(on, off, d) for (on, off), d in zip(durations, depths))
        return cls(tuple(steps))

    @property
    def durations(self) -> np.ndarray:
        """Flat array [t_on_1, ..., t_on_K, t_off_1, ..., t_off_K]."""
        return np.array([s.t_on for s in self.steps] + [s.t_off for s in self.steps])


# --------------------------------------------------------------------------
# Band solving


def _fix_phases(states: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude component real and positive."""
    piv = states[np.argmax(np.abs(states), axis=0), np.arange(states.shape[1])]
    return states * (np.conj(piv) / np.abs(piv))


def solve_bands(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum (energies, states) of a lattice Hamiltonian matrix.

    Energies ascend; the eigenvector columns have deterministic phases
    (largest-magnitude component real and positive).  A non-finite input
    raises ArithmeticError; the eigen-residual check also refuses a
    non-Hermitian input, of which ``eigh`` reads one triangle only.
    """
    if not np.all(np.isfinite(h)):
        raise ArithmeticError("the Hamiltonian is not finite")
    energies, states = np.linalg.eigh(h)
    # The phase fix scales each column by a unit number: |residual| is unchanged.
    residual = h @ states - states * energies
    if not float(np.max(np.abs(residual))) <= 1e-10:
        raise ArithmeticError("eigen-residual exceeds 1e-10")
    return energies, _fix_phases(states.astype(complex))


def band_eig(
    q: np.ndarray,
    spec: LatticeSpec,
    basis: PlaneWaveBasis,
    depth: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(energies, states) of the lattice-on Hamiltonian at q and ``depth``
    (default the spec's), as :func:`solve_bands` gives them.

    Solves on every call; a :class:`BandSet` keeps one q's solutions.
    """
    return solve_bands(hamiltonian_on(basis, spec, q, depth))


_MEMO_DEPTHS = 32


class BandSet:
    """The band solutions at one quasi-momentum q of a lattice and basis.

    :meth:`eig` solves each depth once, on first use.  A q needs one depth
    (six for a variable-depth pi), but a variable-amplitude design moves a
    few per evaluation, so the record keeps the 32 most recently used: about
    7.5 MB on the default 121-wave basis.  :attr:`frame` is formed once,
    on first use.  A record belongs to one fringe node or one objective, and
    its solutions die with it; it is not for sharing between threads.
    """

    def __init__(self, q: np.ndarray, spec: LatticeSpec, basis: PlaneWaveBasis) -> None:
        self.q = np.asarray(q, dtype=float)
        self.spec = spec
        self.basis = basis
        self._memo: dict = {}
        self._frame: np.ndarray | None = None

    def eig(self, depth: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """:func:`band_eig` at this q and ``depth`` (default the spec's)."""
        key = float(self.spec.depth if depth is None else depth)
        found = self._memo.pop(key, None)
        if found is None:
            found = band_eig(self.q, self.spec, self.basis, key)
            if len(self._memo) >= _MEMO_DEPTHS:
                del self._memo[next(iter(self._memo))]
        self._memo[key] = found
        return found

    @property
    def frame(self) -> np.ndarray:
        """The S/D band frame at this q, read-only (n, 2) columns [S D]: the
        :func:`bloch_state` of each :func:`default_band_pair` band, so D obeys
        the D-band degeneracy rule.  Every pulse and objective is expressed in it."""
        if self._frame is None:
            pair = default_band_pair(self.spec.geometry)
            self._frame = np.stack([bloch_state(b, self) for b in pair], axis=1)
            self._frame.flags.writeable = False
        return self._frame


def bloch_state(band_index: int, bands: BandSet) -> np.ndarray:
    """Energy-ordered band eigenstate (1-based index) at the quasi-momentum
    of ``bands``, as its plane-wave amplitudes.

    If the requested band is the D-band and sits in a (near-)degenerate
    cluster, the returned state is the cluster member maximizing overlap with
    the fully symmetric first-shell combination: the lattice pulses couple
    the S-band only to states in the same (fully symmetric) representation,
    so this is the physically reachable partner.  At the package's band-gap
    convention the triangular D-band is isolated and the rule is dormant.
    """
    spec, basis = bands.spec, bands.basis
    require_within("band_index", band_index, 1, basis.size, integer=True)
    energies, states = bands.eig()
    i = band_index - 1
    if (
        spec.geometry is Geometry.TRIANGULAR_3BEAM
        and band_index == default_band_pair(spec.geometry)[1]
    ):
        lo = hi = i
        while lo > 0 and energies[lo] - energies[lo - 1] < DEGENERACY_TOL_ER:
            lo -= 1
        while hi + 1 < len(energies) and energies[hi + 1] - energies[hi] < DEGENERACY_TOL_ER:
            hi += 1
        if hi > lo:
            # Equal-weight combination of the six first-shell plane waves.
            w = np.zeros(basis.size)
            w[[basis.index[off] for off in TRIANGULAR_COUPLING_OFFSETS]] = 1.0
            cluster = states[:, lo : hi + 1]
            vec = cluster @ (cluster.conj().T @ (w / np.linalg.norm(w)))
            n = np.linalg.norm(vec)
            if n > 1e-12:
                return _fix_phases((vec / n)[:, None])[:, 0]
    return states[:, i].copy()


# --------------------------------------------------------------------------
# Propagation


def evolve_columns(
    cols: np.ndarray, seq: PulseSequence, bands: BandSet, adjoint: bool = False
) -> np.ndarray:
    """Apply a pulse sequence to (n, k) state columns at the fixed q of
    ``bands``, whose solutions serve every lattice-on step.

    Equivalent to multiplying by the sequence's time-ordered product of
    on/off propagators, but evaluated column-wise, with S^dagger X formed as
    conj(S^T conj(X)) so that no band basis S is copied.  ``adjoint`` applies
    the product's adjoint instead: the intervals in reverse order, each with
    its phases conjugated.
    """
    w = bands.spec.angular_frequency_per_Er
    kin = bands.basis.kinetic(bands.q)
    sign = 1j if adjoint else -1j
    out = np.asarray(cols, dtype=complex)
    if out.ndim != 2:
        raise ValueError(f"cols must be (n, k) state columns, got shape {out.shape}")
    intervals = [(step, on) for step in seq.steps for on in (True, False)]
    for step, on in reversed(intervals) if adjoint else intervals:
        if on and step.t_on > 0:
            energies, states = bands.eig(step.depth)
            phases = np.exp(sign * energies * w * step.t_on)
            out = states @ (phases[:, None] * (states.T @ out.conj()).conj())
        elif not on and step.t_off > 0:
            out = np.exp(sign * kin * w * step.t_off)[:, None] * out
    return out

