"""Ramsey and echo-Ramsey interferometry over quasi-momentum ensembles.

Sequences (time order, left to right):

* Echo:    pi/2, then n repetitions of [hold t/2n, pi pulse, hold t/2n],
  then pi/2, and measure the D-band population P_D; the pi pulses rephase
  quasi-momentum-dependent phase accumulation.
* Ramsey:  the echo with n = 0: pi/2 pulse, lattice-on hold for t, pi/2.

The hold evolution uses the full multi-band lattice-on propagator.  Each
pulse is built once per quasi-momentum in the S/D frame F = [S D] of
:func:`artifact.dynamics.sd_frame` and applied only to the columns the fringe
reads (:func:`_pulse`): an ideal rotation 1 + F (R - 1) F^dagger, R the 2x2
target block, or a shortcut pulse sequence R, always applied as Z_b R Z_a
with Z_theta = 1 + (e^(i theta) - 1)|D><D|.  Phase-locked (the default),
(a, b) are the per-band reference phases of the aligned fidelity frame
(:func:`artifact.shortcut.aligned_fidelity_block`), solved once from
F^dagger R F, so that separately designed pulses compose as the ideal
rotations they approximate.  Unlocked is the zero lock (a, b) = (0, 0): the
raw operators R compose as they are.  Both models are independent of the
eigensolver's phase convention.

Dephasing arises from averaging fringes over a Gaussian quasi-momentum
distribution: the S-D gap varies with q, so ensemble fringes decay.
:func:`ensemble_fringe` reads both views from one pass over the ensemble:
P_D, and from the pair (num, den) the analysis-phase-scan contrast
2|num|/den, with P_D = den + 2 Re(num).  That contrast, the fringe amplitude
from scanning a phase on the D component before the final pi/2, stays
meaningful for a constant P_D (a perfect echo); :func:`contrast_curve` gives
the windowed contrast (max-min)/(max+min) of the P_D fringe.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import MAX_STEP_US, PulseSequence, band_eig, evolve_columns, sd_frame
from .lattice import (
    Geometry,
    LatticeSpec,
    PlaneWaveBasis,
    angular_frequency_per_Er,
    bisect_root,
    require_within,
)
from .shortcut import MAX_COUNT, ROTATION_BLOCKS, ObjectiveKind, aligned_fidelity_block

ONE_OVER_E = 1.0 / math.e
#: The largest :class:`EnsembleSpec` quadrature: an ensemble holds quadrature^2
#: q-points, and 401 is the largest grid whose convergence was measured.
MAX_QUADRATURE = 401
#: The most hold times a fringe accepts: the per-q kernel holds several
#: (basis size, hold times) complex arrays.
MAX_HOLD_TIMES = 10**5
#: The readings of a measured quasi-momentum width delta_q, each with the
#: divisor d of sigma = delta_q / d: the full width at half maximum, or 2 sigma.
WIDTH_READINGS = {"fwhm": 2.0 * math.sqrt(2.0 * math.log(2.0)), "two_sigma": 2.0}


class FringeKind(enum.Enum):
    RAMSEY = "ramsey"
    ECHO = "echo"


@dataclass(frozen=True)
class IdealPulses:
    """Perfect analytic pi/2 and pi rotations in the S/D subspace."""


@dataclass(frozen=True)
class SequencePulses:
    """Shortcut pulse sequences as interferometer pulses.

    ``phase_locked`` dresses each sequence operator with its aligned-frame
    phases (recomputed at every quasi-momentum), making the plain overlap
    fidelity equal the aligned fidelity and letting separately designed
    pulses compose.  Disable for the zero lock (a, b) = (0, 0), the raw
    sequence operators; fringes are independent of the eigenvector phase
    convention either way.
    """

    pi2: PulseSequence
    pi: PulseSequence | None = None
    phase_locked: bool = True


PulseModel = IdealPulses | SequencePulses


@dataclass(frozen=True)
class EnsembleSpec:
    """Gaussian quasi-momentum distribution and quadrature for ensemble
    averages; ``sigma_q = 0`` (the default) is the single point q = 0."""

    sigma_q: float = 0.0
    quadrature: int = 21
    #: optional piecewise-linear width schedule [(t_us, sigma), ...].
    width_schedule: tuple = ()

    def __post_init__(self) -> None:
        require_within("sigma_q", self.sigma_q, 0)
        # A grid below 5 per axis is too coarse for a Gaussian ensemble.
        require_within("quadrature", self.quadrature, 5 if self.sigma_q > 0 else 1,
                       MAX_QUADRATURE, integer=True)
        if self.quadrature % 2 == 0:
            raise ValueError("quadrature must be odd so q = 0 is a node")
        last = -math.inf
        for t, width in self.width_schedule:
            require_within("width_schedule time", t, -sys.float_info.max, sys.float_info.max)
            require_within("width_schedule width", width, 0, above=True)
            # The farthest node's weight squares 3 sigma_q / width.
            spread = 3.0 * (self.sigma_q / width)
            require_within("(3 sigma_q / width)^2", spread * spread, 0)
            if t < last:
                raise ValueError("width_schedule times must ascend")
            last = t

    @classmethod
    def from_width(
        cls,
        delta_q: float,
        reading: str = "fwhm",
        quadrature: int = 21,
    ) -> "EnsembleSpec":
        """Build a Gaussian ensemble from a measured distribution width
        delta_q, read as ``reading``, a key of :data:`WIDTH_READINGS`."""
        if not isinstance(reading, str) or reading not in WIDTH_READINGS:
            raise ValueError(f"reading must be {' or '.join(map(repr, WIDTH_READINGS))}")
        return cls(sigma_q=delta_q / WIDTH_READINGS[reading], quadrature=quadrature)


def _check_curve(curve, name: str) -> None:
    """Store the curve's ``times`` and its values ``name`` as float arrays, and
    refuse unequal lengths, values not all finite or times not strictly ascending."""
    times = np.asarray(curve.times, dtype=float)
    values = np.asarray(getattr(curve, name), dtype=float)
    object.__setattr__(curve, "times", times)
    object.__setattr__(curve, name, values)
    if len(times) != len(values):
        raise ValueError(f"times and {name} lengths differ")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise ValueError(f"times and {name} must be finite")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly ascending")


@dataclass(frozen=True, eq=False)
class ContrastCurve:
    """Contrast versus hold time (window centers or sample times)."""

    times: np.ndarray = field(repr=False)
    contrast: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_curve(self, "contrast")
        if np.any(self.contrast < -1e-9) or np.any(self.contrast > 1 + 1e-9):
            raise ValueError("contrast must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class FringeCurve:
    """P_D versus hold time, and an ensemble's phase-scan contrast (None from data)."""

    times: np.ndarray = field(repr=False)
    p_d: np.ndarray = field(repr=False)
    phase_contrast: ContrastCurve | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        _check_curve(self, "p_d")
        scan = self.phase_contrast
        if scan is not None and not np.array_equal(scan.times, self.times):
            raise ValueError("phase_contrast must have the fringe's times")


@dataclass(frozen=True)
class CoherenceResult:
    """Coherence-time estimates from a contrast curve.

    ``crossing_us`` is the first 1/e crossing (linear interpolation between
    window centers), or None if the curve never crosses 1/e from above.
    ``fit_tau_us``/``fit_amplitude`` are the least-squares parameters of
    A exp(-t/tau) over the whole curve (the secondary estimator).
    """

    crossing_us: float | None
    fit_tau_us: float
    fit_amplitude: float


# --------------------------------------------------------------------------
# Pulse operators


def ideal_pulse_operator(kind: ObjectiveKind | str, frame: np.ndarray):
    """Exact S/D-subspace rotation of ``kind`` (an ObjectiveKind or its value),
    identity elsewhere: 1 + F (R - 1) F^dagger with F the S/D frame and R the
    kind's 2x2 block.  ``perfbench/tracing.py`` wraps both builders by name:
    keep the names, or traced runs fail."""
    rot = ROTATION_BLOCKS[ObjectiveKind(kind)] - np.identity(2)
    def apply(cols, adjoint=False):
        return cols + frame @ ((rot.T if adjoint else rot) @ (frame.conj().T @ cols))
    return apply, apply(frame)


def locked_sequence_operator(
    pulses: SequencePulses,
    kind: ObjectiveKind | str,
    q: np.ndarray,
    spec: LatticeSpec,
    basis: PlaneWaveBasis,
    frame: np.ndarray,
):
    """The sequence R of ``kind`` (pi2 or pi, as for the ideal pulse), which
    evolves F once, dressed as Z_b R Z_a, adjoint Z_(-a) R^dagger Z_(-b), with
    Z_theta = 1 + (e^(i theta) - 1)|D><D|; its image is Z_b [R S, e^(ia) R D].
    Phase-locked, (a, b) maximize the fidelity of F^dagger R F against the
    kind's target; unlocked, it builds the zero lock (a, b) = (0, 0)."""
    kind = ObjectiveKind(kind)
    seq = pulses.pi2 if kind is ObjectiveKind.HALF_PI else pulses.pi
    evolve = functools.partial(evolve_columns, seq=seq, q=q, spec=spec, basis=basis)
    r_frame = evolve(frame)
    a = b = 0.0
    if pulses.phase_locked:
        _, a, b = aligned_fidelity_block(frame.conj().T @ r_frame, ROTATION_BLOCKS[kind])
    d = frame[:, 1]

    def dress(cols, theta):  # Z_theta applied to cols
        return cols + np.outer(d, (np.exp(1j * theta) - 1.0) * (d.conj() @ cols))

    def apply(cols, adjoint=False):
        if adjoint:
            return dress(evolve(dress(cols, -b), adjoint=True), -a)
        return dress(evolve(dress(cols, a)), b)

    return apply, dress(r_frame * np.array([1.0, np.exp(1j * a)]), b)


def _pulse(
    pulses: PulseModel,
    kind: ObjectiveKind,
    q: np.ndarray,
    spec: LatticeSpec,
    basis: PlaneWaveBasis,
    frame: np.ndarray,
):
    """The model's pulse of the given kind at q, built in the S/D frame
    ``frame`` F, as the pair ``(apply, image)``: ``apply(cols, adjoint=False)``
    applies the pulse or its adjoint to (n, k) columns, and ``image`` is the
    pulse's image of F, an (n, 2) array."""
    if isinstance(pulses, IdealPulses):
        return ideal_pulse_operator(kind, frame)
    return locked_sequence_operator(pulses, kind, q, spec, basis, frame)


def _fringe_kernel(
    kind: FringeKind,
    pulses: PulseModel,
    times: np.ndarray,
    q: np.ndarray,
    spec: LatticeSpec,
    basis: PlaneWaveBasis,
    n_echo: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-quasi-momentum fringe and phase-scan rows over times.

    Returns the tuple ``(p_d, num, den)``: the D-band population P_D, and the
    pair from which the analysis-phase-scan contrast at this q is 2|num|/den.
    P_D is the scan's zero-phase point, den + 2 Re(num).  Ramsey is the
    sequence with n = 0 pi pulses and echo has n = ``n_echo``: one phase
    table over the first hold (t, or t/2n), then per pi pulse the pulse and
    the next hold.  Pulses act only on the columns read: R^dagger D, and for
    n > 0 R V.  R F is the pi/2's image of the frame from :func:`_pulse`.
    """
    w = angular_frequency_per_Er(spec)
    energies, states = band_eig(q, spec, basis)
    bras = states.conj().T
    frame = sd_frame(q, spec, basis)
    d = frame[:, 1]
    pi2, r_frame = _pulse(pulses, ObjectiveKind.HALF_PI, q, spec, basis, frame)
    r_adj_d = pi2(frame[:, 1:], adjoint=True)
    psi1 = bras @ r_frame[:, 0]
    wvec = (bras @ r_adj_d[:, 0]).conj()

    n = n_echo if kind is FringeKind.ECHO else 0
    ph = np.exp(-1j * np.outer(energies, w * (times / (2.0 * n) if n else times)))
    chi = ph * psi1[:, None]
    if n:
        pi, _ = _pulse(pulses, ObjectiveKind.PI, q, spec, basis, frame)
        phi = bras @ pi(states)
        ph_2tau = ph * ph
    for j in range(1, n + 1):  # a pi pulse, then a hold of 2t/2n or the last t/2n
        chi = phi @ chi
        chi = (ph_2tau if j < n else ph) * chi

    amp = wvec @ chi
    # b = <D|R|D> <D|chi>, the part of amp that the scanned phase turns.
    b = ((bras @ d).conj() @ chi) * complex(np.vdot(d, r_frame[:, 1]))
    num = np.conj(amp - b) * b
    den = np.abs(amp - b) ** 2 + np.abs(b) ** 2
    return np.abs(amp) ** 2, num, den


def _as_pulse_model(pulses, pi: PulseSequence | None = None) -> PulseModel:
    if isinstance(pulses, (IdealPulses, SequencePulses)):
        if pi is not None:
            raise ValueError("a pulse model carries its own pi pulse; pass seq_pi=None")
        return pulses
    if isinstance(pulses, PulseSequence):
        return SequencePulses(pi2=pulses, pi=pi)
    raise TypeError("pulses must be a PulseModel or a PulseSequence")


def _check_run(
    kind: FringeKind, model: PulseModel, times: np.ndarray, n_echo: int
) -> None:
    """Refuse a fringe's run-level arguments before any q is solved: hold
    times not 1-D, more than MAX_HOLD_TIMES, not all in [0, MAX_STEP_US] (NaN
    included) or not strictly ascending, and for echo an ``n_echo`` that is
    not an integer in 1 ... MAX_COUNT or a pulse model without a pi pulse."""
    if np.ndim(times) != 1:
        raise ValueError(f"hold times must be a 1-D array, got shape {np.shape(times)}")
    require_within("hold-time count", len(times), 0, MAX_HOLD_TIMES)
    if not np.all((times >= 0.0) & (times <= MAX_STEP_US)):
        raise ValueError(f"hold times must lie in [0, {MAX_STEP_US:g}] us")
    if np.any(np.diff(times) <= 0):
        raise ValueError("hold times must be strictly ascending")
    if kind is FringeKind.ECHO:
        require_within("n_echo", n_echo, 1, MAX_COUNT, integer=True)
        if isinstance(model, SequencePulses) and model.pi is None:
            raise ValueError("echo requires a pi sequence")


def _single_q_pd(kind, model, t_hold, q, spec, basis, n_echo) -> float:
    times = np.array([t_hold], dtype=float)
    _check_run(kind, model, times, n_echo)
    basis.check_reach(math.hypot(*q), "q")  # hypot: no overflow
    return float(_fringe_kernel(kind, model, times, q, spec, basis, n_echo)[0][0])


def ramsey_pd(
    seq_pi2,
    t_hold: float,
    q: np.ndarray,
    spec: LatticeSpec,
    basis: PlaneWaveBasis,
) -> float:
    """D-band population after pi/2 - hold(t) - pi/2 at one quasi-momentum."""
    model = _as_pulse_model(seq_pi2)
    return _single_q_pd(FringeKind.RAMSEY, model, t_hold, q, spec, basis, 0)


def echo_pd(
    seq_pi2,
    seq_pi,
    n_echo: int,
    t_hold: float,
    q: np.ndarray,
    spec: LatticeSpec,
    basis: PlaneWaveBasis,
) -> float:
    """D-band population after the n-echo sequence at one quasi-momentum;
    ``seq_pi`` goes with a bare ``seq_pi2`` sequence, not a pulse model."""
    model = _as_pulse_model(seq_pi2, seq_pi)
    return _single_q_pd(FringeKind.ECHO, model, t_hold, q, spec, basis, n_echo)


# --------------------------------------------------------------------------
# Ensembles


def check_reach(ens: EnsembleSpec, basis: PlaneWaveBasis) -> None:
    """Refuse an ensemble whose farthest node, sigma_q times the last of
    :func:`_unit_axes`, lies beyond the basis's largest |G|.  The product is a
    Python float, so a huge sigma_q reads inf, with no overflow warning."""
    ux, uy = _unit_axes(ens, basis.geometry)
    basis.check_reach(float(ens.sigma_q) * math.hypot(ux[-1], uy[-1]),
                      "the ensemble's farthest quadrature node")


def _unit_axes(ens: EnsembleSpec, geometry: Geometry):
    """Per-axis nodes (u_x, u_y) in units of sigma_q, ``quadrature`` points
    from -3 to 3: one half mirrored, so the centre is exactly 0 and
    u[k] == -u[-1-k] to the bit.  An axis is the one point 0 for sigma_q = 0,
    and so is y for the 1D geometry."""
    half = np.linspace(0.0, 3.0, ens.quadrature // 2 + 1 if ens.sigma_q > 0 else 1)
    u = np.concatenate((-half[:0:-1], half))
    return u, np.zeros(1) if geometry is Geometry.STANDING_WAVE_1D else u


def _quadrature_nodes(ens: EnsembleSpec, geometry: Geometry, times: np.ndarray) -> list:
    """The nodes in grid order, x outer and y inner, as (q, wx, wy): q =
    sigma_q (u_x, u_y) and per-axis weights exp(-(u sigma_q / sigma(t))^2 / 2),
    one value at a fixed width (exactly exp(-u^2 / 2)) or, under a width
    schedule, a row over the hold times.  A one-point axis weighs 1."""
    ux, uy = _unit_axes(ens, geometry)
    ratio = np.ones(1)
    if ens.width_schedule:
        ts, ss = (np.array(col, dtype=float) for col in zip(*ens.width_schedule))
        ratio = ens.sigma_q / np.interp(times, ts, ss)
    wx, wy = (np.exp(-0.5 * np.square(np.outer(u, ratio))) for u in (ux, uy))
    return [(ens.sigma_q * np.array([x, y]), a, b)
            for x, a in zip(ux, wx) for y, b in zip(uy, wy)]


def _ensemble_sums(
    kind: FringeKind,
    pulses,
    times: np.ndarray,
    ens: EnsembleSpec,
    spec: LatticeSpec,
    basis: PlaneWaveBasis,
    n_echo: int,
    threads: int,
) -> list[np.ndarray]:
    """Quadrature averages over the ensemble of the kernel's rows (p_d, num, den).

    Each q of :func:`_quadrature_nodes` weighs w = wx * wy.  Results are
    consumed as they arrive, in grid order for every thread count: w * rows
    and w go into running sums, divided by the weight total once at the end.
    So memory holds O(T) sums and the work of the q in flight, not of the
    grid, and the result is the same to the bit across thread counts.  The
    pool starts at most one thread per q and per CPU, whatever ``threads``.
    """
    require_within("threads", threads, 1, integer=True)
    pulses = _as_pulse_model(pulses)
    check_reach(ens, basis)
    _check_run(kind, pulses, times, n_echo)
    nodes = _quadrature_nodes(ens, spec.geometry, times)

    def work(node):
        return _fringe_kernel(kind, pulses, times, node[0], spec, basis, n_echo)

    def average(results):
        sums = None
        for (_, a, b), parts in zip(nodes, results):
            w = a * b
            terms = [w * part for part in parts] + [w]
            sums = terms if sums is None else [s + t for s, t in zip(sums, terms)]
        *weighted, total = sums
        return [s / total for s in weighted]

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(nodes), cpus or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return average(pool.map(work, nodes))
    return average(map(work, nodes))


def ensemble_fringe(
    kind: FringeKind | str,
    pulses,
    times: np.ndarray,
    ens: EnsembleSpec,
    spec: LatticeSpec,
    basis: PlaneWaveBasis,
    n_echo: int = 2,
    threads: int = 1,
) -> FringeCurve:
    """Quasi-momentum-ensemble-averaged fringe P_D(t) and its
    ``phase_contrast``, both from the rows of the one pass
    :func:`_ensemble_sums`, bit-stable across ``threads``.  Pulses are rebuilt
    at every grid point (the lattice pulses conserve quasi-momentum).  The
    phase contrast scans a phase phi on the D component just before the final
    pi/2: (max-min)/(max+min) of P_D over phi, 2|num|/den.  For ideal-pulse
    Ramsey it is the modulus of the ensemble-averaged fringe phasor; it stays
    meaningful when the fringe itself is constant (perfect echo)."""
    kind = FringeKind(kind)
    times = np.asarray(times, dtype=float)
    p_d, num, den = _ensemble_sums(kind, pulses, times, ens, spec, basis, n_echo, threads)
    contrast = np.where(den > 0, 2.0 * np.abs(num) / np.maximum(den, 1e-300), 0.0)
    return FringeCurve(times, p_d, ContrastCurve(times, np.clip(contrast, 0.0, 1.0)))


# --------------------------------------------------------------------------
# Contrast and coherence extraction


def contrast_curve(fringe: FringeCurve, period: float) -> ContrastCurve:
    """Per-period fringe contrast (max-min)/(max+min) in period windows.

    P_D must not dip below 0, where a window's contrast would exceed 1.  The
    hold times must span at least two periods, and their median step must
    give at least 8 samples per period."""
    t, p = fringe.times, fringe.p_d
    if np.any(p < 0):
        raise ValueError(f"P_D must be >= 0, got {p.min():g} at t = {t[np.argmin(p)]:g} us")
    require_within("period", period, 0, above=True)
    if len(t) < 2 or t[-1] - t[0] < 2.0 * period:
        raise ValueError("fringe must span at least two periods")
    dt = float(np.median(np.diff(t)))
    if period / dt < 8.0 - 1e-9:
        raise ValueError(
            f"dt = {dt:g} us undersamples the {period} us contrast window: "
            f"need dt <= window/8 = {period / 8.0:.3f} us"
        )
    centers, values = [], []
    t0 = t[0]
    while t0 + period <= t[-1] + 1e-9:
        m = (t >= t0 - 1e-12) & (t <= t0 + period + 1e-12)
        hi = float(np.max(p[m]))
        lo = float(np.min(p[m]))
        denom = hi + lo
        centers.append(t0 + period / 2.0)
        values.append((hi - lo) / denom if denom > 0 else 0.0)
        t0 += period
    return ContrastCurve(times=np.array(centers), contrast=np.array(values))


def coherence_time(curve: ContrastCurve) -> CoherenceResult:
    """1/e crossing (primary) and exponential-fit tau (secondary).

    The crossing is the first time the contrast falls through 1/e, linearly
    interpolated between curve samples; None when the curve never crosses
    from above.  The fit is least-squares A exp(-t/tau) over the full curve
    (:func:`_fit_decay`), started from a log-linear regression on the samples
    above 1e-12 (on all samples if fewer than two are), and reports that
    regression when it finds no minimum; a non-decaying curve reports tau = inf.
    """
    t, c = curve.times, curve.contrast
    if len(t) < 3:
        raise ValueError("need at least 3 contrast samples")

    crossing = None
    if c[0] > ONE_OVER_E:
        below = np.where(c < ONE_OVER_E)[0]
        if len(below) > 0:
            i = int(below[0])
            frac = (c[i - 1] - ONE_OVER_E) / (c[i - 1] - c[i])
            crossing = float(t[i - 1] + frac * (t[i] - t[i - 1]))

    # Seed from the samples above the clip floor, where at least two are:
    # a zero sample would enter the regression as log(1e-12) = -27.6.
    keep = c > 1e-12 if np.count_nonzero(c > 1e-12) >= 2 else np.ones(len(c), bool)
    slope, intercept = np.polyfit(t[keep], np.log(np.clip(c[keep], 1e-12, None)), 1)
    if slope >= -1e-15:
        return CoherenceResult(
            crossing_us=crossing,
            fit_tau_us=math.inf,
            fit_amplitude=float(np.mean(c)),
        )
    # exp(1) > 2, so clamping the exponent first changes no start but keeps
    # an intercept past ~709 from overflowing.
    seed = (float(min(np.exp(min(intercept, 1.0)), 2.0)), float(-1.0 / slope))
    amp, tau = _fit_decay(t, c, seed[1]) or seed
    return CoherenceResult(crossing_us=crossing, fit_tau_us=tau, fit_amplitude=amp)


def _fit_decay(t: np.ndarray, c: np.ndarray, tau: float) -> tuple[float, float] | None:
    """Least-squares (A, tau) of A exp(-t/tau) to c, from the start ``tau``.

    At a rate u = 1/tau the best A is (c.e)/(e.e), e = exp(-u t), and the
    squared residual falls with u while h(u) = (c.te)(e.e) - (c.e)(e.te) < 0
    and rises while h > 0 (variable projection; c >= 0).  Times count from
    t[0], which scales h by a positive factor.  u doubles or halves downhill
    until h changes sign, then :func:`bisect_root` solves h = 0 to 1e-13
    relative.  A residual that still falls after 60 halvings falls to u = 0:
    tau = inf, A = mean(c).  Returns None after 60 doublings, or if A
    overflows.
    """
    s = t - t[0]

    def h(u: float) -> float:
        e = np.exp(-u * s)
        return float((c @ (s * e)) * (e @ e) - (c @ e) * (e @ (s * e)))

    u = 1.0 / tau
    rising = h(u) > 0
    factor = 0.5 if rising else 2.0
    for _ in range(60):
        v = u * factor
        if (h(v) > 0) != rising:
            u = bisect_root(h, min(u, v), max(u, v), 1e-13 * min(u, v))
            e = np.exp(-u * s)
            try:  # A overflows when the decay ends long before t[0]
                return float(c @ e / (e @ e)) * math.exp(u * t[0]), 1.0 / u
            except OverflowError:
                return None
        u = v
    return (float(np.mean(c)), math.inf) if rising else None
