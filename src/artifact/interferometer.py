"""Ramsey and echo-Ramsey interferometry over quasi-momentum ensembles.

Sequences (time order, left to right):

* Ramsey:  pi/2 pulse, lattice-on hold for t, pi/2 pulse, measure the D-band
  population P_D.
* Echo:    pi/2, then n repetitions of [hold t/2n, pi pulse, hold t/2n],
  then pi/2; the pi pulses rephase quasi-momentum-dependent phase
  accumulation.

The hold evolution uses the full multi-band lattice-on propagator.  Each
pulse is built once per quasi-momentum in the S/D frame F = [S D] of
:func:`artifact.dynamics.sd_frame` and applied only to the columns the fringe
reads (:func:`_pulse`): an ideal rotation 1 + F (R - 1) F^dagger, R the 2x2
target block, or a shortcut pulse sequence R.  Sequences are phase-locked by
default, as Z_b R Z_a with Z_theta = 1 + (e^(i theta) - 1)|D><D| and (a, b)
the per-band reference phases of the aligned fidelity frame
(:func:`artifact.shortcut.aligned_fidelity_block`), solved once from
F^dagger R F.  That makes independently designed pulses compose
consistently; without it the inter-pulse phases are an artifact of the
eigensolver's phase convention rather than of the pulse design.

Dephasing arises from averaging fringes over a Gaussian quasi-momentum
distribution: the S-D gap varies with q, so ensemble fringes decay.  Two
contrast observables are provided: the per-period windowed contrast
(max-min)/(max+min) of the P_D fringe, and the analysis-phase-scan contrast
(the fringe amplitude obtained by scanning a phase on the D component before
the final pi/2), which remains meaningful when the composite produces a
constant P_D (e.g. a perfect echo).
"""

from __future__ import annotations

import enum
import functools
import math
import os
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
    require_finite,
)
from .shortcut import MAX_COUNT, ROTATION_BLOCKS, ObjectiveKind, aligned_fidelity_block

ONE_OVER_E = 1.0 / math.e
#: The largest :class:`EnsembleSpec` quadrature: an ensemble holds quadrature^2
#: q-points, and 401 is the largest grid whose convergence was measured.
MAX_QUADRATURE = 401


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
    pulses compose.  Disable to use raw operators under the deterministic
    eigenvector phase convention.
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
        require_finite(self, "sigma_q", "width_schedule")
        if self.sigma_q < 0:
            raise ValueError("sigma_q must be >= 0")
        if self.quadrature < 1:
            raise ValueError(f"quadrature must be >= 1, got {self.quadrature}")
        if self.quadrature > MAX_QUADRATURE:
            raise ValueError(f"quadrature must be at most {MAX_QUADRATURE}, "
                             f"got {self.quadrature}")
        if self.quadrature % 2 == 0:
            raise ValueError("quadrature must be odd so q = 0 is a node")
        if self.sigma_q > 0 and self.quadrature < 5:
            raise ValueError("quadrature grid < 5 per axis is too coarse")
        if self.width_schedule:
            ts = [p[0] for p in self.width_schedule]
            if sorted(ts) != ts:
                raise ValueError("width_schedule times must ascend")
            if any(p[1] <= 0 for p in self.width_schedule):
                raise ValueError("width_schedule widths must be > 0")

    @classmethod
    def from_width(
        cls,
        delta_q: float,
        reading: str = "fwhm",
        quadrature: int = 21,
    ) -> "EnsembleSpec":
        """Build a Gaussian ensemble from a measured distribution width.

        ``reading="fwhm"`` (default) takes delta_q as the full width at half
        maximum, sigma = delta_q / (2 sqrt(2 ln 2)); ``"two_sigma"`` takes
        delta_q = 2 sigma.
        """
        if reading == "fwhm":
            sigma = delta_q / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        elif reading == "two_sigma":
            sigma = delta_q / 2.0
        else:
            raise ValueError("reading must be 'fwhm' or 'two_sigma'")
        return cls(sigma_q=sigma, quadrature=quadrature)


@dataclass(frozen=True)
class FringeCurve:
    """P_D versus hold time."""

    times: np.ndarray = field(repr=False, compare=False)
    p_d: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.times) != len(self.p_d):
            raise ValueError("times and p_d lengths differ")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.p_d))):
            raise ValueError("times and p_d must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly ascending")


@dataclass(frozen=True)
class ContrastCurve:
    """Contrast versus hold time (window centers or sample times)."""

    times: np.ndarray = field(repr=False, compare=False)
    contrast: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.times) != len(self.contrast):
            raise ValueError("times and contrast lengths differ")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.contrast))):
            raise ValueError("times and contrast must be finite")
        if np.any(self.contrast < -1e-9) or np.any(self.contrast > 1 + 1e-9):
            raise ValueError("contrast must lie in [0, 1]")


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


def ideal_pulse_operator(
    kind: str, q: np.ndarray, spec: LatticeSpec, basis: PlaneWaveBasis
) -> np.ndarray:
    """Exact S/D-subspace rotation ("pi2" or "pi"), identity elsewhere:
    1 + F (R - 1) F^dagger with F the S/D frame and R the kind's 2x2 block."""
    frame = sd_frame(q, spec, basis)
    apply, _ = _pulse(IdealPulses(), ObjectiveKind(kind), q, spec, basis, frame)
    return apply(np.eye(len(frame)))


def locked_sequence_operator(
    seq: PulseSequence,
    kind: ObjectiveKind,
    q: np.ndarray,
    spec: LatticeSpec,
    basis: PlaneWaveBasis,
) -> np.ndarray:
    """Sequence operator R dressed as Z_b R Z_a, with
    Z_theta = 1 + (e^(i theta) - 1)|D><D| and the per-band phases (a, b)
    that maximize the fidelity of R's S/D block against the kind's target."""
    frame = sd_frame(q, spec, basis)
    apply, _ = _pulse(SequencePulses(seq, seq), kind, q, spec, basis, frame)
    return apply(np.eye(len(frame)))


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
    applies the pulse or its adjoint to (n, k) columns, and ``image()`` returns
    the pulse's image of F, on demand (the echo's pi pulse never needs it).
    A locked sequence solves (a, b) once, from F^dagger R F, applies
    Z_b R Z_a, or Z_(-a) R^dagger Z_(-b), and takes its image
    Z_b [R S, e^(ia) R D] from the R F of that solve."""
    if isinstance(pulses, IdealPulses):
        rot = ROTATION_BLOCKS[kind] - np.identity(2)
        def ideal(cols, adjoint=False):
            return cols + frame @ ((rot.T if adjoint else rot) @ (frame.conj().T @ cols))
        return ideal, lambda: ideal(frame)
    seq = pulses.pi2 if kind is ObjectiveKind.HALF_PI else pulses.pi
    evolve = functools.partial(evolve_columns, seq=seq, q=q, spec=spec, basis=basis)
    if not pulses.phase_locked:
        return evolve, lambda: evolve(frame)
    r_frame = evolve(frame)
    _, a, b = aligned_fidelity_block(frame.conj().T @ r_frame, ROTATION_BLOCKS[kind])
    d = frame[:, 1]

    def dress(cols, theta):  # Z_theta applied to cols
        return cols + np.outer(d, (np.exp(1j * theta) - 1.0) * (d.conj() @ cols))

    def locked(cols, adjoint=False):
        if adjoint:
            return dress(evolve(dress(cols, -b), adjoint=True), -a)
        return dress(evolve(dress(cols, a)), b)

    return locked, lambda: dress(r_frame * np.array([1.0, np.exp(1j * a)]), b)


def _fringe_kernel(
    kind: FringeKind,
    pulses: PulseModel,
    times: np.ndarray,
    q: np.ndarray,
    spec: LatticeSpec,
    basis: PlaneWaveBasis,
    n_echo: int,
    phase_scan: bool = False,
) -> tuple[np.ndarray, ...]:
    """Per-quasi-momentum fringe or phase-scan components over times.

    Returns ``(p_d,)``, the D-band population, or with ``phase_scan``
    ``(num, den)``, from which the analysis-phase-scan contrast at this q is
    2|num|/den.  Only the requested components are computed, and pulses
    act only on the columns read: R^dagger D, and for echo R V.  R F is the
    pi/2's image of the frame from :func:`_pulse`.
    """
    w = angular_frequency_per_Er(spec)
    energies, states = band_eig(q, spec, basis)
    frame = sd_frame(q, spec, basis)
    d = frame[:, 1]
    pi2, pi2_image = _pulse(pulses, ObjectiveKind.HALF_PI, q, spec, basis, frame)
    r_frame = pi2_image()
    r_adj_d = pi2(frame[:, 1:], adjoint=True)
    psi1 = states.conj().T @ r_frame[:, 0]
    wvec = (states.conj().T @ r_adj_d[:, 0]).conj()

    if kind is FringeKind.RAMSEY:
        chi = np.exp(-1j * np.outer(energies, w * times)) * psi1[:, None]
    else:
        tau = times / (2.0 * n_echo)
        ph_tau = np.exp(-1j * np.outer(energies, w * tau))
        ph_2tau = ph_tau * ph_tau
        pi, _ = _pulse(pulses, ObjectiveKind.PI, q, spec, basis, frame)
        phi = states.conj().T @ pi(states)
        chi = ph_tau * psi1[:, None]
        for j in range(1, n_echo + 1):
            chi = phi @ chi
            if j < n_echo:
                chi = ph_2tau * chi
        chi = ph_tau * chi

    amp = wvec @ chi
    if not phase_scan:
        return (np.abs(amp) ** 2,)
    rdd = complex(np.vdot(d, r_frame[:, 1]))
    d_band = states.conj().T @ d  # D state in the band basis
    b = (d_band.conj() @ chi) * rdd
    num = np.conj(amp - b) * b
    den = np.abs(amp - b) ** 2 + np.abs(b) ** 2
    return num, den


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
    """Refuse a fringe's run-level arguments before any q is solved: a hold
    time outside [0, MAX_STEP_US] (NaN included), and for echo an ``n_echo``
    outside 1 ... MAX_COUNT or a pulse model without a pi pulse."""
    if not np.all((times >= 0.0) & (times <= MAX_STEP_US)):
        raise ValueError(f"hold times must lie in [0, {MAX_STEP_US:g}] us")
    if kind is FringeKind.ECHO:
        if not 1 <= n_echo <= MAX_COUNT:
            raise ValueError(f"n_echo must lie in 1 ... {MAX_COUNT}, got {n_echo}")
        if isinstance(model, SequencePulses) and model.pi is None:
            raise ValueError("echo requires a pi sequence")


def _single_q_pd(kind, model, t_hold, q, spec, basis, n_echo) -> float:
    times = np.array([t_hold], dtype=float)
    _check_run(kind, model, times, n_echo)
    (p,) = _fringe_kernel(kind, model, times, q, spec, basis, n_echo)
    return float(p[0])


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


def _grid_axes(ens: EnsembleSpec, geometry: Geometry):
    """Per-axis quadrature positions (x, y); y is [0] for 1D geometry."""
    if ens.sigma_q == 0:
        return np.array([0.0]), np.array([0.0])
    x = np.linspace(-3.0 * ens.sigma_q, 3.0 * ens.sigma_q, ens.quadrature)
    if geometry is Geometry.STANDING_WAVE_1D:
        return x, np.array([0.0])
    return x, x


def _axis_weights(axis: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Unnormalized Gaussian weights along one grid axis, one row per node and
    one column per width; a one-point axis (the single point q = 0, or the y
    axis of the 1D geometry) weighs 1."""
    if len(axis) == 1:
        return np.ones((1, len(sigmas)))
    return np.exp(-(axis[:, None] ** 2) / (2.0 * sigmas**2))


def _ensemble_sums(
    kind: FringeKind,
    pulses,
    times: np.ndarray,
    ens: EnsembleSpec,
    spec: LatticeSpec,
    basis: PlaneWaveBasis,
    n_echo: int,
    threads: int,
    phase_scan: bool,
) -> list[np.ndarray]:
    """Quadrature averages of the per-q kernel components over the ensemble.

    Each q weighs wx * wy from per-axis tables: one value, or under a width
    schedule a row over the hold times.  Results are consumed as they arrive,
    in grid order for every thread count: w * components and w itself go into
    running sums, and the sums are divided by the weight total once at the
    end.  So memory holds O(T) sums and the work of the q in flight, not of
    the grid, and the result is the same to the bit across thread counts.
    The pool starts at most one thread per q and per CPU, whatever ``threads``.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    pulses = _as_pulse_model(pulses)
    _check_run(kind, pulses, times, n_echo)
    xs, ys = _grid_axes(ens, spec.geometry)
    qs = [np.array([qx, qy]) for qx in xs for qy in ys]
    sigmas = np.array([ens.sigma_q])
    if ens.width_schedule:
        ts, ss = (np.array(col, dtype=float) for col in zip(*ens.width_schedule))
        sigmas = np.interp(times, ts, ss)
    wx, wy = _axis_weights(xs, sigmas), _axis_weights(ys, sigmas)

    def work(q):
        return _fringe_kernel(kind, pulses, times, q, spec, basis, n_echo, phase_scan)

    def average(results):
        sums = None
        for w, parts in zip((a * b for a in wx for b in wy), results):
            terms = [w * part for part in parts] + [w]
            sums = terms if sums is None else [s + t for s, t in zip(sums, terms)]
        *weighted, total = sums
        return [s / total for s in weighted]

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(qs), cpus or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return average(pool.map(work, qs))
    return average(map(work, qs))


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
    """Quasi-momentum-ensemble-averaged fringe P_D(t).

    Pulse operators are recomputed at every grid point (quasi-momentum is
    conserved by the lattice pulses).  The quadrature sum is streamed: each
    q's weighted P_D is added as it arrives, in fixed grid order regardless
    of ``threads``, so results are bit-stable across thread counts and
    memory does not grow with the grid.
    """
    kind = FringeKind(kind)
    times = np.asarray(times, dtype=float)
    (avg,) = _ensemble_sums(
        kind, pulses, times, ens, spec, basis, n_echo, threads, phase_scan=False
    )
    return FringeCurve(times=times, p_d=avg)


def phase_scan_contrast(
    kind: FringeKind | str,
    pulses,
    times: np.ndarray,
    ens: EnsembleSpec,
    spec: LatticeSpec,
    basis: PlaneWaveBasis,
    n_echo: int = 2,
    threads: int = 1,
) -> ContrastCurve:
    """Ensemble contrast from scanning the analysis phase before the last pi/2.

    At each hold time the D-band component acquires a scanned phase phi just
    before the final pi/2; the contrast is (max-min)/(max+min) of P_D over
    phi, evaluated analytically.  For an ideal-pulse Ramsey this equals the
    modulus of the ensemble-averaged fringe phasor; it remains meaningful
    when the fringe itself is constant (perfect echo).
    """
    kind = FringeKind(kind)
    times = np.asarray(times, dtype=float)
    num, bottom = _ensemble_sums(
        kind, pulses, times, ens, spec, basis, n_echo, threads, phase_scan=True
    )
    top = 2.0 * np.abs(num)
    contrast = np.where(bottom > 0, top / np.maximum(bottom, 1e-300), 0.0)
    return ContrastCurve(times=times, contrast=np.clip(contrast, 0.0, 1.0))


# --------------------------------------------------------------------------
# Contrast and coherence extraction


def check_sampling(dt: float, window: float) -> None:
    """Require at least 8 hold-time samples per contrast window."""
    if window / dt < 8.0 - 1e-9:
        raise ValueError(
            f"dt = {dt} us undersamples the {window} us contrast window: "
            f"need dt <= window/8 = {window / 8.0:.3f} us"
        )


def check_span(times: np.ndarray, window: float) -> None:
    """Require the hold times to span at least two contrast windows."""
    if times[-1] - times[0] < 2.0 * window:
        raise ValueError("fringe must span at least two periods")


def contrast_curve(fringe: FringeCurve, period: float) -> ContrastCurve:
    """Per-period fringe contrast (max-min)/(max+min) in period windows."""
    t = fringe.times
    p = fringe.p_d
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period must be positive and finite, got {period}")
    check_span(t, period)
    check_sampling(float(np.median(np.diff(t))), period)
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
    t = np.asarray(curve.times, dtype=float)
    c = np.asarray(curve.contrast, dtype=float)
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
    seed = (float(min(np.exp(intercept), 2.0)), float(-1.0 / slope))
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
