"""Pulse-design objectives, rotation fidelity, and the sequence optimizer.

A shortcut pulse sequence implements a target rotation between the S and D
Bloch bands (or loads the S band from a free plane wave).  Its quality is the
coherent-overlap fidelity

    eta = |sum_pairs <psi_final | psi_target>| / (number of pairs),

evaluated after propagating each initial state through the sequence.  Band
eigenvectors are only defined up to a phase each, so the two reference
phases (one for S, one for D) are fixed by the *aligned frame*: the fidelity
is maximized over the two per-band phases, which makes the reported value
invariant under any eigensolver phase convention while keeping the sum
coherent (two phases cannot align the four overlap terms of a half-pi
rotation independently).  The aligned phases are also what makes separately
designed pulses compose consistently in interferometer sequences (see
:func:`artifact.interferometer._pulse`).

Optimization is projected gradient ascent: central finite-difference
gradients, Armijo backtracking line search (guaranteeing a monotone fidelity
trace), projection onto a box (non-negative durations, per-step depths either
frozen or bounded for variable-amplitude design), and seeded multi-start.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    MAX_STEP_US,
    BandSet,
    PulseSequence,
    default_band_pair,
    evolve_columns,
)
from .lattice import MAX_DEPTH_ER, LatticeSpec, PlaneWaveBasis, require_within

#: Phases b on which :func:`aligned_fidelity_block` brackets its maximum.
_PHASE_GRID = np.linspace(-math.pi, math.pi, 720, endpoint=False)
#: e^(ib) on that grid, built once rather than on every call.
_GRID_PHASORS = np.exp(1j * _PHASE_GRID)
#: Newton steps that refine the grid's best b; from one grid spacing,
#: quadratic convergence reaches rounding in about four.
_NEWTON_STEPS = 8
#: :func:`_ascend`'s central-difference step (us or E_r) and first line-search
#: rate; it goes on while the fidelity rises by ``_CONVERGENCE_TOL`` or more
#: over ``_CONVERGENCE_WINDOW`` iterations.
_FD_STEP = 0.01
_LEARNING_RATE = 50.0
_CONVERGENCE_WINDOW = 10
_CONVERGENCE_TOL = 1e-6
#: The largest :class:`OptimizerOptions` ``max_iters`` or ``restarts``, and of
#: each count the CLI takes: a larger one would exhaust memory or time.
MAX_COUNT = 10**6


class ObjectiveKind(enum.Enum):
    HALF_PI = "pi2"
    PI = "pi"
    LOAD = "load"


#: 2x2 rotation blocks in the (S, D) ordered band frame; column j is the
#: image of basis state j.
ROTATION_BLOCKS = {
    ObjectiveKind.HALF_PI: np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0),
    ObjectiveKind.PI: np.array([[0.0, -1.0], [1.0, 0.0]]),
}


@dataclass(frozen=True, eq=False)
class PulseObjective:
    """A pulse-design goal at the q of ``bands``, the band solutions every
    evaluation reads, in their S/D frame F = ``bands.frame``; the targets are
    F times the kind's :data:`ROTATION_BLOCKS`, or for loading F's S column.

    half-pi: (S -> (S+D)/sqrt2) and (D -> (D-S)/sqrt2).
    pi:      (S -> D) and (D -> -S).
    load:    zero-momentum plane wave -> S (single pair, phase-free).
    """

    kind: ObjectiveKind  # or its value; an unknown one is refused
    bands: BandSet = field(repr=False)
    #: initial states as columns (n_basis, pairs): F, or load's plane wave.
    initial: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ObjectiveKind(self.kind))
        self.bands.basis.check_reach(math.hypot(*self.bands.q), "q")  # before a solve
        initial = self.bands.frame
        if self.kind is ObjectiveKind.LOAD:
            initial = np.zeros((self.bands.basis.size, 1), dtype=complex)
            initial[self.bands.basis.index[(0, 0)]] = 1.0
        object.__setattr__(self, "initial", initial)


def build_objective(kind: ObjectiveKind, spec: LatticeSpec,
                    basis: PlaneWaveBasis) -> PulseObjective:
    """Construct the standard objective of the given kind at q = 0."""
    return PulseObjective(kind, BandSet(np.zeros(2), spec, basis))


# --------------------------------------------------------------------------
# Fidelity


def aligned_fidelity_block(
    block: np.ndarray, target_block: np.ndarray
) -> tuple[float, float, float]:
    """Fidelity of a 2x2 band-frame block against a target rotation,
    maximized over the two per-band reference phases.

    Maximizes |tr(target^dagger Z_b block Z_a)| / 2 over diagonal gauges
    Z_theta = diag(1, e^(i theta)).  The maximum over ``a`` is analytic
    (align the two diagonal contributions), leaving the smooth 1-D problem
    max_b |c0(b)| + |c1(b)| with c_j = alpha_j + beta_j e^(ib).  The best
    point of a :data:`_PHASE_GRID` scan is refined by Newton steps on the
    analytic derivative, so b is solved to rounding and moves with the block
    only as much as the maximizer itself does.

    Returns (fidelity, a, b) with the maximizing phases.
    """
    m, rt = block, target_block
    alpha, beta = np.conj(rt[0]) * m[0], np.conj(rt[1]) * m[1]
    if (rt[0, 0] == 0 and rt[1, 1] == 0) or (rt[0, 1] == 0 and rt[1, 0] == 0):
        # Anti-diagonal (a pi rotation) or diagonal target: |c0| and |c1|
        # are constant in b, so the maximization is degenerate along one
        # gauge direction.  Pick the canonical point that makes the overlap
        # of the column whose target has a D component real positive (c0
        # for anti-diagonal, c1 for diagonal); a then aligns the other.
        b = float(-np.angle(beta[0 if rt[1, 0] != 0 else 1]))
    else:
        score = np.abs(alpha[:, None] + np.outer(beta, _GRID_PHASORS))
        b = b0 = float(_PHASE_GRID[np.argmax(score.sum(axis=0))])
        spacing = 2.0 * math.pi / len(_PHASE_GRID)
        # With u_j = beta_j e^(ib) = -i dc_j/db: |c|' = -Im(c* u)/|c| and
        # |c|'' = (|u|^2 - Re(c* u))/|c| - |c|'^2/|c|.
        coef = list(zip(alpha.tolist(), beta.tolist()))
        for _ in range(_NEWTON_STEPS):
            eb, d1, d2 = cmath.exp(1j * b), 0.0, 0.0
            for al, be in coef:
                u = be * eb
                c = al + u
                r = abs(c)
                if r > 0:
                    p = c.conjugate() * u
                    d1 -= p.imag / r
                    d2 += (abs(u) ** 2 - p.real - (p.imag / r) ** 2) / r
            if not d2 < 0:
                break
            b = min(max(b - d1 / d2, b0 - spacing), b0 + spacing)
    c0, c1 = alpha + beta * np.exp(1j * b)
    return float(abs(c0) + abs(c1)) / 2.0, float(np.angle(c0) - np.angle(c1)), b


def fidelity(seq: PulseSequence, obj: PulseObjective) -> float:
    """Coherent-overlap fidelity of a sequence against an objective.

    The overlap sum is evaluated in the aligned band frame, which makes it
    invariant to eigenvector phase conventions.  The loading objective has a
    single pair, so its fidelity is a plain modulus.
    """
    final = evolve_columns(obj.initial, seq, obj.bands)
    if obj.kind is ObjectiveKind.LOAD:
        # A contiguous S column: np.vdot rounds a strided view differently.
        return float(abs(np.vdot(obj.bands.frame[:, 0].copy(), final[:, 0])))
    # For rotations the initial states are the band frame, so this is the
    # sequence operator's 2x2 S/D block in that frame.
    block = obj.bands.frame.conj().T @ final
    return aligned_fidelity_block(block, ROTATION_BLOCKS[obj.kind])[0]


def fidelity_report(seq: PulseSequence, obj: PulseObjective) -> dict:
    """Fidelity plus per-pair overlaps and band-leakage diagnostics.

    Overlaps are reported in the aligned frame.  Leakage is the final
    population outside the S/D pair: in the odd (P) bands between them and in
    all bands above the D band.
    """
    final = evolve_columns(obj.initial, seq, obj.bands)
    s_idx, d_idx = default_band_pair(obj.bands.spec.geometry)
    _, states = obj.bands.eig()
    pops = np.abs(states.conj().T @ final) ** 2  # (n_bands, pairs)

    if obj.kind is ObjectiveKind.LOAD:
        overlaps = [np.vdot(obj.bands.frame[:, 0].copy(), final[:, 0])]
        eta = abs(overlaps[0])
    else:
        block = obj.bands.frame.conj().T @ final  # as in :func:`fidelity`
        target = ROTATION_BLOCKS[obj.kind]
        eta, a, b = aligned_fidelity_block(block, target)
        gauge = np.exp(1j * np.add.outer([0.0, b], [0.0, a]))  # e^(i(b_k + a_j))
        overlaps = (target.conj() * block * gauge).sum(axis=0).tolist()
    mid = pops[s_idx : d_idx - 1, :].sum(axis=0)
    above = pops[d_idx:, :].sum(axis=0)
    return {
        "kind": obj.kind.value,
        "fidelity": float(eta),
        "pair_overlaps": [
            {"magnitude": float(abs(o)), "phase_rad": float(np.angle(o))}
            for o in overlaps
        ],
        "leakage_mid_bands": [float(x) for x in mid],
        "leakage_above_d": [float(x) for x in above],
    }


# --------------------------------------------------------------------------
# Optimizer


@dataclass(frozen=True)
class OptimizerOptions:
    """Projected-gradient-ascent settings (durations in us, depths in E_r)."""

    max_iters: int = 200
    grid_quantum: float = 0.1
    restarts: int = 10
    rng_seed: int = 0
    on_max: float = 30.0
    off_max: float = 40.0

    def __post_init__(self) -> None:
        require_within("grid_quantum", self.grid_quantum, 0)
        require_within("rng_seed", self.rng_seed, 0, integer=True)
        require_within("max_iters", self.max_iters, 1, MAX_COUNT, integer=True)
        require_within("restarts", self.restarts, 1, MAX_COUNT, integer=True)
        require_within("on_max", self.on_max, 0, MAX_STEP_US, unit=" us")
        require_within("off_max", self.off_max, 0, MAX_STEP_US, unit=" us")


@dataclass(frozen=True)
class OptimizeResult:
    """Best sequence found, its fidelity, and the winning restart's trace."""

    sequence: PulseSequence
    fidelity: float
    fidelity_pre_rounding: float
    trace: tuple
    restart: int


def _ascend(x0, evaluate, project, opts: OptimizerOptions):
    """Monotone projected gradient ascent from one start point, with central
    differences at ``project(x +- _FD_STEP e_k)``, one k at a time in O(len(x))
    memory; a parameter frozen by the box (zero projected step) gets none."""
    x = project(np.asarray(x0, dtype=float))
    f = evaluate(x)
    trace = [f]
    lr = _LEARNING_RATE
    for _ in range(opts.max_iters):
        grad = np.zeros(len(x))
        for k in range(len(x)):
            step = _FD_STEP * np.eye(1, len(x), k)[0]
            plus, minus = project(x + step), project(x - step)
            if plus[k] != minus[k]:
                grad[k] = (evaluate(plus) - evaluate(minus)) / (plus[k] - minus[k])
        gnorm = float(np.linalg.norm(grad))
        if gnorm >= 1e-14:
            lr_try = lr
            for _bt in range(30):
                xn = project(x + lr_try * grad)
                fn = evaluate(xn)
                if fn > f + 1e-4 * lr_try * gnorm**2:
                    x, f = xn, fn
                    lr = min(lr_try * 1.5, 1e4)
                    break
                lr_try *= 0.5
            else:
                lr = max(lr * 0.5, 1e-6)
        trace.append(f)
        w = _CONVERGENCE_WINDOW
        if len(trace) > w and trace[-1] - trace[-1 - w] < _CONVERGENCE_TOL:
            break
    return x, f, trace


def optimize(
    seed_seq: PulseSequence,
    obj: PulseObjective,
    opts: OptimizerOptions | None = None,
    depth_bounds: tuple[float, float] | None = None,
) -> OptimizeResult:
    """Optimize step durations and depths; multi-start, monotone trace.

    The parameters ``[t_on..., t_off..., depth...]`` are projected onto a box:
    durations in [0, MAX_STEP_US], depths in ``depth_bounds`` (which must be
    finite and contain the spec's depth).  ``depth_bounds=None`` freezes each depth at its
    seed value (lo == hi), so the seed depths come back unchanged, ``None`` included.

    Start 0 is the seed; further starts (up to ``opts.restarts`` total) draw
    durations from [0, ``opts.on_max``] and [0, ``opts.off_max``], and depths
    from a non-degenerate box, with a seeded RNG.  Results are rounded to the
    grid quantum and projected back; the best post-rounding fidelity wins.
    With one restart the pre-rounding fidelity is never below the seed's.
    """
    opts = opts or OptimizerOptions()
    k = len(seed_seq.steps)
    nominal = obj.bands.spec.depth
    seed_depths = [s.depth for s in seed_seq.steps]
    x_seed = np.concatenate(
        [seed_seq.durations, [nominal if d is None else d for d in seed_depths]]
    )
    if depth_bounds is None:
        lo = hi = x_seed[2 * k :]
    else:
        lo, hi = depth_bounds
        require_within("depth_bounds[0]", lo, 0, nominal, unit=" E_r")
        require_within("depth_bounds[1]", hi, nominal, MAX_DEPTH_ER, unit=" E_r")
    lower = np.concatenate([np.zeros(2 * k), np.broadcast_to(lo, (k,))])
    upper = np.concatenate([np.full(2 * k, MAX_STEP_US), np.broadcast_to(hi, (k,))])

    def to_seq(x: np.ndarray) -> PulseSequence:
        depths = seed_depths if depth_bounds is None else x[2 * k :].tolist()
        pairs = zip(x[:k].tolist(), x[k : 2 * k].tolist())
        return PulseSequence.from_durations(list(pairs), depths)

    def evaluate(x: np.ndarray) -> float:
        f = fidelity(to_seq(x), obj)
        if not math.isfinite(f):
            raise ArithmeticError(f"non-finite fidelity {f} at parameters {x.tolist()}")
        return f

    def project(x: np.ndarray) -> np.ndarray:
        return np.clip(x, lower, upper)

    rng = np.random.default_rng(opts.rng_seed)
    starts = [x_seed]
    for _ in range(opts.restarts - 1):
        ons = rng.uniform(0.0, opts.on_max, size=k)
        offs = rng.uniform(0.0, opts.off_max, size=k)
        ds = rng.uniform(lo, hi, size=k) if np.any(hi > lo) else lower[2 * k :]
        starts.append(np.concatenate([ons, offs, ds]))

    best: OptimizeResult | None = None
    for r, x0 in enumerate(starts):
        x, f, trace = _ascend(x0, evaluate, project, opts)
        q = opts.grid_quantum
        xr = project(np.round(x / q) * q if q > 0 else x)
        fr = evaluate(xr)
        result = OptimizeResult(
            sequence=to_seq(xr),
            fidelity=float(fr),
            fidelity_pre_rounding=float(f),
            trace=tuple(trace),
            restart=r,
        )
        if best is None or result.fidelity > best.fidelity:
            best = result
    return best


def design_sequence(
    kind: ObjectiveKind,
    n_steps: int,
    spec: LatticeSpec,
    basis: PlaneWaveBasis,
    opts: OptimizerOptions | None = None,
    depth_bounds: tuple[float, float] | None = None,
) -> OptimizeResult:
    """Design a pulse sequence from scratch: seeded random start + restarts.

    ``depth_bounds`` boxes per-step depths; ``None`` keeps the spec's depth.
    """
    opts = opts or OptimizerOptions()
    rng = np.random.default_rng(opts.rng_seed + 1)
    ons = rng.uniform(0.0, opts.on_max, size=n_steps)
    offs = rng.uniform(0.0, opts.off_max, size=n_steps)
    seed = PulseSequence.from_durations(list(zip(ons, offs)))
    obj = build_objective(kind, spec, basis)
    return optimize(seed, obj, opts, depth_bounds)
