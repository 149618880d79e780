"""Reference model of the triangular lattice, written apart from the package.

It rebuilds the plane-wave Hamiltonian from the documented conventions only:

* primitive reciprocal vectors b1 = (1.5, -sqrt(3)/2) and b2 = (0, sqrt(3)) in
  units of the beam wavenumber k, sites (n1, n2) with |n1|, |n2| <= 5 in
  lexicographic order;
* kinetic energy (q + G)^2 in recoil units, the six first-shell couplings
  +-b1, +-b2, +-(b1 + b2), each -FOURIER_COEF * depth, and the uniform
  Fourier term -3 * FOURIER_COEF * depth on the diagonal.  The uniform term
  shifts every energy alike, yet it is kept: the canonical gauge of a
  phase-locked pi pulse (both pair overlaps real and positive) depends on
  the operator's global phase, so echo fringes change without it;
* E_r / h from CODATA constants, phase exp(-i E w t) with w in rad/us per E_r;
* S and D are the first and fourth bands; each eigenvector's largest-magnitude
  component is made real and positive.

Propagation uses dense ``scipy.linalg.expm``; band gaps use ``eigvalsh``.
Pulse phases are found by a two-dimensional maximisation of the rotation
fidelity.  Nothing here imports the package: it is the yardstick the benchmark
checks the package's outputs against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh, eigvalsh, expm
from scipy.optimize import minimize

HBAR = 1.054571817e-34  # J s
PLANCK = 6.62607015e-34  # J s
MASS_RB87 = 1.4432e-25  # kg
WAVELENGTH_M = 1064e-9
DEPTH_ER = 5.0
#: Per-depth strength of each first-shell Fourier component (package docs).
FOURIER_COEF = 0.2420392
SHELL_RADIUS = 5
S_BAND, D_BAND = 0, 3  # 0-based band indices

B1 = np.array([1.5, -math.sqrt(3.0) / 2.0])
B2 = np.array([0.0, math.sqrt(3.0)])
FIRST_SHELL = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))

HALF_PI_TARGET = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
PI_TARGET = np.array([[0.0, -1.0], [1.0, 0.0]])


def recoil_frequency_hz() -> float:
    """E_r / h = hbar^2 k^2 / (2 m h) with k = 2 pi / lambda."""
    k = 2.0 * math.pi / WAVELENGTH_M
    return HBAR**2 * k**2 / (2.0 * MASS_RB87) / PLANCK


def gaussian_grid(fwhm: float, points: int = 21):
    """Quadrature nodes and normalised weights of a 2D Gaussian ensemble.

    The grid is the tensor product of ``points`` equally spaced nodes over
    [-3 sigma, 3 sigma] per axis, sigma = FWHM / (2 sqrt(2 ln 2)), flattened
    with the x index outermost.
    """
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    x = np.linspace(-3.0 * sigma, 3.0 * sigma, points)
    qs = np.array([(qx, qy) for qx in x for qy in x])
    w = np.exp(-(qs**2).sum(axis=1) / (2.0 * sigma**2))
    return qs, w / w.sum()


def _fix_phase(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return v * (np.conj(v[i]) / abs(v[i]))


def _dress(theta: float, d: np.ndarray) -> np.ndarray:
    """Z_theta = 1 + (e^(i theta) - 1) |D><D|."""
    return np.eye(len(d), dtype=complex) + (np.exp(1j * theta) - 1.0) * np.outer(d, d.conj())


def aligned_phases(block: np.ndarray, target: np.ndarray) -> tuple[float, float, float]:
    """Maximise |tr(T^dagger Z_b M Z_a)| / 2 over the band phases (a, b).

    Z_theta = diag(1, e^(i theta)) in the (S, D) frame.  A grid over the torus
    seeds a Nelder-Mead refinement.  For a pi target the maximum is a line;
    the point on it where both pair overlaps are real and positive is taken.
    Returns (fidelity, a, b).
    """
    m, t = np.asarray(block), np.asarray(target)

    def score(ab) -> float:
        za = np.diag([1.0, np.exp(1j * ab[0])])
        zb = np.diag([1.0, np.exp(1j * ab[1])])
        return float(abs(np.trace(t.conj().T @ zb @ m @ za))) / 2.0

    if t[0, 0] == 0 and t[1, 1] == 0:
        b = -np.angle(np.conj(t[1, 0]) * m[1, 0])
        a = -np.angle(np.conj(t[0, 1]) * m[0, 1])
        return score((a, b)), float(a), float(b)
    # tr(...) = sum_jk conj(T_kj) M_kj e^(i(k b + j a)) with j, k in {0, 1}.
    c = np.conj(t) * m
    grid = np.linspace(-math.pi, math.pi, 96, endpoint=False)
    ea, eb = np.exp(1j * grid)[None, :], np.exp(1j * grid)[:, None]
    values = np.abs(c[0, 0] + c[0, 1] * ea + c[1, 0] * eb + c[1, 1] * ea * eb)
    ib, ia = np.unravel_index(int(np.argmax(values)), values.shape)
    best = (grid[ia], grid[ib])
    res = minimize(
        lambda ab: -score(ab),
        np.array(best),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 4000},
    )
    a, b = (float(v) for v in res.x)
    return score((a, b)), a, b


class ReferenceLattice:
    """Plane-wave model of the triangular lattice at the reference depth."""

    def __init__(self) -> None:
        n, depth = SHELL_RADIUS, DEPTH_ER
        self.sites = [(n1, n2) for n1 in range(-n, n + 1) for n2 in range(-n, n + 1)]
        index = {s: i for i, s in enumerate(self.sites)}
        self.g = np.array([n1 * B1 + n2 * B2 for n1, n2 in self.sites])
        size = len(self.sites)
        self.coupling = np.diag(np.full(size, -3.0 * FOURIER_COEF * depth))
        for i, (n1, n2) in enumerate(self.sites):
            for o1, o2 in FIRST_SHELL:
                j = index.get((n1 + o1, n2 + o2))
                if j is not None:
                    self.coupling[j, i] = -FOURIER_COEF * depth
        self.omega = 2.0 * math.pi * recoil_frequency_hz() * 1e-6  # rad/us per E_r

    def kinetic(self, q) -> np.ndarray:
        return ((self.g + np.asarray(q, dtype=float)) ** 2).sum(axis=1)

    def h_on(self, q) -> np.ndarray:
        return np.diag(self.kinetic(q)) + self.coupling

    def gap(self, q) -> float:
        """S-D gap in E_r."""
        e = eigvalsh(self.h_on(q), subset_by_index=[S_BAND, D_BAND])
        return float(e[-1] - e[0])

    def fringe_period_us(self) -> float:
        return 1e6 / (self.gap((0.0, 0.0)) * recoil_frequency_hz())

    def band_pair(self, q) -> tuple[np.ndarray, np.ndarray]:
        _, vecs = eigh(self.h_on(q))
        vecs = vecs.astype(complex)
        return _fix_phase(vecs[:, S_BAND]), _fix_phase(vecs[:, D_BAND])

    def hold(self, q, t_us: float) -> np.ndarray:
        return expm(-1j * self.omega * t_us * self.h_on(q))

    def sequence_operator(self, steps, q) -> np.ndarray:
        """Time-ordered product of lattice-on then lattice-off per step."""
        h = self.h_on(q)
        free = self.kinetic(q)
        u = np.eye(len(free), dtype=complex)
        for t_on, t_off in steps:
            u = expm(-1j * self.omega * t_on * h) @ u
            u = np.exp(-1j * self.omega * t_off * free)[:, None] * u
        return u

    def fidelity(self, steps) -> float:
        """Aligned-frame pi/2 fidelity of a sequence at q = 0."""
        q = (0.0, 0.0)
        s, d = self.band_pair(q)
        frame = np.stack([s, d], axis=1)
        block = frame.conj().T @ self.sequence_operator(steps, q) @ frame
        return aligned_phases(block, HALF_PI_TARGET)[0]

    def locked_operator(self, steps, target, q) -> np.ndarray:
        """Sequence operator dressed with its maximising band phases."""
        s, d = self.band_pair(q)
        r = self.sequence_operator(steps, q)
        frame = np.stack([s, d], axis=1)
        _, a, b = aligned_phases(frame.conj().T @ r @ frame, target)
        return _dress(b, d) @ r @ _dress(a, d)

    def ramsey_pd(self, pi2_steps, q, times) -> np.ndarray:
        """P_D after pi/2 - hold(t) - pi/2, starting in S."""
        s, d = self.band_pair(q)
        half = self.locked_operator(pi2_steps, HALF_PI_TARGET, q)
        first = half @ s
        out = [abs(d.conj() @ half @ self.hold(q, t) @ first) ** 2 for t in times]
        return np.array(out)

    def echo_pd(self, pi2_steps, pi_steps, n_echo: int, q, times) -> np.ndarray:
        """P_D after pi/2 - n x [hold t/2n, pi, hold t/2n] - pi/2."""
        s, d = self.band_pair(q)
        half = self.locked_operator(pi2_steps, HALF_PI_TARGET, q)
        flip = self.locked_operator(pi_steps, PI_TARGET, q)
        out = []
        for t in times:
            u = self.hold(q, t / (2.0 * n_echo))
            psi = half @ s
            for _ in range(n_echo):
                psi = u @ (flip @ (u @ psi))
            out.append(abs(d.conj() @ half @ psi) ** 2)
        return np.array(out)

    def ideal_ramsey_fringe(self, fwhm: float, times, points: int = 21) -> np.ndarray:
        """Closed-form ideal-pulse ensemble fringe sum_q w_q (1 + cos(gap_q w t)) / 2."""
        qs, w = gaussian_grid(fwhm, points)
        gaps = np.array([self.gap(q) for q in qs])
        phase = np.outer(gaps * self.omega, np.asarray(times, dtype=float))
        return w @ ((1.0 + np.cos(phase)) / 2.0)
