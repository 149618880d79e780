import os

# Pin BLAS to one thread before anything imports numpy: OpenBLAS's own
# threads otherwise compete with the package's thread pool and slow the
# suite severalfold.  A value already set in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from artifact import dynamics
from artifact.lattice import Geometry, LatticeSpec, PlaneWaveBasis, build_basis


@pytest.fixture(scope="session")
def spec():
    return LatticeSpec()


@pytest.fixture(scope="session")
def basis(spec):
    return build_basis(spec, shell_radius=5)


@pytest.fixture(scope="session")
def spec_1d():
    return LatticeSpec(geometry=Geometry.STANDING_WAVE_1D)


@pytest.fixture(scope="session")
def basis_1d(spec_1d):
    return build_basis(spec_1d, shell_radius=5)


@pytest.fixture(scope="session")
def hex_basis(basis):
    """The 91 sites of the default basis inside the hexagon
    max(|n1|, |n2|, |n1 - n2|) <= 5, in the default basis's order."""
    sites = tuple(
        (a, b) for a, b in basis.sites if max(abs(a), abs(b), abs(a - b)) <= 5
    )
    return PlaneWaveBasis(basis.geometry, sites)


@pytest.fixture
def solved(monkeypatch):
    """The Hamiltonians that ``dynamics.solve_bands`` solves in the test."""
    calls = []
    solve = dynamics.solve_bands

    def counting_solve(h):
        calls.append(h)
        return solve(h)

    monkeypatch.setattr(dynamics, "solve_bands", counting_solve)
    return calls
