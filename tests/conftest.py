import pytest

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
    return PlaneWaveBasis(basis.geometry, basis.shell_radius, sites)
