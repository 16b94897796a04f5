import numpy as np
import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from spherization_lab.geometry import ModelManifold
from spherization_lab.starshape import RadialProfile, calibrate


@pytest.fixture(scope="session")
def torus():
    return ModelManifold.torus()


@pytest.fixture(scope="session")
def sol():
    return ModelManifold.sol()


@pytest.fixture(scope="session")
def round_sandwich(torus):
    return calibrate(RadialProfile.round(), torus)


@pytest.fixture(scope="session")
def ellipse_sandwich(torus):
    return calibrate(RadialProfile.ellipse((1.0, 2.0)), torus)


@pytest.fixture(scope="session")
def fourier_sandwich(torus):
    return calibrate(RadialProfile.fourier(1.0, cos_coeffs=(0.08,),
                                           sin_coeffs=(0.0, 0.04)), torus)


@pytest.fixture(scope="session")
def sol_round_sandwich(sol):
    return calibrate(RadialProfile.round(), sol)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
