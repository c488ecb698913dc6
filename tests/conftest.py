"""Shared fixtures: grids, coefficient pairs, and spectral data tables.

The heavy tables are session-scoped; individual tests truncate or copy
as needed and never mutate fixture objects in place.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from spectral3.forward import compute_spectral_data
from spectral3.grid import CoefficientPair, Grid, GridFunction

# Property tests draw the same examples on every run and keep no
# example database.
settings.register_profile("seeded", derandomize=True, database=None)
settings.load_profile("seeded")


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    # Hypothesis still caches the constants it collects from the tested
    # source, at collection time; keep that cache in the run's pytest
    # temp directory so a test run writes nothing into the checkout.
    set_hypothesis_home_dir(config._tmp_path_factory.mktemp("hypothesis"))


@pytest.fixture(scope="session")
def grid512():
    return Grid(512)


@pytest.fixture(scope="session")
def grid128():
    return Grid(128)


@pytest.fixture(scope="session")
def zero_coeffs(grid512):
    return CoefficientPair(GridFunction.constant(grid512, 0.0),
                           GridFunction.constant(grid512, 0.0))


@pytest.fixture(scope="session")
def smooth_coeffs(grid512):
    # self-adjoint class: tau1 real, sigma0 purely imaginary
    return CoefficientPair.from_callables(
        grid512,
        lambda x: np.cos(2.0 * np.pi * x) + 0.3,
        lambda x: 0.3j * np.sin(np.pi * x))


@pytest.fixture(scope="session")
def general_coeffs(grid512):
    # genuinely non-self-adjoint smooth pair
    return CoefficientPair.from_callables(
        grid512,
        lambda x: np.cos(2.0 * np.pi * x) + 0.3 + 0.2j * np.sin(np.pi * x),
        lambda x: 0.25 * x * (1.0 - x) + 0.15j * np.sin(2.0 * np.pi * x))


@pytest.fixture(scope="session")
def general_coeffs128(grid128):
    # the general pair on the coarse grid, for tests that sweep it often
    return CoefficientPair.from_callables(
        grid128,
        lambda x: np.cos(2.0 * np.pi * x) + 0.3 + 0.2j * np.sin(np.pi * x),
        lambda x: 0.25 * x * (1.0 - x) + 0.15j * np.sin(2.0 * np.pi * x))


@pytest.fixture(scope="session")
def smooth_data20(smooth_coeffs):
    return compute_spectral_data(smooth_coeffs, 20)


@pytest.fixture(scope="session")
def smooth_data8(smooth_data20):
    return smooth_data20.truncate(8)


@pytest.fixture(scope="session")
def zero_data6(zero_coeffs):
    return compute_spectral_data(zero_coeffs, 6)
