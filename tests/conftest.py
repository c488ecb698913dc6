"""Shared fixtures: grids, coefficient pairs, and spectral data tables.

The heavy tables are session-scoped; individual tests truncate or copy
as needed and never mutate fixture objects in place.
"""

import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from spectral3 import forward
from spectral3.forward import compute_spectral_data
from spectral3.grid import CoefficientPair, Grid, read_coefficients

from helpers import from_callables

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
    return CoefficientPair.model(grid512, 0.0)


@pytest.fixture(scope="session")
def smooth_coeffs(grid512):
    # self-adjoint class: tau1 real, sigma0 purely imaginary
    return from_callables(
        grid512,
        lambda x: np.cos(2.0 * np.pi * x) + 0.3,
        lambda x: 0.3j * np.sin(np.pi * x))


@pytest.fixture(scope="session")
def general_coeffs(grid512):
    # genuinely non-self-adjoint smooth pair
    return from_callables(
        grid512,
        lambda x: np.cos(2.0 * np.pi * x) + 0.3 + 0.2j * np.sin(np.pi * x),
        lambda x: 0.25 * x * (1.0 - x) + 0.15j * np.sin(2.0 * np.pi * x))


@pytest.fixture(scope="session")
def general_coeffs128(grid128):
    # the general pair on the coarse grid, for tests that sweep it often
    return from_callables(
        grid128,
        lambda x: np.cos(2.0 * np.pi * x) + 0.3 + 0.2j * np.sin(np.pi * x),
        lambda x: 0.25 * x * (1.0 - x) + 0.15j * np.sin(2.0 * np.pi * x))


@pytest.fixture
def sweep_calls(monkeypatch):
    # (lambda count, Taylor order, constant pair) of every forward._sweep
    # call, which computes spectral data and Weyl matrices; the order is
    # 0 for a plain sweep, 1 for d/dlambda and 2 for a Newton evaluation
    # of any pair, so it compares equal to with_dlambda's False and True,
    # and a constant pair's sweeps take the power path
    calls = []
    inner = forward._sweep

    def recording(coeffs, variant, lams, inits, with_dlambda=False, **kw):
        calls.append((np.atleast_1d(lams).shape[0], int(with_dlambda),
                      coeffs.is_constant))
        return inner(coeffs, variant, lams, inits, with_dlambda=with_dlambda,
                     **kw)

    monkeypatch.setattr(forward, "_sweep", recording)
    return calls


@pytest.fixture(scope="session")
def smooth_data20(smooth_coeffs):
    return compute_spectral_data(smooth_coeffs, 20)


@pytest.fixture(scope="session")
def smooth_data8(smooth_data20):
    return smooth_data20.truncate(8)


@pytest.fixture(scope="session")
def zero_data6(zero_coeffs):
    return compute_spectral_data(zero_coeffs, 6)


@pytest.fixture(scope="session")
def sample_data30():
    # the bundled sample pair (M = 512) at n_max 30
    path = os.path.join(os.path.dirname(__file__), "..", "data", "smooth.csv")
    return compute_spectral_data(read_coefficients(path), 30)
