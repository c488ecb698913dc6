import numpy as np
import pytest

from spectral3.errors import IntegrationOverflowError, ResolutionGuardError
from spectral3.grid import CoefficientPair, Grid, GridFunction, differentiate
from spectral3.quasi import (SystemVariant, _sweep, fundamental_solutions,
                             integrate_ivp, system_matrix)

# Constant-coefficient oracle, tau1 = 1, sigma0 = 0: the equation is
# y''' + 2y' = lambda y, and the third fundamental solution (y = y' = 0,
# y^[2] = y'' + y = 1 at x = 0) has the exponential-basis values below
# (40-digit arithmetic, frozen).
C3_TAU1_LAM1 = 0.4296233361288612648171
C3P_TAU1_LAM1 = 0.7350388016542261015615
C3_TAU1_LAM23 = 0.4370549946056281923817 + 0.02299446807957941861491j
C3P_TAU1_LAM23 = 0.7703318704011005326851 + 0.1113921481582350808988j


def _const_pair(grid, t1):
    return CoefficientPair(GridFunction.constant(grid, t1),
                           GridFunction.constant(grid, 0.0))


def test_constant_coefficient_oracle(grid512):
    ones = _const_pair(grid512, 1.0)
    tr = integrate_ivp(ones, SystemVariant.DIRECT, 1.0, (0.0, 0.0, 1.0))
    assert abs(tr.y[-1] - C3_TAU1_LAM1) < 1e-11
    assert abs(tr.y1[-1] - C3P_TAU1_LAM1) < 1e-11
    tr = integrate_ivp(ones, SystemVariant.DIRECT, 2.0 + 3.0j, (0.0, 0.0, 1.0))
    assert abs(tr.y[-1] - C3_TAU1_LAM23) < 1e-11
    assert abs(tr.y1[-1] - C3P_TAU1_LAM23) < 1e-11


def test_rk4_convergence_order():
    errs = []
    for M in (64, 128):
        pair = _const_pair(Grid(M), 1.0)
        tr = integrate_ivp(pair, SystemVariant.DIRECT, 1.0, (0.0, 0.0, 1.0))
        errs.append(abs(tr.y[-1] - C3_TAU1_LAM1))
    assert errs[0] / errs[1] > 12.0


def test_system_matrix_entries():
    g = Grid(8)
    pair = CoefficientPair.from_callables(g, lambda x: x + 0j,
                                          lambda x: 2 * x + 0j)
    lam = 1.5 + 0.5j
    A = system_matrix(pair, SystemVariant.DIRECT, lam, 0.5)
    t1, s0 = 0.5, 1.0
    assert A[0, 1] == 1.0 and A[1, 2] == 1.0
    assert abs(A[1, 0] + (s0 + t1)) < 1e-14          # p = -(sigma0 + tau1)
    assert abs(A[2, 1] - (s0 - t1)) < 1e-14          # q = sigma0 - tau1
    assert abs(A[2, 0] - lam) < 1e-14                # c = +1
    B = system_matrix(pair, SystemVariant.STAR, lam, 0.5)
    assert abs(B[1, 0] - (s0 - t1)) < 1e-14
    assert abs(B[2, 1] + (s0 + t1)) < 1e-14
    assert abs(B[2, 0] + lam) < 1e-14                # c = -1


def test_quasi_derivative_definition(grid512):
    # y^[2] = y'' + (sigma0 + tau1) y, checked via finite differences
    pair = CoefficientPair.from_callables(grid512,
                                          lambda x: np.cos(x),
                                          lambda x: 0.5j * x)
    tr = integrate_ivp(pair, SystemVariant.DIRECT, 2.0 + 1.0j,
                       (1.0, 0.5, 0.25))
    ypp = differentiate(GridFunction(grid512, tr.y1)).values
    weight = pair.sigma0.values + pair.tau1.values
    resid = np.abs(tr.y2 - (ypp + weight * tr.y))
    assert resid.max() < 1e-6 * (1.0 + np.abs(tr.y2).max())


def test_fundamental_determinant_is_one(grid512, general_coeffs):
    rng = np.random.default_rng(7)
    for variant in (SystemVariant.DIRECT, SystemVariant.STAR):
        for _ in range(3):
            lam = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            C = fundamental_solutions(general_coeffs, variant, lam)
            states = np.stack([c.states for c in C], axis=2)  # (M+1, 3, 3)
            det = np.linalg.det(states)
            assert np.abs(det - 1.0).max() < 5e-10


def test_fundamental_normalization(zero_coeffs):
    C1, C2, C3 = fundamental_solutions(zero_coeffs, SystemVariant.DIRECT, 3.0)
    eye = np.stack([C1.states[0], C2.states[0], C3.states[0]])
    assert np.abs(eye - np.eye(3)).max() < 1e-15
    # zero coefficients, lambda = 0: C3 = x^2/2
    C1, C2, C3 = fundamental_solutions(zero_coeffs, SystemVariant.DIRECT, 0.0)
    x = zero_coeffs.grid.nodes
    assert np.abs(C3.y - x**2 / 2).max() < 1e-12


def test_dlambda_against_finite_difference(grid128):
    pair = _const_pair(grid128, 1.0)
    lam = 4.0 - 2.0j
    h = 1e-5
    tr = integrate_ivp(pair, SystemVariant.DIRECT, lam, (0.0, 0.0, 1.0),
                       with_dlambda=True)
    plus = integrate_ivp(pair, SystemVariant.DIRECT, lam + h, (0.0, 0.0, 1.0))
    minus = integrate_ivp(pair, SystemVariant.DIRECT, lam - h, (0.0, 0.0, 1.0))
    fd = (plus.states - minus.states) / (2 * h)
    assert np.abs(tr.dstates - fd).max() < 1e-7 * (1.0 + np.abs(fd).max())


def test_resolution_guard(grid128):
    pair = _const_pair(grid128, 0.0)
    # |lambda|^{1/3} beyond 0.6 M
    with pytest.raises(ResolutionGuardError):
        integrate_ivp(pair, SystemVariant.DIRECT, (0.7 * 128) ** 3, (0, 0, 1))


def test_overflow_guard_on_bad_coefficients(grid128):
    vals = np.zeros(129, dtype=complex)
    vals[60] = np.nan
    pair = CoefficientPair(GridFunction(grid128, vals),
                           GridFunction.constant(grid128, 0.0))
    with pytest.raises(IntegrationOverflowError) as ei:
        integrate_ivp(pair, SystemVariant.DIRECT, 1.0, (0, 0, 1))
    # The finite check runs every 32 steps from the start node, so the
    # NaN at node 60 is reported at node 64 forward and 32 backward.
    assert ei.value.node == 64
    with pytest.raises(IntegrationOverflowError) as ei:
        _sweep(pair, SystemVariant.DIRECT, np.array([1.0]), np.eye(3),
               with_dlambda=True, backward=True)
    assert ei.value.node == 32


@pytest.mark.parametrize("variant", [SystemVariant.DIRECT, SystemVariant.STAR])
def test_backward_sweep_retraces_forward(general_coeffs, variant):
    # A backward stored sweep from the forward end state runs the same
    # RK4 steps with -h over the reversed samples and lands on the
    # forward trajectory, node for node, up to the O(h^4) step error.
    lams = np.array([3.0 + 2.0j, -20.0 + 5.0j, 40.0j])
    fwd = _sweep(general_coeffs, variant, lams, np.eye(3), store=True)
    back = _sweep(general_coeffs, variant, lams, fwd[-1], backward=True,
                  store=True)
    assert back.shape == fwd.shape == (general_coeffs.grid.M + 1, 3, 3, 3)
    assert np.array_equal(back[-1], fwd[-1])
    assert np.abs(back - fwd).max() <= 1e-9 * np.abs(fwd).max()
