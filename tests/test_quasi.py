import itertools
import tracemalloc

import numpy as np
import pytest

from spectral3 import quasi
from spectral3.errors import IntegrationOverflowError, ResolutionGuardError
from spectral3.forward import _taylor_order
from spectral3.grid import CoefficientPair, Grid, GridFunction, midpoint_values
from spectral3.quasi import (_LAM_BLOCK, _STRETCH, SystemVariant, _cells,
                             _lane_rows, _loop_sweep, _power_sweep,
                             _stretch_cells, _sweep)

from helpers import (differentiate, from_callables, pq_by_sign,
                     sequential_sweep)

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


def _ivp(coeffs, lam, init=(0.0, 0.0, 1.0), with_dlambda=False):
    """One DIRECT solution from the quasi-derivative state init at x = 0:
    its states (M+1, 3), with with_dlambda also their d/dlambda."""
    res = _sweep(coeffs, SystemVariant.DIRECT, [lam],
                 np.reshape(init, (3, 1)), with_dlambda=with_dlambda,
                 store=True)
    if with_dlambda:
        return tuple(r[:, 0, :, 0] for r in res)
    return res[:, 0, :, 0]


def test_constant_coefficient_oracle(grid512):
    ones = _const_pair(grid512, 1.0)
    tr = _ivp(ones, 1.0)
    assert abs(tr[-1, 0] - C3_TAU1_LAM1) < 1e-11
    assert abs(tr[-1, 1] - C3P_TAU1_LAM1) < 1e-11
    tr = _ivp(ones, 2.0 + 3.0j)
    assert abs(tr[-1, 0] - C3_TAU1_LAM23) < 1e-11
    assert abs(tr[-1, 1] - C3P_TAU1_LAM23) < 1e-11


def test_rk4_convergence_order():
    errs = []
    for M in (64, 128):
        pair = _const_pair(Grid(M), 1.0)
        errs.append(abs(_ivp(pair, 1.0)[-1, 0] - C3_TAU1_LAM1))
    assert errs[0] / errs[1] > 12.0


def test_system_matrix_entries():
    # A = [[0, 1, 0], [p, 0, 1], [c lambda, q, 0]] with (p, q, c) from pqc
    g = Grid(8)
    pair = from_callables(g, lambda x: x + 0j, lambda x: 2 * x + 0j)
    lam = 1.5 + 0.5j
    at_half = (pair.sigma0.values[4], pair.tau1.values[4])   # x = 0.5
    t1, s0 = 0.5, 1.0
    p, q, c = SystemVariant.DIRECT.pqc(*at_half)
    assert abs(p + (s0 + t1)) < 1e-14                # p = -(sigma0 + tau1)
    assert abs(q - (s0 - t1)) < 1e-14                # q = sigma0 - tau1
    assert abs(c * lam - lam) < 1e-14                # c = +1
    p, q, c = SystemVariant.STAR.pqc(*at_half)
    assert abs(p - (s0 - t1)) < 1e-14
    assert abs(q + (s0 + t1)) < 1e-14
    assert abs(c * lam + lam) < 1e-14                # c = -1


def test_quasi_derivative_definition(grid512):
    # y^[2] = y'' + (sigma0 + tau1) y, checked via finite differences
    pair = from_callables(grid512, lambda x: np.cos(x), lambda x: 0.5j * x)
    y, y1, y2 = _ivp(pair, 2.0 + 1.0j, (1.0, 0.5, 0.25)).T
    ypp = differentiate(GridFunction(grid512, y1)).values
    weight = pair.sigma0.values + pair.tau1.values
    resid = np.abs(y2 - (ypp + weight * y))
    assert resid.max() < 1e-6 * (1.0 + np.abs(y2).max())


def test_fundamental_determinant_is_one(grid512, general_coeffs):
    rng = np.random.default_rng(7)
    for variant in (SystemVariant.DIRECT, SystemVariant.STAR):
        for _ in range(3):
            lam = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            # (M+1, 3, 3): node, order, solution
            states = _sweep(general_coeffs, variant, [lam], np.eye(3),
                            store=True)[:, 0]
            det = np.linalg.det(states)
            assert np.abs(det - 1.0).max() < 5e-10


def test_fundamental_normalization(zero_coeffs):
    def fundamental(lam):
        return _sweep(zero_coeffs, SystemVariant.DIRECT, [lam], np.eye(3),
                      store=True)[:, 0]

    assert np.abs(fundamental(3.0)[0] - np.eye(3)).max() < 1e-15
    # zero coefficients, lambda = 0: C3 = x^2/2
    x = zero_coeffs.grid.nodes
    assert np.abs(fundamental(0.0)[:, 0, 2] - x**2 / 2).max() < 1e-12


def test_dlambda_against_finite_difference(grid128):
    pair = _const_pair(grid128, 1.0)
    lam = 4.0 - 2.0j
    h = 1e-5
    _, dstates = _ivp(pair, lam, with_dlambda=True)
    fd = (_ivp(pair, lam + h) - _ivp(pair, lam - h)) / (2 * h)
    assert np.abs(dstates - fd).max() < 1e-7 * (1.0 + np.abs(fd).max())


def test_resolution_guard(grid128):
    pair = _const_pair(grid128, 0.0)
    # |lambda|^{1/3} beyond 0.6 M
    with pytest.raises(ResolutionGuardError):
        _ivp(pair, (0.7 * 128) ** 3)


def test_overflow_guard_on_bad_coefficients(grid128):
    vals = np.zeros(129, dtype=complex)
    vals[60] = np.nan
    pair = CoefficientPair(GridFunction(grid128, vals),
                           GridFunction.constant(grid128, 0.0))
    with pytest.raises(IntegrationOverflowError) as ei:
        _ivp(pair, 1.0)
    # The finite check runs every 32 steps from the start node, so the
    # NaN at node 60 is reported at node 64 forward and 32 backward.
    assert ei.value.node == 64
    with pytest.raises(IntegrationOverflowError) as ei:
        _sweep(pair, SystemVariant.DIRECT, np.array([1.0]), np.eye(3),
               with_dlambda=True, backward=True)
    assert ei.value.node == 32


@pytest.fixture(scope="module")
def const_coeffs(grid512):
    # constant complex tau1 and sigma0: every sweep takes the power path
    return CoefficientPair(GridFunction.constant(grid512, 0.7 - 0.2j),
                           GridFunction.constant(grid512, 0.15 + 0.05j))


@pytest.mark.parametrize("variant", [SystemVariant.DIRECT, SystemVariant.STAR])
def test_backward_sweep_retraces_forward(general_coeffs, const_coeffs,
                                         variant):
    # A backward stored sweep from the forward end state runs the same
    # RK4 steps with -h over the reversed samples and lands on the
    # forward trajectory, node for node, up to the O(h^4) step error;
    # the constant pair takes the power path both ways.
    lams = np.array([3.0 + 2.0j, -20.0 + 5.0j, 40.0j])
    for coeffs in (general_coeffs, const_coeffs):
        fwd = _sweep(coeffs, variant, lams, np.eye(3), store=True)
        back = _sweep(coeffs, variant, lams, fwd[-1], backward=True,
                      store=True)
        assert back.shape == fwd.shape == (coeffs.grid.M + 1, 3, 3, 3)
        assert np.array_equal(back[-1], fwd[-1])
        assert np.abs(back - fwd).max() <= 1e-9 * np.abs(fwd).max()


# |lambda| ~ 3e3 on three rays, and points on both sides of the spectrum.
_POWER_LAMS = np.array([3e3 * np.exp(1j * a) for a in (0.3, 1.5, 2.9)]
                       + [-30.0, 9.0, 500.0], dtype=complex)
# Those and 34 more: 40 lambdas, two blocks of quasi._LAM_BLOCK.
_rng = np.random.default_rng(5)
_FORTY_LAMS = np.concatenate([_POWER_LAMS, _rng.uniform(-50, 50, 34)
                              + 1j * _rng.uniform(-50, 50, 34)])


@pytest.mark.parametrize("store", [False, True])
@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("with_dlambda", [False, True, 4])
@pytest.mark.parametrize("variant", [SystemVariant.DIRECT, SystemVariant.STAR])
def test_power_path_matches_loop(const_coeffs, variant, with_dlambda,
                                 backward, store):
    # The same RK4 map by powers of the step matrix and by the loop:
    # they differ by rounding only (and by the midpoint samples, which
    # the power path takes equal to the node value), d/dlambda and order
    # 4 Taylor blocks included.
    args = (const_coeffs, variant, _POWER_LAMS, np.eye(3, dtype=complex),
            with_dlambda, backward, store)
    loop, power = _loop_sweep(*args), _power_sweep(*args)
    assert power.shape == loop.shape
    lam_axis = 1 if store else 0
    loop = np.moveaxis(loop, lam_axis, 0).reshape(len(_POWER_LAMS), -1)
    power = np.moveaxis(power, lam_axis, 0).reshape(len(_POWER_LAMS), -1)
    scale = np.abs(loop).max(axis=1)
    assert (np.abs(power - loop).max(axis=1) <= 1e-12 * scale).all()


@pytest.mark.parametrize("store", [False, True])
@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("with_dlambda", [False, True, 2])
@pytest.mark.parametrize("variant", [SystemVariant.DIRECT, SystemVariant.STAR])
def test_batched_loop_sweep_equals_one_lambda_at_a_time(
        general_coeffs128, variant, with_dlambda, backward, store):
    # Each lambda's values do not depend on the batch it is swept in;
    # the weight numbers read Newton's batched evaluations on this, of
    # order 1 and of Newton's order 2.  The 40-lambda batch runs in two
    # blocks of the stretch lanes, the second of them ragged.
    def sweep(lams):
        res = _sweep(general_coeffs128, variant, lams, np.eye(3),
                     with_dlambda=with_dlambda, backward=backward,
                     store=store)
        return res if with_dlambda else (res,)

    lam_axis = 1 if store else 0
    for lams in (_POWER_LAMS, _FORTY_LAMS):
        batch = sweep(lams)
        for i, lam in enumerate(lams):
            for got, ref in zip(batch, sweep(np.array([lam]))):
                assert np.array_equal(np.take(got, [i], axis=lam_axis), ref)


@pytest.mark.parametrize("store", [False, True])
@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("with_dlambda", [False, True, 2])
@pytest.mark.parametrize("constant", [False, True])
def test_mixed_variant_sweep_equals_per_variant_sweeps(
        general_coeffs128, const_coeffs, constant, with_dlambda, backward,
        store):
    # A batch whose lambdas carry their own variant (c = +-1, interleaved)
    # gives each lambda the bits of a sweep of its variant's half alone,
    # on the loop path (general pair) and the power path (constant pair),
    # up to Newton's order 2: each lambda's blocks in mu = c lambda are
    # turned into blocks in lambda by its own c.
    coeffs = const_coeffs if constant else general_coeffs128
    c = np.resize([1.0, -1.0, -1.0], len(_POWER_LAMS))

    def sweep(variant, lams):
        res = _sweep(coeffs, variant, lams, np.eye(3),
                     with_dlambda=with_dlambda, backward=backward,
                     store=store)
        return res if with_dlambda else (res,)

    lam_axis = 1 if store else 0
    mixed = sweep(c, _POWER_LAMS)
    for variant in SystemVariant:
        half = np.flatnonzero(c == variant.value)
        for got, ref in zip(mixed, sweep(variant, _POWER_LAMS[half])):
            assert np.array_equal(np.take(got, half, axis=lam_axis), ref)


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("store", [False, True])
@pytest.mark.parametrize("backward", [False, True])
def test_plain_sweep_equals_the_states_of_a_dlambda_sweep(
        general_coeffs128, const_coeffs, K, store, backward):
    # The forward pole guard screens with plain sweeps what it used to
    # read off d/dlambda sweeps.  On the loop path the states of a plain
    # sweep are bitwise those of a d/dlambda sweep (40 lambdas of mixed
    # variants, two blocks, the second ragged, per-lambda initial values);
    # on the power path the step-matrix powers are 3x3 instead of 6x6 and
    # agree within 1e-13 of each lambda's maximum (measured 4.9e-14).
    rng = np.random.default_rng(11)
    L = len(_FORTY_LAMS)
    c = np.resize([1.0, -1.0, -1.0], L)
    inits = rng.normal(size=(L, 3, K)) + 1j * rng.normal(size=(L, 3, K))
    lam_axis = 1 if store else 0
    for coeffs in (general_coeffs128, const_coeffs):
        kw = dict(backward=backward, store=store)
        plain = _sweep(coeffs, c, _FORTY_LAMS, inits, **kw)
        states, _ = _sweep(coeffs, c, _FORTY_LAMS, inits, with_dlambda=True,
                           **kw)
        if coeffs is general_coeffs128:
            assert np.array_equal(plain, states)
            continue
        plain, states = (np.moveaxis(v, lam_axis, 0).reshape(L, -1)
                         for v in (plain, states))
        scale = np.abs(states).max(axis=1)
        assert (np.abs(plain - states).max(axis=1) <= 1e-13 * scale).all()


@pytest.mark.parametrize("store", [False, True])
@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("constant", [False, True])
def test_order_one_is_the_dlambda_sweep(general_coeffs128, const_coeffs,
                                        constant, backward, store):
    # Order 1 is the d/dlambda sweep: with_dlambda=1 returns the bits of
    # with_dlambda=True.  On the loop path an order-J sweep extends it:
    # its first two blocks are bitwise the d/dlambda sweep's, since
    # block j reads only blocks <= j and each chained sum adds its terms
    # in the same order.  On
    # the power path the step matrix of order J is larger, so the blocks
    # agree to rounding, <= 1e-13 of each lambda's maximum (measured
    # 1.8e-14).
    coeffs = const_coeffs if constant else general_coeffs128
    c = np.resize([1.0, -1.0, -1.0], len(_FORTY_LAMS))
    kw = dict(backward=backward, store=store)

    def sweep(order):
        return _sweep(coeffs, c, _FORTY_LAMS, np.eye(3), with_dlambda=order,
                      **kw)

    dlam = sweep(True)
    assert len(dlam) == 2
    for got, ref in zip(sweep(1), dlam):
        assert np.array_equal(got, ref)
    lam_axis = 1 if store else 0
    for order in (2, 5):
        blocks = sweep(order)
        assert len(blocks) == order + 1
        for got, ref in zip(blocks, dlam):
            if not constant:
                assert np.array_equal(got, ref)
                continue
            got, ref = (np.moveaxis(v, lam_axis, 0).reshape(len(c), -1)
                        for v in (got, ref))
            scale = np.abs(ref).max(axis=1)
            assert (np.abs(got - ref).max(axis=1) <= 1e-13 * scale).all()


@pytest.mark.parametrize("name", ["general_coeffs", "zero_coeffs"])
def test_taylor_sum_equals_direct_sweeps_in_the_disc(request, name):
    # sum_j T_j delta^j of an order-J sweep at c equals a plain sweep at
    # c + delta for |delta| up to the contour radius 1e-3 (1 + |c|),
    # at the order forward._taylor_order gives that disc (6 to 10 here):
    # within 1e-12 of each point's maximum (measured 5.3e-15 on the
    # general pair, 1.2e-13 on the zero pair, which takes the power
    # path), for both variants, at the end node and, for a stored sweep,
    # over the whole trajectory (the same figures).  The plain sweeps
    # carry no Taylor blocks, so they check the sign of the blocks of
    # c = -1 independently of the loop's blocks in mu = c lambda.
    coeffs = request.getfixturevalue(name)
    phase = np.exp(1j * (2.0 * np.pi * np.arange(8) / 8 + 0.3))
    for center in (77.0, 11200.0 + 300j, -5e4 + 1e3j, 1.31e6 - 2e4j):
        radius = 1e-3 * (1.0 + abs(center))
        order = _taylor_order(center, radius)
        assert 6 <= order <= 10
        delta = np.concatenate([radius * phase, 0.4 * radius * phase])
        for sign, store in itertools.product((1.0, -1.0), (False, True)):
            blocks = _sweep(coeffs, np.array([sign]), np.array([center]),
                            np.eye(3), with_dlambda=order, store=store)
            # (points, nodes, 3, 3) stored, (points, 3, 3) end values
            at = (delta[:, None, None, None] if store
                  else delta[:, None, None])
            taylor = blocks[-1][..., 0, :, :]
            for t in reversed(blocks[:-1]):
                taylor = taylor * at + t[..., 0, :, :]
            direct = _sweep(coeffs, np.full(delta.size, sign),
                            center + delta, np.eye(3), store=store)
            if store:
                direct = np.moveaxis(direct, 1, 0)
            axes = tuple(range(1, direct.ndim))
            scale = np.abs(direct).max(axis=axes)
            assert (np.abs(taylor - direct).max(axis=axes)
                    <= 1e-12 * scale).all()


@pytest.fixture
def sweep_paths(monkeypatch):
    # the name of the path each _sweep call takes
    taken = []
    for name in ("_power_sweep", "_loop_sweep"):
        def counting(*args, _name=name, _inner=getattr(quasi, name)):
            taken.append(_name)
            return _inner(*args)
        monkeypatch.setattr(quasi, name, counting)
    return taken


def _one_ulp_off_constant(grid):
    # a constant whose midpoint stencil is not bitwise the constant
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = complex(rng.normal(), rng.normal())
        f = GridFunction.constant(grid, v)
        if not np.array_equal(midpoint_values(f), f.values[:-1]):
            return f
    raise AssertionError("no constant with an inexact midpoint stencil")


def test_constant_pairs_take_the_power_path(grid512, sweep_paths):
    lams = np.array([9.0, 40.0j])
    tau1 = _one_ulp_off_constant(grid512)
    mids = midpoint_values(tau1)
    assert not np.array_equal(mids, tau1.values[:-1])
    assert np.abs(mids - tau1.values[0]).max() <= 4 * np.spacing(
        np.abs(tau1.values[0]))
    pair = CoefficientPair(tau1, GridFunction.constant(grid512, 0.0))
    _sweep(pair, SystemVariant.DIRECT, lams, np.eye(3), with_dlambda=True)
    assert sweep_paths == ["_power_sweep"]
    # a complex constant pair, as a model with a complex mean
    cplx = CoefficientPair(GridFunction.constant(grid512, 0.35 + 0.05j),
                           GridFunction.constant(grid512, 0.0))
    sweep_paths.clear()
    _sweep(cplx, SystemVariant.STAR, lams, np.eye(3), store=True)
    assert sweep_paths == ["_power_sweep"]


def test_one_ulp_off_node_takes_the_loop(const_coeffs, sweep_paths):
    tau1 = const_coeffs.tau1.values.copy()
    tau1[100] = complex(np.nextafter(tau1[100].real, 1.0), tau1[100].imag)
    pair = CoefficientPair(GridFunction(const_coeffs.grid, tau1),
                           const_coeffs.sigma0)
    lams = np.array([9.0, -30.0 + 4.0j])
    for backward in (False, True):
        got = _sweep(pair, SystemVariant.DIRECT, lams, np.eye(3),
                     with_dlambda=True, backward=backward, store=True)
        ref = _loop_sweep(pair, SystemVariant.DIRECT, lams,
                          np.eye(3, dtype=complex), True, backward, True)
        assert np.array_equal(got[0], ref[:, :, 0])
        assert np.array_equal(got[1], ref[:, :, 1])
    assert sweep_paths == ["_loop_sweep"] * 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("backward", [False, True])
def test_overflow_guard_on_power_path(grid128, backward):
    # Stored sweeps report the first non-finite node in sweep order (the
    # first step here), end-value sweeps the end node.  The error is the
    # only report: numpy overflow warnings would fail the test.
    pair = _const_pair(grid128, 1e200)
    M = grid128.M
    with pytest.raises(IntegrationOverflowError) as ei:
        _sweep(pair, SystemVariant.DIRECT, np.array([1.0]), np.eye(3),
               backward=backward, store=True)
    assert ei.value.node == (M - 1 if backward else 1)
    with pytest.raises(IntegrationOverflowError) as ei:
        _sweep(pair, SystemVariant.DIRECT, np.array([1.0]), np.eye(3),
               with_dlambda=True, backward=backward)
    assert ei.value.node == (0 if backward else M)


@pytest.fixture(scope="module")
def ragged_coeffs():
    # 100 = 3 * 32 + 4: the last stretch of an end-value sweep has 4 steps
    return from_callables(
        Grid(100),
        lambda x: np.cos(2.0 * np.pi * x) + 0.3 + 0.2j * np.sin(np.pi * x),
        lambda x: 0.25 * x * (1.0 - x) + 0.15j * np.sin(2.0 * np.pi * x))


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("with_dlambda", [False, True, 3])
@pytest.mark.parametrize("ragged", [False, True])
def test_stretch_lanes_equal_the_sequential_sweep(
        general_coeffs128, ragged_coeffs, ragged, with_dlambda, backward):
    # The stretch lanes against the M steps taken one after another: every
    # node of a stored sweep and the end values of an end-value sweep
    # differ by rounding only, <= 1e-13 of each lambda's row maximum in
    # each block, for 40 lambdas in two blocks, mixed variants and
    # per-lambda initial values, plain, d/dlambda and with the Taylor
    # blocks of order 3, which the lanes chain by the series product.
    coeffs = ragged_coeffs if ragged else general_coeffs128
    rng = np.random.default_rng(5)
    L = len(_FORTY_LAMS)
    c = np.resize([1.0, -1.0, -1.0], L)
    inits = rng.normal(size=(L, 3, 2)) + 1j * rng.normal(size=(L, 3, 2))
    args = (coeffs, c, _FORTY_LAMS, inits)
    kw = dict(with_dlambda=with_dlambda, backward=backward)
    ends = _sweep(*args, **kw)
    traj = _sweep(*args, store=True, **kw)
    ref = sequential_sweep(*args, **kw)                  # (M+1, L, B, 3, K)
    if not with_dlambda:
        ends, traj = (ends,), (traj,)
    end = 0 if backward else -1
    for b in range(ref.shape[2]):
        rows = np.moveaxis(ref[:, :, b], 1, 0).reshape(L, -1)
        scale = np.abs(rows).max(axis=1)
        got = np.moveaxis(traj[b], 1, 0).reshape(L, -1)
        assert (np.abs(got - rows).max(axis=1) <= 1e-13 * scale).all()
        rows = ref[end, :, b].reshape(L, -1)
        scale = np.abs(rows).max(axis=1)
        got = ends[b].reshape(L, -1)
        assert (np.abs(got - rows).max(axis=1) <= 1e-13 * scale).all()


@pytest.mark.parametrize("backward", [False, True])
def test_nan_in_the_ragged_last_stretch(ragged_coeffs, backward):
    # The last stretch in sweep order holds nodes 96..100 forward and
    # 4..0 backward; a NaN there is reported at its end node, by stored
    # and end-value sweeps alike.
    vals = ragged_coeffs.sigma0.values.copy()
    vals[2 if backward else 98] = np.nan
    pair = CoefficientPair(ragged_coeffs.tau1,
                           GridFunction(ragged_coeffs.grid, vals))
    for store in (False, True):
        with pytest.raises(IntegrationOverflowError) as ei:
            _sweep(pair, SystemVariant.DIRECT, np.array([9.0, 4.0j]),
                   np.eye(3), with_dlambda=True, backward=backward,
                   store=store)
        assert ei.value.node == (0 if backward else 100)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("with_dlambda", [False, True])
def test_overflow_in_the_chain_raises_without_warnings(grid128,
                                                       with_dlambda):
    # tau1 = -1e6 (1 + x / 10): each RK4 step grows the state about 300
    # times, each stretch propagator about 1e80 times, so the states stay
    # finite through three stretches and the product overflows in the
    # fourth.  The error is the only report: numpy warnings would fail
    # the test.
    tau1 = GridFunction(grid128, -1e6 * (1.0 + 0.1 * grid128.nodes) + 0j)
    pair = CoefficientPair(tau1, GridFunction.constant(grid128, 0.0))
    for store in (False, True):
        with pytest.raises(IntegrationOverflowError) as ei:
            _sweep(pair, SystemVariant.DIRECT, np.array([1.0]), np.eye(3),
                   with_dlambda=with_dlambda, store=store)
        assert ei.value.node == grid128.M


@pytest.mark.parametrize("backward", [False, True])
def test_gathered_rows_equal_pq(ragged_coeffs, backward):
    # The rows each step gathers for its lanes hold, lane by lane, what
    # pq_by_sign gives that lambda's variant at the start node, the
    # midpoint and the end node of the lane's own cell, in sweep order:
    # 40 lambdas of mixed variants in two blocks, the second ragged, on
    # the ragged grid, whose last stretch's lanes run on past the end and
    # read cell M - 1 there.
    M, L = ragged_coeffs.grid.M, 40
    c = np.resize([1.0, -1.0, -1.0], L)
    sn, tn = ragged_coeffs.sigma0.values, ragged_coeffs.tau1.values
    sm, tm = (midpoint_values(ragged_coeffs.sigma0),
              midpoint_values(ragged_coeffs.tau1))
    if backward:
        sn, tn, sm, tm = sn[::-1], tn[::-1], sm[::-1], tm[::-1]
    (Pn, Qn), (Pm, Qm) = pq_by_sign(c, sn, tn), pq_by_sign(c, sm, tm)
    # p and q at sample k of cell m, (M, 3, L) each
    P = np.stack((Pn[:-1], Pm, Pn[1:]), axis=1)
    Q = np.stack((Qn[:-1], Qm, Qn[1:]), axis=1)
    table = _stretch_cells(_cells(ragged_coeffs, backward))
    first = _STRETCH * np.arange(-(-M // _STRETCH))[:, None]
    for l0 in range(0, L, _LAM_BLOCK):
        blk = slice(l0, l0 + _LAM_BLOCK)
        steps = 0
        for i, gathered in enumerate(_lane_rows(table, c[blk])):
            # lane (stretch j, lambda l), stretch-major
            m = np.minimum(first + i, M - 1)
            for k, (p, q) in enumerate(gathered):
                assert np.array_equal(p, P[m, k, blk].ravel())
                assert np.array_equal(q, Q[m, k, blk].ravel())
            steps += 1
        assert steps == _STRETCH


def test_each_step_reads_its_own_cells_start(ragged_coeffs):
    # At a jump a cell's start sample is not the previous cell's end
    # sample: here at cell 32, the first of stretch 1, and at cell 45,
    # inside it.  Each step's start row is its own cell's start, not the
    # end row of the step before.
    cells = _cells(ragged_coeffs, False).copy()
    for m in (_STRETCH, _STRETCH + 13):
        cells[m, 0] += 1.0 - 0.5j
        assert (cells[m, 0] != cells[m - 1, 2]).all()
    M = cells.shape[0]
    c = np.array([1.0, -1.0, 1.0])
    col = np.where(c > 0, 0, 1)                 # the column of p
    table = _stretch_cells(cells)
    first = _STRETCH * np.arange(table.shape[2] // 2)[:, None]
    for i, ((p, q), _, _) in enumerate(_lane_rows(table, c)):
        m = np.minimum(first + i, M - 1)
        assert np.array_equal(p, cells[m, 0, col].ravel())
        assert np.array_equal(q, cells[m, 0, 1 - col].ravel())


@pytest.mark.parametrize("L, with_dlambda, bound_mib",
                         [(64, False, 1.0), (60, True, 1.6)])
def test_sweep_transient_memory(general_coeffs, L, with_dlambda,
                                bound_mib):
    # One loop sweep at M = 512 holds little beyond its output: the lanes
    # gather their p and q rows step by step and RK4 runs in three
    # state-sized buffers.  The plain sweep of 64 lambdas is a Weyl
    # contour, the d/dlambda sweep of 60 the first Newton sweep of the
    # forward map at n_max 30.  (steps, lanes) coefficient tables and
    # five stage buffers peaked at 1745 and 2345 KiB above the output.
    lams = 40.0 + 5.0 * np.exp(2j * np.pi * np.arange(L) / L)
    c = np.repeat([-1.0, 1.0], L // 2)

    def sweep():
        return _sweep(general_coeffs, c, lams, np.eye(3),
                      with_dlambda=with_dlambda)

    sweep()
    tracemalloc.start()
    try:
        res = sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(r.nbytes for r in (res if with_dlambda else (res,)))
    assert peak - out < bound_mib * 2**20
