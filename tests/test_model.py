import numpy as np
import pytest

from spectral3.errors import AdmissibilityViolationError
from spectral3.grid import GridFunction, integrate
from spectral3 import model
from spectral3.inverse import assemble, run_inverse
from spectral3.model import (ModelCache, build_model, distance_d,
                            spectral_gaps, xi_sequence)
from spectral3.quasi import SystemVariant

from helpers import differentiate


@pytest.fixture(scope="module")
def cache8(smooth_data8, grid512):
    return build_model(smooth_data8, grid512, 8)


@pytest.fixture(scope="module")
def assembly8(cache8, smooth_data8):
    return assemble(smooth_data8, cache8, 8)


def test_default_model_shape(cache8, smooth_data8):
    assert cache8.model_data.n_max == 12           # N + margin
    assert cache8.model_data.K == []
    theta = smooth_data8.theta
    tau1 = cache8.coeffs.tau1.values
    assert np.abs(tau1 - theta).max() < 1e-14 * (1.0 + abs(theta))
    assert np.abs(cache8.coeffs.sigma0.values).max() == 0.0
    assert abs(integrate(cache8.coeffs.tau1) - theta) < 1e-12


def test_n_beyond_data_rejected(smooth_data8, grid512):
    with pytest.raises(ValueError, match="exceeds"):
        build_model(smooth_data8, grid512, 9)


@pytest.mark.parametrize("N", [0, -1])
def test_order_below_one_rejected_before_any_sweep(smooth_data8, grid512,
                                                   sweep_calls, N):
    with pytest.raises(ValueError, match="must be at least 1"):
        build_model(smooth_data8, grid512, N)
    assert sweep_calls == []


def test_condition4_collision(smooth_data8, grid512):
    clean = build_model(smooth_data8, grid512, 4)
    collided = smooth_data8.copy()
    collided.lambdas[0, 0] = clean.model_data.lam(1, 1)
    with pytest.raises(AdmissibilityViolationError) as ei:
        build_model(collided, grid512, 4)
    assert ei.value.condition == 4
    assert ei.value.gap < 1e-8


def test_xi_and_distance_oracles(smooth_data8):
    pert = smooth_data8.copy()
    pert.betas[1, 0] += 0.4             # beta_{2,1}: xi_2 = 0.4/2^3
    xi = xi_sequence(pert, smooth_data8, 8)
    assert xi.shape == (8,)
    assert abs(xi[1] - 0.05) < 1e-11
    assert np.abs(np.delete(xi, 1)).max() == 0.0
    assert abs(distance_d(pert, smooth_data8) - 0.1) < 1e-11

    pert2 = smooth_data8.copy()
    pert2.lambdas[0, 0] += 0.1          # lambda_{1,1}: xi_1 = 0.1/1^2
    xi2 = xi_sequence(pert2, smooth_data8, 8)
    assert abs(xi2[0] - 0.1) < 1e-11
    assert abs(distance_d(pert2, smooth_data8) - 0.1) < 1e-11
    assert distance_d(pert2, smooth_data8, N=8) == distance_d(pert2, smooth_data8)


@pytest.mark.parametrize("N, message", [(0, "must be at least 1"),
                                        (-1, "must be at least 1"),
                                        (9, "N=9 exceeds")])
def test_gaps_refuse_orders_outside_the_data(smooth_data8, N, message):
    # N = -1 read the first n_max - 1 rows before the lower bound was
    # checked
    for metric in (spectral_gaps, xi_sequence, distance_d):
        with pytest.raises(ValueError, match=message):
            metric(smooth_data8, smooth_data8, N)


def test_eta_vanishes_at_origin(assembly8):
    for v, eta in zip(assembly8.V, assembly8.eta):
        assert abs(eta[0]) < 1e-13 * (1.0 + np.abs(eta).max()), v


def test_eta_derivative_consistent(assembly8):
    i = assembly8.V.tolist().index([3, 1, 1])
    eta, deta = assembly8.eta[i], assembly8.deta[i]
    g = GridFunction(assembly8.grid, eta)
    num = differentiate(g).values
    assert np.abs(num - deta).max() < 1e-5 * (1.0 + np.abs(deta).max())


def test_phi2_vanishes_at_one_on_model_spectrum(cache8):
    lam = cache8.model_data.lam(2, 1)
    st = cache8.rows(SystemVariant.DIRECT, 2, [lam]).take()[0]
    assert abs(st[-1, 0]) < 1e-9 * (1.0 + np.abs(st[:, 0]).max())
    assert abs(st[0, 0]) < 1e-13
    assert abs(st[0, 1] - 1.0) < 1e-13


@pytest.fixture
def weyl_batch_calls(monkeypatch):
    # (variant, k, L) of every weyl_batch call the model cache makes
    calls = []
    inner = model.weyl_batch

    def counting(coeffs, lams, variant, k):
        calls.append((variant, k, len(lams)))
        return inner(coeffs, lams, variant, k)

    monkeypatch.setattr(model, "weyl_batch", counting)
    return calls


def test_cache_fills_each_state_once(cache8, weyl_batch_calls):
    fresh = ModelCache(coeffs=cache8.coeffs, model_data=cache8.model_data)
    lams = [cache8.model_data.lam(1, 2), 5.0 - 2.0j,
            cache8.model_data.lam(1, 2)]
    a = fresh.rows(SystemVariant.DIRECT, 3, lams).take()
    assert weyl_batch_calls == [(SystemVariant.DIRECT, 3, 2)]
    assert a.shape == (3, cache8.grid.M + 1, 3)
    assert np.array_equal(a[0], a[2])
    b = fresh.rows(SystemVariant.DIRECT, 3, lams[::-1]).take()
    assert len(weyl_batch_calls) == 1
    assert np.array_equal(a, b[::-1])


def test_rows_takes_one_family_per_lambda(cache8, weyl_batch_calls):
    # one request with a family per lambda reads the bytes of one request
    # per family, and fills the cache with the same weyl_batch calls: one
    # per family, in ascending k whatever the request's order; 5 - 2j
    # repeats within family 3, and 2 - 1j is asked for under both families
    lams = np.array([5.0 - 2.0j, 2.0 - 1.0j, 3.0 + 1.0j, 2.0 - 1.0j,
                     5.0 - 2.0j])
    ks = np.array([3, 3, 2, 2, 3])
    one = ModelCache(coeffs=cache8.coeffs, model_data=cache8.model_data)
    whole = one.rows(SystemVariant.STAR, ks, lams).take()
    calls = list(weyl_batch_calls)
    weyl_batch_calls.clear()
    per_family = ModelCache(coeffs=cache8.coeffs,
                            model_data=cache8.model_data)
    expected = np.empty_like(whole)
    for k in (2, 3):
        expected[ks == k] = per_family.rows(SystemVariant.STAR, k,
                                            lams[ks == k]).take()
    assert calls == weyl_batch_calls == [(SystemVariant.STAR, 2, 2),
                                         (SystemVariant.STAR, 3, 2)]
    assert whole.tobytes() == expected.tobytes()
    assert one.phi_star.keys() == per_family.phi_star.keys()


def test_cache_arrays_are_read_only(cache8):
    # the cache hands out its own arrays without a copy, read-only, while
    # take gives each caller a writable copy
    lams = [cache8.model_data.lam(1, 2), 5.0 - 2.0j]
    rows = cache8.rows(SystemVariant.DIRECT, 3, lams)
    assert rows.size == 2
    for array, _, _ in rows.groups:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0, 0] = 1.0
    copy = rows.take()
    assert np.array_equal(copy, rows.take())
    copy[:] = 0.0
    assert np.abs(rows.take()).max() > 0.0


def test_weyl_states_built_once_per_inverse_run(smooth_data8, grid512,
                                                weyl_batch_calls):
    cache = build_model(smooth_data8, grid512, 4)
    assert weyl_batch_calls == []
    res = run_inverse(smooth_data8, grid512, 4, cache=cache)
    assert len(weyl_batch_calls) == 4
    assert set(weyl_batch_calls) == {
        (variant, k, 8) for variant in SystemVariant for k in (2, 3)}
    assert res.assembly.cache is cache
    weyl_batch_calls.clear()
    assemble(smooth_data8, cache, 4)
    assert weyl_batch_calls == []


def test_eta_recomputed_for_foreign_data(cache8, assembly8, smooth_data8):
    other = smooth_data8.copy()
    other.betas[0, 0] *= 2.0
    foreign = assemble(other, cache8, 8)
    i = assembly8.V.tolist().index([1, 1, 0])
    eta0, deta0 = assembly8.eta[i], assembly8.deta[i]
    eta2, deta2 = foreign.eta[i], foreign.deta[i]
    assert np.abs(eta2 - 2.0 * eta0).max() < 1e-12 * (1.0 + np.abs(eta0).max())
    assert np.abs(deta2 - 2.0 * deta0).max() < 1e-12 * (1.0 + np.abs(deta0).max())
