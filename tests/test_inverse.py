import tracemalloc

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from spectral3.errors import PoleHitError, SingularSystemError
from spectral3.forward import SpectralData, compute_spectral_data
from spectral3.grid import (CoefficientPair, GridFunction, cumulative,
                            l2_norm, w2m1_distance)
from spectral3 import inverse, model
from spectral3.inverse import (_NODE_BLOCK, _WEYL_TOL, MainAssembly,
                               StarStates, _bracket, _kernel_factors,
                               _phiN_tables, assemble, index_set,
                               reconstruct, run_inverse, solve_phi,
                               stability_experiment, verify_spectral,
                               verify_weyl)
from spectral3.model import ModelCache, build_model
from spectral3.quasi import SystemVariant
from spectral3.serialize import dumps17

from helpers import (WholeGridAssembly, differentiate, index_families,
                     whole_grid_bracket, whole_grid_kernel_factors,
                     whole_grid_star_states)

_VALID_KJ = {(2, 2), (2, 3), (3, 2), (3, 3)}


def kernel_D(cache, kj, lam, mu, regularized=False):
    """Nodal values of D_{k,j}(x, lambda, mu) for (k, j) in {2,3} x {2,3}
    on the grid of the model cache.

    The pairing of Phi*_k(., lambda) with Phi_j(., mu), built by the
    kernel routines assemble uses.  The pole 1/(lambda - mu) of D_{2,2}
    may be regularized at an exact coincidence, with gamma = 0.
    """
    k, j = int(kj[0]), int(kj[1])
    if (k, j) not in _VALID_KJ:
        raise ValueError("kernel indices %r not supported" % (kj,))
    lam, mu = np.array([lam], dtype=complex), np.array([mu], dtype=complex)
    reg = np.array([regularized])
    star = StarStates(cache.rows(SystemVariant.STAR, k, lam), np.ones(1),
                      lam, np.array([1.0 if k == 2 else 0.0]), reg,
                      np.zeros(reg.sum(), dtype=complex),
                      cache.rows(SystemVariant.STAR, 3, lam[reg]))
    Y = cache.rows(SystemVariant.DIRECT, j, mu)
    D = _bracket(_kernel_factors(star, star.take(comps=0), Y, mu, j))
    return GridFunction(cache.grid, D[:, 0, 0])


@pytest.fixture(scope="module")
def result4(smooth_data8, grid512):
    return run_inverse(smooth_data8, grid512, 4)


@pytest.fixture(scope="module")
def cache4(smooth_data8, grid512):
    return build_model(smooth_data8, grid512, 4)


def test_index_set_order():
    V = index_set(2)
    assert V.dtype.kind == "i"
    assert V.tolist() == [
        [1, 1, 0], [1, 1, 1], [1, 2, 0], [1, 2, 1],
        [2, 1, 0], [2, 1, 1], [2, 2, 0], [2, 2, 1],
    ]


@pytest.mark.parametrize("N", [1, 2, 5, 24])
def test_index_set_has_4N_rows(N):
    # the system size: perfbench notes len(assembly.V) as it
    V = index_set(N)
    assert V.shape == (4 * N, 3) and len(V) == 4 * N
    k, eps = index_families(N)
    assert np.array_equal(V[:, 1], k) and np.array_equal(V[:, 2], eps)
    assert np.array_equal(V[:, 0], np.repeat(np.arange(1, N + 1), 4))


def test_kernel_origin_values(cache4, grid512):
    lam, mu = 3.0 + 2.0j, -7.0 + 1.0j
    for kj in ((2, 2), (2, 3), (3, 2), (3, 3)):
        D = kernel_D(cache4, kj, lam, mu)
        if kj == (2, 2):
            assert abs(D.values[0] - 1.0 / (lam - mu)) < 1e-12
        else:
            assert abs(D.values[0]) < 1e-12


def _two_forms(cache, k, j, lam, mu):
    zs = cache.rows(SystemVariant.STAR, k, [lam]).take()[0]
    ys = cache.rows(SystemVariant.DIRECT, j, [mu]).take()[0]
    bracket = (zs[:, 2] * ys[:, 0] - zs[:, 1] * ys[:, 1]
               + zs[:, 0] * ys[:, 2]) / (mu - lam)
    integ = cumulative(GridFunction(cache.grid, zs[:, 0] * ys[:, 0])).values
    if (k, j) == (2, 2):
        integ = integ + 1.0 / (lam - mu)
    return bracket, integ


def test_kernel_bracket_equals_integral(cache4):
    pairs = [(3.0 + 2.0j, -7.0 + 1.0j), (12.0 - 4.0j, 9.0 + 3.0j),
             (-20.0 + 5.0j, 14.0 - 2.0j), (0.5 - 1.0j, 2.5 + 2.0j)]
    for lam, mu in pairs:
        for kj in ((2, 2), (2, 3), (3, 2), (3, 3)):
            bracket, integ = _two_forms(cache4, kj[0], kj[1], lam, mu)
            scale = 1.0 + np.abs(bracket).max()
            assert np.abs(bracket - integ).max() < 1e-7 * scale, (kj, lam, mu)


def test_kernel_forms_agree_across_switch(cache4, grid512):
    # kernel_D picks bracket or integral depending on |lambda - mu|; the
    # other form must agree just on either side of the switch
    lam = 3.0 + 2.0j
    for gap_scale in (0.3, 3.0):
        mu = lam + gap_scale * 1e-6 * (1.0 + abs(lam))
        for kj in ((2, 2), (2, 3), (3, 2), (3, 3)):
            D = kernel_D(cache4, kj, lam, mu).values
            bracket, integ = _two_forms(cache4, kj[0], kj[1], lam, mu)
            other = integ if gap_scale > 1 else bracket
            scale = 1.0 + np.abs(D).max()
            assert np.abs(D - other).max() < 1e-6 * scale, (kj, gap_scale)


def test_kernel_pole_and_guards(cache4, grid512):
    lam = 3.0 + 2.0j
    with pytest.raises(PoleHitError):
        kernel_D(cache4, (2, 2), lam, lam)
    reg = kernel_D(cache4, (2, 2), lam, lam, regularized=True)
    assert np.isfinite(reg.values).all()
    # no pole for the other kernels on the diagonal
    assert np.isfinite(kernel_D(cache4, (3, 3), lam, lam).values).all()
    with pytest.raises(ValueError, match="indices"):
        kernel_D(cache4, (1, 2), lam, 2.0 * lam)


def test_model_data_is_a_fixed_point(grid512):
    # run the machinery on the model's own data: the solution must be
    # phi = tilde_phi and the recovered pair the model pair itself
    N = 6
    model_coeffs = CoefficientPair(GridFunction.constant(grid512, 0.3),
                                   GridFunction.constant(grid512, 0.0))
    model_full = compute_spectral_data(model_coeffs, N + 4)
    data = model_full.truncate(N)
    cache = ModelCache(coeffs=model_coeffs, model_data=model_full)
    assembly = assemble(data, cache, N)

    # the eps-paired columns of A cancel exactly when data == model
    size = len(assembly.V)
    eye = np.eye(size)
    for idx in range(0, size, 2):
        col_sum = assembly.A[:, :, idx] + assembly.A[:, :, idx + 1]
        expect = eye[:, idx] + eye[:, idx + 1]
        assert np.abs(col_sum - expect[None, :]).max() < 1e-15

    phi, dphi, diag = solve_phi(assembly)
    tilde_phi = assembly.tilde_states()[0]
    scale = 1.0 + np.abs(tilde_phi).max()
    assert np.abs(phi - tilde_phi).max() < 1e-10 * scale
    assert diag["rcond_min"] > 1e-8

    res = reconstruct(assembly, phi, dphi, solve_diag=diag)
    assert l2_norm(res.tau1N - GridFunction.constant(grid512, 0.3)) < 1e-10
    assert w2m1_distance(res.sigma0N,
                         GridFunction.constant(grid512, 0.0)) < 1e-10
    assert res.diagnostics["d"] == 0.0


def _gprime(assembly: MainAssembly, i_v: int, i_v0: int) -> np.ndarray:
    """G'_{v,v0} = eta_v * tilde_phi_{v0} (nodal values)."""
    return assembly.eta[i_v] * assembly.tilde_states()[0][i_v0]


def test_gprime_identity(smooth_data8, cache4, grid512):
    # the kernels satisfy G'_{v,v0} = eta_v tilde_phi_{v0} exactly; check
    # the assembled node tables against numerical differentiation
    assembly = assemble(smooth_data8, cache4, 4)
    size = len(assembly.V)
    eye = np.eye(size)
    for i_v, i_v0 in ((0, 3), (5, 2), (10, 13), (7, 7)):
        G = assembly.signs[i_v] * (eye[i_v0, i_v] - assembly.A[:, i_v0, i_v])
        num = differentiate(GridFunction(grid512, G)).values
        ref = _gprime(assembly, i_v, i_v0)
        assert np.abs(num - ref).max() < 1e-4 * (1.0 + np.abs(ref).max())


def test_dphi_consistent_with_phi(result4, grid512):
    for i in (0, 5, 10, 15):
        num = differentiate(GridFunction(grid512, result4.phi[i])).values
        ref = result4.dphi[i]
        assert np.abs(num - ref).max() < 1e-4 * (1.0 + np.abs(ref).max())


def test_run_inverse_deterministic(smooth_data8, grid512):
    a = run_inverse(smooth_data8, grid512, 3)
    b = run_inverse(smooth_data8, grid512, 3)
    assert np.array_equal(a.tau1N.values, b.tau1N.values)
    assert np.array_equal(a.sigma0N.values, b.sigma0N.values)
    assert np.array_equal(a.phi, b.phi)


def test_stability_rows_repeat_exactly(smooth_data8, grid512):
    rows1 = stability_experiment(smooth_data8, grid512, 3,
                                 deltas=[1e-2, 5e-3])
    assert rows1[0] == {"delta": 0.0, "d": 0.0, "tau1_l2": 0.0,
                        "sigma0_w2m1": 0.0, "tau1_ratio": None,
                        "sigma0_ratio": None, "status": "ok"}
    # perturbing beta_{1,1} by delta gives d = delta exactly
    assert abs(rows1[1]["d"] - 1e-2) < 1e-11
    assert abs(rows1[2]["d"] - 5e-3) < 1e-11
    assert all(r["status"] == "ok" for r in rows1)
    rows2 = stability_experiment(smooth_data8, grid512, 3,
                                 deltas=[1e-2, 5e-3])
    assert rows1 == rows2


def test_stability_input_guards(smooth_data8, smooth_data20, grid512):
    with pytest.raises(ValueError, match="lambda"):
        stability_experiment(smooth_data8, grid512, 3,
                             entries=((1, 1, "theta"),))
    # non-finite steps are rejected before any solve
    for bad in ([float("nan"), 1e-2], [float("inf")], [-float("inf")]):
        with pytest.raises(ValueError, match="must be finite"):
            stability_experiment(smooth_data8, grid512, 3, deltas=bad)
    # entries outside the truncation N are rejected before any solve
    for n, k in ((99, 1), (4, 1), (1, 3)):
        with pytest.raises(ValueError, match="perturbation entry"):
            stability_experiment(smooth_data8, grid512, 3,
                                 entries=((n, k, "beta"),))
    # coinciding pairs are rejected at n <= N only: a pair at n = 10 lies
    # outside the truncation N = 3 and leaves the ladder unchanged
    data12 = smooth_data20.truncate(12)
    for n, fails in ((2, True), (10, False)):
        lam, beta = data12.lambdas.copy(), data12.betas.copy()
        lam[n - 1, 1], beta[n - 1, 0] = lam[n - 1, 0], 0.0
        paired = SpectralData(data12.theta, lam, beta, K=[n],
                              gamma={n: 1.0})
        if fails:
            with pytest.raises(ValueError, match="coinciding"):
                stability_experiment(paired, grid512, 3, deltas=[1e-2])
        else:
            assert (stability_experiment(paired, grid512, 3, deltas=[1e-2])
                    == stability_experiment(smooth_data8, grid512, 3,
                                            deltas=[1e-2]))


@pytest.mark.parametrize("bad, value, node", [
    ((3,), 0.0, 3),
    ((200,), 0.0, 200),          # a later block of nodes
    ((512,), 0.0, 512),          # the last node, alone in its block
    ((5,), np.nan, 5),
    ((201, 7), 0.0, 7),          # the lower singular node is reported
    ((18, 17), 0.0, 17),         # two in one block
], ids=["node3", "node200", "last", "nan", "two", "two_in_block"])
def test_singular_node_guard(smooth_data8, cache4, bad, value, node,
                             monkeypatch):
    # solve_phi builds the node matrices block by block; overwrite the bad
    # nodes inside the blocks that contain them
    build = MainAssembly.node_matrices

    def patched(self, nodes=slice(None), w=None):
        A = build(self, nodes, w)
        for m in bad:
            if nodes.start <= m < nodes.stop:
                A[m - nodes.start] = value
        return A

    monkeypatch.setattr(MainAssembly, "node_matrices", patched)
    assembly = assemble(smooth_data8, cache4, 4)
    with pytest.raises(SingularSystemError) as ei:
        solve_phi(assembly)
    assert ei.value.node == node


def _coinciding_data(smooth_data8):
    # synthetic coinciding pair at n = 1: second eigenvalue snapped onto
    # the first, beta_{1,1} zeroed, an extra weight gamma supplied
    d = smooth_data8.truncate(6)
    d.lambdas[0, 1] = d.lambdas[0, 0]
    d.betas[0, 0] = 0.0
    return type(d)(theta=d.theta, lambdas=d.lambdas, betas=d.betas,
                   K=[1], gamma={1: 1.0})


def test_assemble_fills_each_family_in_one_call(smooth_data8, grid512,
                                                monkeypatch):
    # on a fresh cache assemble makes one weyl_batch call per variant and
    # family, the star states first and the families in ascending k; on
    # coinciding data the Phi*_3 request of the K rows is all cache hits,
    # lam_{1,2} = lam_{1,1} having been filled with the k = 1 rows
    calls, requests = [], []
    batch, ensure = model.weyl_batch, ModelCache._ensure

    def counting_batch(coeffs, lams, variant, k):
        calls.append((variant, k))
        return batch(coeffs, lams, variant, k)

    def counting_ensure(self, table, variant, lams, k):
        hits = sum((k, complex(lam)) in table for lam in lams)
        requests.append((variant, k, len(lams), hits))
        return ensure(self, table, variant, lams, k)

    monkeypatch.setattr(model, "weyl_batch", counting_batch)
    monkeypatch.setattr(ModelCache, "_ensure", counting_ensure)
    STAR, DIRECT = SystemVariant.STAR, SystemVariant.DIRECT
    for data, N in ((smooth_data8, 4), (_coinciding_data(smooth_data8), 3)):
        cache = build_model(data, grid512, N)
        calls.clear()
        requests.clear()
        assemble(data, cache, N)
        assert calls == [(STAR, 2), (STAR, 3), (DIRECT, 2), (DIRECT, 3)]
    assert requests == [(STAR, 2, 6, 0), (STAR, 3, 6, 0), (STAR, 3, 1, 1),
                        (DIRECT, 2, 6, 0), (DIRECT, 3, 6, 0)]


def _solve_phi_per_node(assembly):
    # the node loop solve_phi replaced: the unscaled matrices rescaled
    # entry by entry, then scipy's lu_factor/lu_solve and gecon one node
    # at a time
    grid = assembly.grid
    M = grid.M
    A = assembly.A
    tilde_phi, tilde_dphi = assembly.tilde_states()
    eta = assembly.eta
    phi = np.empty((len(assembly.V), M + 1), dtype=complex)
    dphi = np.empty_like(phi)
    gecon = get_lapack_funcs(("gecon",), (A,))[0]
    rcond_min, rcond_node = np.inf, -1
    residual_max = 0.0
    for m in range(M + 1):
        w = np.exp(assembly.rates * grid.nodes[m])
        Ahat = A[m] * (w[None, :] / w[:, None])
        anorm = float(np.abs(Ahat).sum(axis=0).max())
        lu = lu_factor(Ahat, check_finite=False)
        rcond = float(gecon(lu[0], anorm)[0])
        assert np.isfinite(rcond) and rcond >= 1e-13
        if rcond < rcond_min:
            rcond_min, rcond_node = rcond, m
        b1 = tilde_phi[:, m] / w
        xhat = lu_solve(lu, b1, check_finite=False)
        phi[:, m] = w * xhat
        res = float(np.abs(Ahat @ xhat - b1).max() / (1.0 + np.abs(b1).max()))
        residual_max = max(residual_max, res)
        s = np.sum(assembly.signs * eta[:, m] * phi[:, m])
        b2 = (tilde_dphi[:, m] + tilde_phi[:, m] * s) / w
        dphi[:, m] = w * lu_solve(lu, b2, check_finite=False)
    diag = {"rcond_min": rcond_min, "rcond_node": rcond_node,
            "cond_max": 1.0 / rcond_min, "residual_max": residual_max}
    return phi, dphi, diag


def test_solve_phi_matches_per_node_reference(smooth_data8, cache4, grid512,
                                              general_coeffs128, grid128):
    # solve_phi builds its matrices already scaled, the weights applied to
    # the kernel factors, so it agrees with the reference to rounding, not
    # bit for bit.  Tolerances fixed in advance: phi and phi' row by row
    # within 1e-10 of the row's max modulus (the coinciding pair, rcond
    # 1.4e-9, moves most), the same rcond node, rcond_min to a relative
    # 1e-12.
    d = _coinciding_data(smooth_data8)
    near, near_pole = _near_coinciding_data(smooth_data8, cache4)
    data128 = compute_spectral_data(general_coeffs128, 4)
    for data, cache, N in ((smooth_data8, cache4, 4),
                           (d, build_model(d, grid512, 3), 3),
                           (data128, build_model(data128, grid128, 3), 3),
                           (near, build_model(near, grid512, 4), 4)):
        assembly = assemble(data, cache, N)
        A = assembly.A
        phi, dphi, diag = solve_phi(assembly)
        ref_phi, ref_dphi, ref_diag = _solve_phi_per_node(assembly)
        for got, ref in ((phi, ref_phi), (dphi, ref_dphi)):
            err = np.abs(got - ref).max(axis=1)
            assert (err <= 1e-10 * np.abs(ref).max(axis=1)).all()
        assert diag["rcond_node"] == ref_diag["rcond_node"]
        assert abs(diag["rcond_min"] - ref_diag["rcond_min"]) \
            <= 1e-12 * ref_diag["rcond_min"]
        assert diag["residual_max"] <= 1e-12
        assert np.array_equal(assembly.A, A)
    # a data eigenvalue next to the model's first-family one enters the
    # (2, 2) pole term with lambda != mu: node 0 is numerically singular
    # (rcond about 1e-15)
    assembly = assemble(near_pole, build_model(near_pole, grid512, 4), 4)
    with pytest.raises(SingularSystemError) as ei:
        solve_phi(assembly)
    assert ei.value.node == 0


def test_solve_phi_makes_one_lapack_pass_per_node(smooth_data8, cache4,
                                                  monkeypatch):
    # each node is finished before the next is factored: getrf, gecon,
    # then one single-column getrs for phi and one for phi', so no
    # factorization waits for a second pass and no getrs gets a
    # two-column right-hand side
    calls = []

    def wrap(name, func):
        def call(*args, **kwargs):
            calls.append((name, np.ndim(args[2]) if name == "getrs"
                          else None))
            return func(*args, **kwargs)
        return call

    routines = tuple(wrap(name, func) for name, func in
                     zip(("getrf", "gecon", "getrs"),
                         inverse._lapack_routines()))
    monkeypatch.setattr(inverse, "_lapack_routines", lambda: routines)
    assembly = assemble(smooth_data8, cache4, 4)
    solve_phi(assembly)
    nodes = assembly.grid.M + 1
    assert [name for name, _ in calls] == ["getrf", "gecon", "getrs",
                                           "getrs"] * nodes
    rhs_ndim = [ndim for name, ndim in calls if name == "getrs"]
    assert rhs_ndim == [1] * (2 * nodes)


@pytest.fixture
def lapack_cache():
    # the routines are cached once per process; start and leave the test
    # with an empty cache, so no other test reads a route set here
    inverse._lapack_routines.cache_clear()
    yield
    inverse._lapack_routines.cache_clear()


def test_lapack_routes_give_the_same_bytes(smooth_data8, cache4,
                                           monkeypatch, lapack_cache):
    # the extension scipy.linalg._flapack loaded on its own, the fallback
    # taken when it is not found, and scipy.linalg.get_lapack_funcs give
    # bitwise the same phi, phi' and diag
    assembly = assemble(smooth_data8, cache4, 4)
    outs = [solve_phi(assembly)]

    searched = []

    class NoSpec:
        @staticmethod
        def find_spec(name, path=None):
            searched.append(name)
            return None

    inverse._lapack_routines.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(inverse, "PathFinder", NoSpec)
        outs.append(solve_phi(assembly))
    assert searched == ["scipy.linalg._flapack"]

    public = tuple(get_lapack_funcs(("getrf", "gecon", "getrs"),
                                    dtype=np.complex128))
    with monkeypatch.context() as m:
        m.setattr(inverse, "_lapack_routines", lambda: public)
        outs.append(solve_phi(assembly))
    phi, dphi, diag = outs[0]
    for other_phi, other_dphi, other_diag in outs[1:]:
        assert np.array_equal(other_phi, phi)
        assert np.array_equal(other_dphi, dphi)
        assert other_diag == diag


def _pairwise_A(data, cache, N):
    # the main-system matrix entry by entry from kernel_D above:
    # A[m, v0, v] = delta - (-1)^eps(v) G_{v,v0}(x_m)
    data_N = data.truncate(N)
    V = [(n, k, e) for n in range(1, N + 1) for k in (1, 2) for e in (0, 1)]
    src = [data_N if e == 0 else cache.model_data for _, _, e in V]
    lam = [d.lam(n, k) for d, (n, k, _) in zip(src, V)]
    beta = [d.beta(n, k) for d, (n, k, _) in zip(src, V)]
    A = np.empty((cache.grid.M + 1, len(V), len(V)), dtype=complex)
    for i, (n, k, e) in enumerate(V):
        for i0, (_, k0, _) in enumerate(V):
            def D(kk, regularized=False):
                return kernel_D(cache, (kk, k0 + 1), lam[i], lam[i0],
                                regularized=regularized).values
            if e == 0 and k == 2 and n in data_N.K:
                G = beta[i] * D(2, True) - data_N.gamma[n] * D(3)
            elif k == 2:
                G = beta[i] * D(2)
            else:
                G = -beta[i] * D(3)
            A[:, i0, i] = float(i == i0) - (-1.0) ** e * G
    return A


def _assert_matches_pairwise(data, cache, N):
    A = assemble(data, cache, N).A
    ref = _pairwise_A(data, cache, N)
    assert np.isfinite(ref).all()
    assert np.abs(A - ref).max() <= 1e-14 * np.abs(ref).max()


def test_assembly_matches_pairwise_kernels(smooth_data8, cache4, grid512):
    _assert_matches_pairwise(smooth_data8, cache4, 4)
    d = _coinciding_data(smooth_data8)
    _assert_matches_pairwise(d, build_model(d, grid512, 3), 3)


def _near_coinciding_data(smooth_data8, cache4):
    # a data eigenvalue inside the integral-form switch (relative gap
    # 1e-6) of a model eigenvalue but outside the admissibility gap
    # (1e-8): once within its own family (no pole), once against the
    # first family, where the (2, 2) pole term enters with lambda != mu
    model = cache4.model_data
    for k, n, target in ((1, 2, model.lam(2, 1)), (2, 1, model.lam(1, 1))):
        d = smooth_data8.copy()
        lam = target + 1e-7 * (1.0 + abs(target))
        d.lambdas[n - 1, k - 1] = lam
        yield d


def test_assembly_near_coinciding_data_and_model(smooth_data8, cache4,
                                                 grid512):
    for d in _near_coinciding_data(smooth_data8, cache4):
        _assert_matches_pairwise(d, build_model(d, grid512, 4), 4)


def test_node_blocks_equal_full_stack(smooth_data8, cache4, grid512,
                                      general_coeffs128, grid128):
    # solve_phi builds the node matrices one block at a time; the blocks
    # must be the all-node stack bit for bit, the ragged last block of
    # M + 1 = 513 or 129 nodes included
    d = _coinciding_data(smooth_data8)
    data128 = compute_spectral_data(general_coeffs128, 4)
    cases = [(smooth_data8, cache4, 4), (d, build_model(d, grid512, 3), 3),
             (data128, build_model(data128, grid128, 3), 3)]
    cases += [(d, build_model(d, grid512, 4), 4)
              for d in _near_coinciding_data(smooth_data8, cache4)]
    for data, cache, N in cases:
        assembly = assemble(data, cache, N)
        M = assembly.grid.M
        assert (M + 1) % _NODE_BLOCK != 0
        blocks = [assembly.node_matrices(slice(start,
                                               min(start + _NODE_BLOCK, M + 1)))
                  for start in range(0, M + 1, _NODE_BLOCK)]
        assert np.array_equal(np.concatenate(blocks), assembly.A)


@pytest.mark.parametrize("case", ["smooth", "coinciding"])
def test_one_star_read_gives_eta_and_its_derivative(case, smooth_data8,
                                                    grid512):
    # reconstruct reads eta and eta' as the two components of one star
    # state read; each equals its one-component read byte for byte, on
    # the K = [1] coinciding pair's regularized row too
    if case == "smooth":
        data, N = smooth_data8, 8
    else:
        data, N = _coinciding_data(smooth_data8), 3
    stars = assemble(data, build_model(data, grid512, N), N).stars
    both = stars.take(comps=slice(0, 2))
    assert stars.regularized.any() == (case == "coinciding")
    for j in (0, 1):
        one = stars.take(comps=j)
        assert both[:, :, j].shape == one.shape
        assert both[:, :, j].tobytes() == one.tobytes()


@pytest.mark.parametrize("case", ["smooth", "coinciding"])
def test_block_reads_equal_the_whole_grid_tables(case, smooth_data8,
                                                 grid512):
    # assemble leaves every Weyl state in the model cache's arrays and
    # reads them for a slice of nodes; the tables must equal, byte for
    # byte, those of the construction that copied the states out and
    # held them over the whole grid (helpers.WholeGridAssembly): on the
    # smooth pair at N = 8, and on the K = [1] coinciding pair at N = 3,
    # whose regularized row carries -gamma Phi*_3
    if case == "smooth":
        data, N = smooth_data8, 8
    else:
        data, N = _coinciding_data(smooth_data8), 3
    cache = build_model(data, grid512, N)
    assembly = assemble(data, cache, N)
    ref = WholeGridAssembly(data, cache, N)
    assert assembly.stars.regularized.any() == (case == "coinciding")

    def same(got, want):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    tilde_phi, tilde_dphi = assembly.tilde_states()
    same(tilde_phi, ref.Y[:, :, 0])
    same(tilde_dphi, ref.Y[:, :, 1])
    same(assembly.eta, ref.stars.Z[:, :, 0])
    same(assembly.deta, ref.stars.Z[:, :, 1])
    for name in ("recip", "ws", "vs", "vals"):
        same(getattr(assembly.kernel, name), getattr(ref.kernel, name))
    same(assembly.node_matrices(), ref.node_matrices())
    # equilibrated, block by block, as solve_phi builds them
    M = grid512.M
    w = np.exp(grid512.nodes[:, None] * assembly.rates)
    for start in range(0, M + 1, _NODE_BLOCK):
        block = slice(start, min(start + _NODE_BLOCK, M + 1))
        same(assembly.node_matrices(block, w[block]),
             ref.node_matrices(block, w[block]))


def test_star_reads_agree_on_every_row_count(smooth_data8, cache4):
    # a block read, a whole-grid read and a one-component read of the
    # star states must agree byte for byte also when the -gamma Phi*_3
    # term spans many rows: here all 16 rows at N = 4, whose whole-grid
    # Phi*_3 table (16 x 513 x 3 entries) is past the size at which numpy
    # may reorder the operands of a product with a fresh array
    stars = assemble(smooth_data8, cache4, 4).stars
    L = stars.lam.size
    gamma = np.linspace(0.3, 1.7, L) + 0.2j
    many = stars._replace(regularized=np.ones(L, dtype=bool), gamma=gamma,
                          gamma_states=cache4.rows(SystemVariant.STAR, 3,
                                                   stars.lam))
    whole = many.take()
    M = cache4.grid.M
    for start in range(0, M + 1, _NODE_BLOCK):
        block = slice(start, min(start + _NODE_BLOCK, M + 1))
        assert many.take(block).tobytes() == whole[:, block].tobytes()
    assert (many.take(comps=0).tobytes()
            == np.ascontiguousarray(whole[:, :, 0]).tobytes())


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_holds_no_full_matrix_stack(smooth_data8, smooth_data20,
                                          grid512):
    # assemble + solve_phi at N = 8 peak below the bytes of one
    # (M+1, 4N, 4N) complex stack, 8.4 MB: the node matrices exist one
    # block at a time
    N = 8
    cache = build_model(smooth_data8, grid512, N)
    stack = (grid512.M + 1) * (4 * N) ** 2 * np.dtype(complex).itemsize
    assert _traced_peak(lambda: solve_phi(assemble(smooth_data8, cache,
                                                   N))) < stack
    # solve_phi alone at N = 16 peaks below 1/8 of its stack, 4.2 MB: the
    # kernel factors and right-hand sides are formed one block at a time
    # too, and only the (4N, M+1) solutions and eta span the grid
    N = 16
    assembly = assemble(smooth_data20, build_model(smooth_data20, grid512, N),
                        N)
    stack = (grid512.M + 1) * (4 * N) ** 2 * np.dtype(complex).itemsize
    assert _traced_peak(solve_phi, assembly) < stack / 8


def test_eta_is_read_once_per_inverse_run(smooth_data8, cache4,
                                          monkeypatch):
    # solve_phi, reconstruct and verify_weyl all read eta (and the last
    # two eta') over the whole grid: the star states are read for them
    # once, and the assembly keeps the result
    assembly = assemble(smooth_data8, cache4, 4)
    reads = []

    def counting(self, nodes=slice(None), comps=slice(None),
                 _inner=StarStates.take):
        if self is assembly.stars and nodes == slice(None):
            reads.append(comps)
        return _inner(self, nodes, comps)

    monkeypatch.setattr(StarStates, "take", counting)
    phi, dphi, diag = solve_phi(assembly)
    verify_weyl(reconstruct(assembly, phi, dphi, solve_diag=diag))
    assert reads == [slice(0, 2)]
    assert not assembly.eta.flags.writeable


def test_assembly_and_solve_hold_each_state_once(smooth_data20, grid512):
    # assemble + solve_phi at N = 16 fill the model cache with 8N Weyl
    # states of (M+1, 3) entries (3.15 MB) and peak below 3x their bytes:
    # the states stay in the cache's arrays, from which the kernel factors
    # and the right-hand sides are read one block of nodes at a time, so
    # no copy of a whole state table is held (copying them put the peak
    # at 3.6x)
    N = 16
    cache = build_model(smooth_data20, grid512, N)
    peak = _traced_peak(lambda: solve_phi(assemble(smooth_data20, cache,
                                                   N)))
    states = len(cache.phi) + len(cache.phi_star)
    assert states == 8 * N
    held = states * (grid512.M + 1) * 3 * np.dtype(complex).itemsize
    assert peak < 3 * held


def test_verify_weyl_holds_no_full_kernel_stack(smooth_data8, grid512):
    # verify_weyl at N = 8 peaks below the bytes of the (M+1, W, 4N)
    # kernel stack of one Phi^N table, W = 2N + 1 (4.5 MB): the kernels
    # are contracted with phi one node block at a time
    N = 8
    result = run_inverse(smooth_data8, grid512, N)
    stack = ((grid512.M + 1) * (2 * N + 1) * 4 * N
             * np.dtype(complex).itemsize)
    tracemalloc.start()
    try:
        verify_weyl(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack


def test_coinciding_pair_branches_run(smooth_data8, grid512):
    d = _coinciding_data(smooth_data8)
    assert d.K == [1]
    res = run_inverse(d, grid512, 3)
    assert np.isfinite(res.tau1N.values).all()
    assert np.isfinite(res.sigma0N.values).all()
    with pytest.raises(ValueError, match="coinciding"):
        verify_weyl(res)
    with pytest.raises(ValueError, match="coinciding"):
        stability_experiment(d, grid512, 3)


def test_regularized_rows_are_the_coinciding_data_rows(smooth_data8,
                                                       grid512):
    # exactly the rows (n, 2, 0) with n in K, each with its own gamma_n
    d = _coinciding_data(smooth_data8)
    two = d.copy()
    two.lambdas[2, 1] = two.lambdas[2, 0]
    two.betas[2, 0] = 0.0
    two = type(d)(theta=d.theta, lambdas=two.lambdas, betas=two.betas,
                  K=[1, 3], gamma={1: 1.0, 3: 2.5})
    for data, N in ((d, 3), (two, 4)):
        stars = assemble(data, build_model(data, grid512, N), N).stars
        V = index_set(N)
        want = [v for v in V.tolist() if v[1:] == [2, 0] and v[0] in data.K]
        assert V[stars.regularized].tolist() == want
        assert stars.gamma.tolist() == [data.gamma[n] for n, _, _ in want]


def test_verify_weyl_breach_labels_are_the_V_rows(result4, monkeypatch):
    # a tolerance every check breaches: the terminal checks name each n of
    # the data, the interpolation check each row of V, as plain ints
    monkeypatch.setattr(inverse, "_WEYL_TOL", 1e-300)
    report = verify_weyl(result4)
    assert not report["pass"]
    V = result4.assembly.V
    for check in ("phi2_terminal", "phi3_terminal"):
        ns = [b["n"] for b in report["breaches"] if b["check"] == check]
        assert ns == [1, 2, 3, 4]
        assert all(type(n) is int for n in ns)
    vs = [b["v"] for b in report["breaches"]
          if b["check"] == "interpolation"]
    assert [list(v) for v in vs] == V.tolist()
    assert all(type(i) is int for v in vs for i in v)
    text = dumps17(report)
    assert '"v": [1, 1, 0]' in text and '"v": [4, 2, 1]' in text


def test_verify_spectral_passes(result4, smooth_data8):
    report = verify_spectral(result4.coeffs, smooth_data8, 4)
    assert report["pass"], report
    assert report["K_match"]
    assert report["lambda_rel_max"] < 1e-3
    assert report["breaches"] == []


def test_verify_spectral_tail_is_the_model_margin(result4, smooth_data8,
                                                  monkeypatch):
    # the entries past N are the ones build_model makes, however many
    full = verify_spectral(result4.coeffs, smooth_data8, 4)
    monkeypatch.setattr("spectral3.model._MODEL_MARGIN", 2)
    report = verify_spectral(result4.coeffs, smooth_data8, 4)
    assert [(e["n"], e["k"], e["reference"]) for e in report["entries"]] == [
        (n, k, "data" if n <= 4 else "model")
        for n in range(1, 7) for k in (1, 2)]
    assert [(e["n"], e["k"]) for e in full["entries"]][-1] == (8, 2)


def test_verify_weyl_passes(result4):
    report = verify_weyl(result4)
    assert report["pass"], report
    assert report["interpolation_max"] < 1e-6
    assert report["phi2_terminal_max"] < 1e-6


def test_phiN_tables_batch_equals_pointwise(result4):
    # the lambda batches of verify_weyl: Phi^N_2 at first-family and
    # Phi^N_3 at second-family eigenvalues of data and model, each with an
    # off-spectrum probe; errors relative to 1 + max|Phi^N| as in the report
    lam = result4.assembly.stars.lam
    probe = np.array([4.0 + 9.0j])
    for k0, lams in ((1, probe),
                     (2, np.concatenate([lam[0::4], lam[1::4], probe])),
                     (3, np.concatenate([lam[2::4], lam[3::4], probe]))):
        vals, dvals = _phiN_tables(result4, k0, lams)
        assert vals.shape == dvals.shape == (len(lams),
                                             result4.tau1N.grid.M + 1)
        for w, lam_w in enumerate(lams):
            v1, d1 = _phiN_tables(result4, k0, [lam_w])
            for batch, single in ((vals[w], v1[0]), (dvals[w], d1[0])):
                scale = 1.0 + np.abs(single).max()
                assert np.abs(batch - single).max() <= 1e-13 * scale, (k0, w)


def test_verify_spectral_rejects_N_beyond_data(result4, smooth_data8):
    with pytest.raises(ValueError, match="exceeds"):
        verify_spectral(result4.coeffs, smooth_data8.truncate(3), 4)


def test_order_below_one_rejected(result4, smooth_data8, grid512):
    with pytest.raises(ValueError, match="must be at least 1"):
        run_inverse(smooth_data8, grid512, 0)
    with pytest.raises(ValueError, match="must be at least 1"):
        verify_spectral(result4.coeffs, smooth_data8, 0)


def _phiN_reference(result, cache, stars, k0, lams):
    # Phi^N_{k0} and its derivative at lams from star states rebuilt from
    # the data, as verification did before it read the assembly's
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    tilde = cache.rows(SystemVariant.DIRECT, k0, lams).take()
    P = whole_grid_bracket(whole_grid_kernel_factors(stars, tilde, lams, k0))
    _, eps = index_families(result.assembly.N)
    signs = np.where(eps == 0, 1.0, -1.0)[:, None]
    vals = tilde[:, :, 0] + np.einsum("vm,mwv->wm", signs * result.phi, P)
    dvals = (tilde[:, :, 1] + np.einsum("vm,mwv->wm", signs * result.dphi, P)
             + tilde[:, :, 0] * (signs * result.phi * stars.Z[:, :, 0]).sum(
                 axis=0))
    return vals, dvals


def _verify_weyl_seven_calls(result, data, N):
    # the weyl checks verify_weyl replaced: the star states rebuilt from
    # the data and seven Phi^N tables, one per check and lambda batch
    cache = result.assembly.cache
    stars = whole_grid_star_states(cache, data, N)
    V = [(n, k, e) for n in range(1, N + 1) for k in (1, 2) for e in (0, 1)]
    checks = {"mode": "weyl"}
    breaches = []
    for k0, lams in ((2, data.lambdas[:N, 0]), (3, data.lambdas[:N, 1])):
        check = "phi%d_terminal" % k0
        vals, _ = _phiN_reference(result, cache, stars, k0, lams)
        rel = np.abs(vals[:, -1]) / (1.0 + np.abs(vals).max(axis=1))
        for n, r in enumerate(rel, start=1):
            if r > _WEYL_TOL:
                breaches.append({"check": check, "n": n, "value": r})
        checks[check + "_max"] = rel.max()
    rel = np.empty(len(V))
    j = np.array([k + 1 for _, k, _ in V])
    for k0 in (2, 3):
        vals, _ = _phiN_reference(result, cache, stars, k0,
                                  stars.lam[j == k0])
        phi = result.phi[j == k0]
        rel[j == k0] = (np.abs(vals - phi).max(axis=1)
                        / (1.0 + np.abs(phi).max(axis=1)))
    for v, r in zip(V, rel):
        if r > _WEYL_TOL:
            breaches.append({"check": "interpolation", "v": v,
                             "value": r})
    checks["interpolation_max"] = rel.max()
    lam_probe = 0.7j * abs(cache.model_data.lam(1, 1))
    (v2,), (d2,) = _phiN_reference(result, cache, stars, 2, lam_probe)
    (v3,), (d3,) = _phiN_reference(result, cache, stars, 3, lam_probe)
    checks["phi2_origin"] = abs(v2[0])
    checks["phi2_origin_slope"] = abs(d2[0] - 1.0)
    checks["phi3_origin"] = abs(v3[0])
    checks["phi3_origin_slope"] = abs(d3[0])
    (v1,), (d1,) = _phiN_reference(result, cache, stars, 1, lam_probe)
    checks["phi1_terminal"] = abs(v1[-1]) / (1.0 + np.abs(v1).max())
    checks["phi1_terminal_slope"] = abs(d1[-1]) / (1.0 + np.abs(d1).max())
    for key in ("phi2_origin", "phi2_origin_slope", "phi3_origin",
                "phi3_origin_slope", "phi1_terminal",
                "phi1_terminal_slope"):
        if checks[key] > _WEYL_TOL:
            breaches.append({"check": key, "value": checks[key]})
    checks["breaches"] = breaches
    checks["pass"] = not breaches
    return checks


def _assert_reports_match(report, ref):
    # keys, pass and the breached checks equal; each value within 1e-12
    # relative or 1e-30 absolute (the table batches differ, and a matmul
    # over another batch shape may round differently)
    def close(a, b):
        return abs(a - b) <= max(1e-12 * abs(b), 1e-30)

    assert list(report) == list(ref)
    assert report["pass"] == ref["pass"]
    assert len(report["breaches"]) == len(ref["breaches"])
    for got, want in zip(report["breaches"], ref["breaches"]):
        assert {k: v for k, v in got.items() if k != "value"} == \
            {k: v for k, v in want.items() if k != "value"}
        assert close(got["value"], want["value"]), (got, want)
    for key, want in ref.items():
        if key not in ("mode", "pass", "breaches"):
            assert close(report[key], want), (key, report[key], want)


def test_verify_weyl_matches_seven_call_reference(result4, smooth_data8,
                                                  grid512, general_coeffs128,
                                                  grid128):
    data128 = compute_spectral_data(general_coeffs128, 4)
    for result, data, N in (
            (result4, smooth_data8, 4),
            (run_inverse(smooth_data8, grid512, 8), smooth_data8, 8),
            (run_inverse(data128, grid128, 3), data128, 3)):
        assert not data.truncate(N).K
        ref = _verify_weyl_seven_calls(result, data, N)
        assert ref["pass"]
        _assert_reports_match(verify_weyl(result), ref)


def test_verify_weyl_makes_three_tables(result4, monkeypatch):
    # one Phi^N table each for k0 = 2 and 3 over their 2N lambda_v and the
    # probe, and one for k0 = 1 at the probe
    calls = []
    inner = inverse._phiN_tables

    def counting(result, k0, lams):
        calls.append((k0, np.atleast_1d(lams).shape[0]))
        return inner(result, k0, lams)

    monkeypatch.setattr(inverse, "_phiN_tables", counting)
    assert verify_weyl(result4)["pass"]
    assert calls == [(2, 9), (3, 9), (1, 1)]
