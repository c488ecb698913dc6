import tracemalloc

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from spectral3.errors import PoleHitError, SingularSystemError
from spectral3.forward import SpectralData, compute_spectral_data
from spectral3.grid import (CoefficientPair, GridFunction, cumulative,
                            differentiate, l2_norm, w2m1_distance)
from spectral3 import inverse
from spectral3.inverse import (_NODE_BLOCK, _WEYL_TOL, IndexV, MainAssembly,
                               StarStates, _bracket, _kernel_factors,
                               _phiN_tables, _signs, _star_states, assemble,
                               index_set, reconstruct, run_inverse, solve_phi,
                               stability_experiment, verify_spectral,
                               verify_weyl)
from spectral3.model import ModelCache, build_model, distance_d
from spectral3.quasi import SystemVariant

_VALID_KJ = {(2, 2), (2, 3), (3, 2), (3, 3)}


def _kernel(stars, Y, mu, j):
    # two-point kernels D(x; Z_v, Y_w) for every pair at every node,
    # out[m, w, v], from the factors assemble uses
    return _bracket(_kernel_factors(stars, Y, mu, j))


def kernel_D(cache, kj, lam, mu, regularized=False):
    """Nodal values of D_{k,j}(x, lambda, mu) for (k, j) in {2,3} x {2,3}
    on the grid of the model cache.

    The pairing of Phi*_k(., lambda) with Phi_j(., mu); see _kernel.  The
    pole 1/(lambda - mu) of D_{2,2} may be regularized at an exact
    coincidence.
    """
    k, j = int(kj[0]), int(kj[1])
    if (k, j) not in _VALID_KJ:
        raise ValueError("kernel indices %r not supported" % (kj,))
    lam, mu = np.array([lam], dtype=complex), np.array([mu], dtype=complex)
    star = StarStates(cache.states(SystemVariant.STAR, k, lam), lam,
                      np.array([1.0 if k == 2 else 0.0]),
                      np.array([regularized]))
    D = _kernel(star, cache.states(SystemVariant.DIRECT, j, mu), mu, j)
    return GridFunction(cache.grid, D[:, 0, 0])


@pytest.fixture(scope="module")
def result4(smooth_data8, grid512):
    return run_inverse(smooth_data8, grid512, 4)


@pytest.fixture(scope="module")
def cache4(smooth_data8, grid512):
    return build_model(smooth_data8, grid512, 4)


def test_index_set_order():
    assert index_set(2) == [
        IndexV(1, 1, 0), IndexV(1, 1, 1), IndexV(1, 2, 0), IndexV(1, 2, 1),
        IndexV(2, 1, 0), IndexV(2, 1, 1), IndexV(2, 2, 0), IndexV(2, 2, 1),
    ]


def test_kernel_origin_values(cache4, grid512):
    lam, mu = 3.0 + 2.0j, -7.0 + 1.0j
    for kj in ((2, 2), (2, 3), (3, 2), (3, 3)):
        D = kernel_D(cache4, kj, lam, mu)
        if kj == (2, 2):
            assert abs(D.values[0] - 1.0 / (lam - mu)) < 1e-12
        else:
            assert abs(D.values[0]) < 1e-12


def _two_forms(cache, k, j, lam, mu):
    zs = cache.states(SystemVariant.STAR, k, [lam])[0]
    ys = cache.states(SystemVariant.DIRECT, j, [mu])[0]
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
    scale = 1.0 + np.abs(assembly.tilde_phi).max()
    assert np.abs(phi - assembly.tilde_phi).max() < 1e-10 * scale
    assert diag["rcond_min"] > 1e-8

    res = reconstruct(assembly, phi, dphi, solve_diag=diag)
    assert l2_norm(res.tau1N - GridFunction.constant(grid512, 0.3)) < 1e-10
    assert w2m1_distance(res.sigma0N,
                         GridFunction.constant(grid512, 0.0)) < 1e-10
    assert res.diagnostics["d"] == 0.0


def _gprime(assembly: MainAssembly, i_v: int, i_v0: int) -> np.ndarray:
    """G'_{v,v0} = eta_v * tilde_phi_{v0} (nodal values)."""
    return assembly.eta[i_v] * assembly.tilde_phi[i_v0]


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


def _solve_phi_per_node(assembly):
    # the node loop solve_phi replaced: the unscaled matrices rescaled
    # entry by entry, then scipy's lu_factor/lu_solve and gecon one node
    # at a time
    grid = assembly.grid
    M = grid.M
    A = assembly.A
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
        b1 = assembly.tilde_phi[:, m] / w
        xhat = lu_solve(lu, b1, check_finite=False)
        phi[:, m] = w * xhat
        res = float(np.abs(Ahat @ xhat - b1).max() / (1.0 + np.abs(b1).max()))
        residual_max = max(residual_max, res)
        s = np.sum(assembly.signs * assembly.eta[:, m] * phi[:, m])
        b2 = (assembly.tilde_dphi[:, m] + assembly.tilde_phi[:, m] * s) / w
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


def _pairwise_A(data, cache, N):
    # the main-system matrix entry by entry from kernel_D above:
    # A[m, v0, v] = delta - (-1)^eps(v) G_{v,v0}(x_m)
    data_N = data.truncate(N)
    V = index_set(N)
    src = [data_N if v.eps == 0 else cache.model_data for v in V]
    lam = [d.lam(v.n, v.k) for d, v in zip(src, V)]
    beta = [d.beta(v.n, v.k) for d, v in zip(src, V)]
    A = np.empty((cache.grid.M + 1, len(V), len(V)), dtype=complex)
    for i, v in enumerate(V):
        for i0, v0 in enumerate(V):
            def D(k, regularized=False):
                return kernel_D(cache, (k, v0.k + 1), lam[i], lam[i0],
                                regularized=regularized).values
            if v.eps == 0 and v.k == 2 and v.n in data_N.K:
                G = beta[i] * D(2, True) - data_N.gamma[v.n] * D(3)
            elif v.k == 2:
                G = beta[i] * D(2)
            else:
                G = -beta[i] * D(3)
            A[:, i0, i] = float(i == i0) - (-1.0) ** v.eps * G
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
    # kernel factors are scaled one block at a time too, and only the
    # (M+1, 4N) right-hand sides and solutions span the grid
    N = 16
    assembly = assemble(smooth_data20, build_model(smooth_data20, grid512, N),
                        N)
    stack = (grid512.M + 1) * (4 * N) ** 2 * np.dtype(complex).itemsize
    assert _traced_peak(solve_phi, assembly) < stack / 8


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


def test_verify_spectral_passes(result4, smooth_data8):
    report = verify_spectral(result4.coeffs, smooth_data8, 4)
    assert report["pass"], report
    assert report["K_match"]
    assert report["lambda_rel_max"] < 1e-3
    assert report["breaches"] == []


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
    tilde = cache.states(SystemVariant.DIRECT, k0, lams)
    P = _kernel(stars, tilde, lams, k0)
    signs = _signs(result.assembly.V)[:, None]
    vals = tilde[:, :, 0] + np.einsum("vm,mwv->wm", signs * result.phi, P)
    dvals = (tilde[:, :, 1] + np.einsum("vm,mwv->wm", signs * result.dphi, P)
             + tilde[:, :, 0] * (signs * result.phi * stars.Z[:, :, 0]).sum(
                 axis=0))
    return vals, dvals


def _verify_weyl_seven_calls(result, data, N):
    # the weyl checks verify_weyl replaced: the star states rebuilt from
    # the data and seven Phi^N tables, one per check and lambda batch
    cache = result.assembly.cache
    stars = _star_states(cache, data, N)
    V = result.assembly.V
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
    j = np.array([v.k + 1 for v in V])
    for k0 in (2, 3):
        vals, _ = _phiN_reference(result, cache, stars, k0,
                                  stars.lam[j == k0])
        phi = result.phi[j == k0]
        rel[j == k0] = (np.abs(vals - phi).max(axis=1)
                        / (1.0 + np.abs(phi).max(axis=1)))
    for v, r in zip(V, rel):
        if r > _WEYL_TOL:
            breaches.append({"check": "interpolation", "v": tuple(v),
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
