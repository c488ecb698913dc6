import numpy as np
import pytest

from spectral3.errors import PoleHitError, SingularSystemError
from spectral3.forward import compute_spectral_data
from spectral3.grid import (CoefficientPair, GridFunction, cumulative,
                            differentiate, l2_norm, w2m1_distance)
from spectral3.inverse import (IndexV, _phiN_tables, _star_states, assemble,
                               index_set, kernel_D, reconstruct, run_inverse,
                               solve_phi, stability_experiment,
                               verify_reconstruction)
from spectral3.model import ModelCache, build_model, distance_d
from spectral3.quasi import SystemVariant


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
    cache = ModelCache(coeffs=model_coeffs, model_data=model_full,
                       data=data, N=N)
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


def test_gprime_identity(smooth_data8, cache4, grid512):
    # the kernels satisfy G'_{v,v0} = eta_v tilde_phi_{v0} exactly; check
    # the assembled node tables against numerical differentiation
    assembly = assemble(smooth_data8, cache4, 4)
    size = len(assembly.V)
    eye = np.eye(size)
    for i_v, i_v0 in ((0, 3), (5, 2), (10, 13), (7, 7)):
        G = assembly.signs[i_v] * (eye[i_v0, i_v] - assembly.A[:, i_v0, i_v])
        num = differentiate(GridFunction(grid512, G)).values
        ref = assembly.gprime(i_v, i_v0)
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


def test_stability_input_guards(smooth_data8, grid512):
    with pytest.raises(ValueError, match="lambda"):
        stability_experiment(smooth_data8, grid512, 3,
                             entries=((1, 1, "theta"),))
    # entries outside the truncation N are rejected before any solve
    for n, k in ((99, 1), (4, 1), (1, 3)):
        with pytest.raises(ValueError, match="perturbation entry"):
            stability_experiment(smooth_data8, grid512, 3,
                                 entries=((n, k, "beta"),))


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_node_guard(smooth_data8, cache4):
    assembly = assemble(smooth_data8, cache4, 4)
    assembly.A[3] = 0.0
    with pytest.raises(SingularSystemError) as ei:
        solve_phi(assembly)
    assert ei.value.node == 3


def _coinciding_data(smooth_data8):
    # synthetic coinciding pair at n = 1: second eigenvalue snapped onto
    # the first, beta_{1,1} zeroed, an extra weight gamma supplied
    d = smooth_data8.truncate(6)
    return type(d)(theta=d.theta, n_max=6,
                   lam1=d.lam1.copy(),
                   lam2=np.concatenate([[d.lam1[0]], d.lam2[1:]]),
                   beta1=np.concatenate([[0.0], d.beta1[1:]]),
                   beta2=d.beta2.copy(),
                   K=[1], gamma={1: 1.0})


def _pairwise_A(data, cache, N):
    # the main-system matrix entry by entry from the public kernel_D:
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


def test_assembly_near_coinciding_data_and_model(smooth_data8, cache4,
                                                 grid512):
    # a data eigenvalue inside the integral-form switch (relative gap
    # 1e-6) of a model eigenvalue but outside the admissibility gap
    # (1e-8): once within its own family (no pole), once against the
    # first family, where the (2, 2) pole term enters with lambda != mu
    model = cache4.model_data
    for k, n, target in ((1, 2, model.lam(2, 1)), (2, 1, model.lam(1, 1))):
        d = smooth_data8.copy()
        lam = target + 1e-7 * (1.0 + abs(target))
        (d.lam1 if k == 1 else d.lam2)[n - 1] = lam
        _assert_matches_pairwise(d, build_model(d, grid512, 4), 4)


def test_coinciding_pair_branches_run(smooth_data8, grid512):
    d = _coinciding_data(smooth_data8)
    assert d.K == [1]
    res = run_inverse(d, grid512, 3)
    assert np.isfinite(res.tau1N.values).all()
    assert np.isfinite(res.sigma0N.values).all()
    with pytest.raises(ValueError, match="coinciding"):
        verify_reconstruction(res, d, 3, mode="weyl")
    with pytest.raises(ValueError, match="coinciding"):
        stability_experiment(d, grid512, 3)


def test_verify_spectral_passes(result4, smooth_data8):
    report = verify_reconstruction(result4, smooth_data8, 4,
                                   mode="spectral")
    assert report["pass"], report
    assert report["K_match"]
    assert report["lambda_rel_max"] < 1e-3
    assert report["breaches"] == []


def test_verify_weyl_passes(result4, smooth_data8):
    report = verify_reconstruction(result4, smooth_data8, 4, mode="weyl")
    assert report["pass"], report
    assert report["interpolation_max"] < 1e-6
    assert report["phi2_terminal_max"] < 1e-6


def test_phiN_tables_batch_equals_pointwise(result4, smooth_data8):
    # the lambda batches of verify_reconstruction(mode="weyl"): Phi^N_2 at
    # first-family and Phi^N_3 at second-family eigenvalues of data and
    # model, each with an off-spectrum probe; errors relative to
    # 1 + max|Phi^N| as in the report
    cache = result4.cache
    stars = _star_states(cache, smooth_data8, 4)
    probe = np.array([4.0 + 9.0j])
    for k0, lams in ((1, probe),
                     (2, np.concatenate([stars.lam[0::4], stars.lam[1::4],
                                         probe])),
                     (3, np.concatenate([stars.lam[2::4], stars.lam[3::4],
                                         probe]))):
        vals, dvals = _phiN_tables(result4, cache, stars, k0, lams)
        assert vals.shape == dvals.shape == (len(lams), cache.grid.M + 1)
        for w, lam in enumerate(lams):
            v1, d1 = _phiN_tables(result4, cache, stars, k0, [lam])
            for batch, single in ((vals[w], v1[0]), (dvals[w], d1[0])):
                scale = 1.0 + np.abs(single).max()
                assert np.abs(batch - single).max() <= 1e-13 * scale, (k0, w)


def test_verify_mode_guard(result4, smooth_data8):
    with pytest.raises(ValueError, match="mode"):
        verify_reconstruction(result4, smooth_data8, 4, mode="bogus")
    with pytest.raises(ValueError, match="exceeds"):
        verify_reconstruction(result4, smooth_data8.truncate(3), 4)
