"""End-to-end acceptance checks, one test per contract item.

Each test exercises its pipeline at the stated tolerance and prints the
measured values next to the budgets, so a -v run gives one pass/fail
line per item and -s shows the margins.
"""

import functools
import time

import numpy as np

from spectral3.asympt import extract_remainders
from spectral3.forward import (_char_arrays, characteristic_literal,
                               compute_spectral_data, laurent_coefficients,
                               weight_matrix, weyl_matrix)
from spectral3.grid import (CoefficientPair, GridFunction, cumulative,
                            l2_norm, w2m1_distance)
from spectral3.inverse import (assemble, reconstruct, run_inverse, solve_phi,
                               stability_experiment)
from spectral3.model import ModelCache, build_model
from spectral3.quasi import SystemVariant, _sweep
from spectral3.selfadjoint import check_symmetry, complete, restrict

# C3(1, lambda=1) for zero coefficients from the exponential basis
# (e + w e^w + w^2 e^(w^2))/3 with w = exp(2 pi i / 3), 40-digit value.
D22_LAM1_ZERO = 0.5083581599842168635427


def test_01_characteristic_values(zero_coeffs):
    t0 = time.perf_counter()
    c = _char_arrays(zero_coeffs, [0.0, 1.0])
    elapsed = time.perf_counter() - t0
    dev_d22 = abs(c["d22"][0] - 0.5)
    dev_d11 = abs(c["d11"][0] + 0.5)
    dev_oracle = abs(c["d22"][1] - D22_LAM1_ZERO)
    print("01: |d22(0)-1/2|=%.2e |d11(0)+1/2|=%.2e (tol 1e-12), "
          "|d22(lam=1)-exp-basis|=%.2e (tol 1e-9), %.2fs (budget 1s)"
          % (dev_d22, dev_d11, dev_oracle, elapsed))
    assert dev_d22 < 1e-12
    assert dev_d11 < 1e-12
    assert dev_oracle < 1e-9
    assert elapsed < 1.0


def test_02_unimodularity_and_weyl_identities(general_coeffs):
    rng = np.random.default_rng(7)
    lams = [complex(rng.uniform(-60, 60), rng.uniform(-60, 60))
            for _ in range(20)]
    t0 = time.perf_counter()
    det_dev = 0.0
    for variant in (SystemVariant.DIRECT, SystemVariant.STAR):
        # (M+1, L, 3, 3): the fundamental matrices along the grid
        mats = _sweep(general_coeffs, variant, lams, np.eye(3), store=True)
        det_dev = max(det_dev, float(np.abs(np.linalg.det(mats) - 1.0).max()))

    def weyl_functions(variant):
        c = characteristic_literal(general_coeffs, lams, variant)
        return (-c["d21"] / c["d11"], -c["d31"] / c["d11"],
                -c["d32"] / c["d22"])

    m21, m31, m32 = weyl_functions(SystemVariant.DIRECT)
    ms21, ms31, ms32 = weyl_functions(SystemVariant.STAR)
    id_dev = float(max((np.abs(m21 - ms32) / (1.0 + np.abs(m21))).max(),
                       (np.abs(m32 - ms21) / (1.0 + np.abs(m32))).max(),
                       (np.abs(ms31 - ms21 * m21 + m31)
                        / (1.0 + np.abs(m31))).max()))
    elapsed = time.perf_counter() - t0
    print("02: max|det-1|=%.2e (tol 5e-10), identity dev=%.2e (tol 1e-8), "
          "%.1fs (budget 30s)" % (det_dev, id_dev, elapsed))
    assert det_dev < 5e-10
    assert id_dev < 1e-8
    assert elapsed < 30.0


def test_03_weight_ratio_and_remainders(smooth_coeffs):
    t0 = time.perf_counter()
    data = compute_spectral_data(smooth_coeffs, 20)
    elapsed = time.perf_counter() - t0
    C_fit = 0.0
    for n in range(1, 21):
        dev = max(abs(data.beta(n, k) / (3.0 * data.lam(n, k)) - 1.0)
                  for k in (1, 2))
        C_fit = max(C_fit, n * dev)
    frame = extract_remainders(data)
    kappa_tail = float(np.abs(frame.kappa[9:20]).max())
    print("03: fitted C=%.3f (bound 2), max|kappa| n in [10,20] = %.3f "
          "(bound 0.2), %.1fs (budget 120s)" % (C_fit, kappa_tail, elapsed))
    assert C_fit < 2.0
    assert kappa_tail < 0.2
    assert elapsed < 120.0


def test_04_gauge_shift_leaves_data_fixed(smooth_coeffs, smooth_data8):
    shifted = smooth_coeffs.gauge_shifted(5.0)
    other = compute_spectral_data(shifted, 8)
    dev = 0.0
    for n in range(1, 9):
        for k in (1, 2):
            dev = max(dev,
                      abs(other.lam(n, k) - smooth_data8.lam(n, k))
                      / (1.0 + abs(smooth_data8.lam(n, k))),
                      abs(other.beta(n, k) - smooth_data8.beta(n, k))
                      / (1.0 + abs(smooth_data8.beta(n, k))))
    print("04: sigma0 -> sigma0+5 data deviation %.2e (tol 1e-8)" % dev)
    assert dev < 1e-8


def test_05_model_data_reproduces_model(grid512):
    t0 = time.perf_counter()
    N = 12
    theta = 0.3
    model_coeffs = CoefficientPair(GridFunction.constant(grid512, theta),
                                   GridFunction.constant(grid512, 0.0))
    full = compute_spectral_data(model_coeffs, N + 4)
    cache = ModelCache(coeffs=model_coeffs, model_data=full,
                       data=full.truncate(N), N=N)
    assembly = assemble(cache.data, cache, N)
    phi, dphi, diag = solve_phi(assembly)
    res = reconstruct(assembly, phi, dphi, solve_diag=diag)
    t_err = l2_norm(res.tau1N - model_coeffs.tau1)
    s_err = w2m1_distance(res.sigma0N, model_coeffs.sigma0)
    elapsed = time.perf_counter() - t0
    print("05: N=12 fixed point |tau1|_L2=%.2e, |sigma0|_W2m1=%.2e "
          "(tol 1e-10), %.1fs (budget 60s)" % (t_err, s_err, elapsed))
    assert t_err < 1e-10
    assert s_err < 1e-10
    assert elapsed < 60.0


def test_06_round_trip_converges(smooth_coeffs, smooth_data20, grid512):
    t0 = time.perf_counter()
    errs = {}
    lam_rel = beta_rel = 0.0
    for N in (8, 12, 16):
        res = run_inverse(smooth_data20, grid512, N)
        errs[N] = (l2_norm(res.tau1N - smooth_coeffs.tau1),
                   w2m1_distance(res.sigma0N, smooth_coeffs.sigma0))
        if N == 8:
            rec = compute_spectral_data(res.coeffs, 8)
            for n in range(1, 9):
                for k in (1, 2):
                    lam_rel = max(lam_rel,
                                  abs(rec.lam(n, k) - smooth_data20.lam(n, k))
                                  / (1.0 + abs(smooth_data20.lam(n, k))))
                    beta_rel = max(beta_rel,
                                   abs(rec.beta(n, k) - smooth_data20.beta(n, k))
                                   / (1.0 + abs(smooth_data20.beta(n, k))))
    elapsed = time.perf_counter() - t0
    print("06: N=8 lambda rel %.2e (tol 1e-3), beta rel %.2e (tol 5e-3); "
          "tau1 L2 %.4f > %.4f > %.4f, sigma0 W2m1 %.5f > %.5f > %.5f, "
          "%.1fs (budget 600s)"
          % (lam_rel, beta_rel, errs[8][0], errs[12][0], errs[16][0],
             errs[8][1], errs[12][1], errs[16][1], elapsed))
    assert lam_rel <= 1e-3
    assert beta_rel <= 5e-3
    assert errs[8][0] > errs[12][0] > errs[16][0]
    assert errs[8][1] > errs[12][1] > errs[16][1]
    assert elapsed < 600.0


def test_07_stability_ladder(smooth_data8, grid512):
    t0 = time.perf_counter()
    rows = stability_experiment(smooth_data8, grid512, 8,
                                deltas=[1e-2, 5e-3, 2.5e-3])
    elapsed = time.perf_counter() - t0
    assert all(r["status"] == "ok" for r in rows)      # no singular nodes
    t_ratios = [r["tau1_ratio"] for r in rows[1:]]
    s_ratios = [r["sigma0_ratio"] for r in rows[1:]]
    t_spread = max(t_ratios) / min(t_ratios) - 1.0
    s_spread = max(s_ratios) / min(s_ratios) - 1.0
    print("07: tau1 ratios %s spread %.1f%%, sigma0 ratios %s spread %.1f%% "
          "(bound 50%%), %.1fs (budget 600s)"
          % (["%.4f" % r for r in t_ratios], 100 * t_spread,
             ["%.4f" % r for r in s_ratios], 100 * s_spread, elapsed))
    assert t_spread < 0.5
    assert s_spread < 0.5
    assert elapsed < 600.0


def test_08_selfadjoint_pairing_and_reconstruction(smooth_data20, grid512):
    sym = check_symmetry(smooth_data20.truncate(10))
    half = restrict(smooth_data20.truncate(8))
    res = run_inverse(complete(half), grid512, 8)
    t1 = res.tau1N.values
    s0 = res.sigma0N.values
    tau1_imag = float(np.abs(t1.imag).max())
    sigma0_real = float(np.abs(s0.real - s0.real.mean()).max())
    print("08: pairing devs lambda %.2e beta %.2e (tol 1e-8); reconstructed "
          "max|Im tau1|=%.2e, max|Re sigma0 - const|=%.2e (tol 1e-6)"
          % (sym["lambda_max"], sym["beta_max"], tau1_imag, sigma0_real))
    assert sym["lambda_max"] <= 1e-8
    assert sym["beta_max"] <= 1e-8
    assert tau1_imag < 1e-6
    assert sigma0_real < 1e-6


def test_09_kernel_forms_agree(smooth_data8, grid512):
    cache = build_model(smooth_data8, grid512, 4)
    rng = np.random.default_rng(9)
    samples = []
    for _ in range(50):
        k, j = (int(i) for i in rng.integers(2, 4, size=2))
        while True:
            lam = complex(rng.uniform(-40, 40), rng.uniform(-20, 20))
            mu = complex(rng.uniform(-40, 40), rng.uniform(-20, 20))
            if abs(lam - mu) > 0.5:
                break
        xi = int(rng.integers(0, grid512.M + 1))
        samples.append((k, j, lam, mu, xi))
    # One batched Weyl-state computation per (variant, k) for all samples.
    for kk in (2, 3):
        cache.states(SystemVariant.STAR, kk,
                     [s[2] for s in samples if s[0] == kk])
        cache.states(SystemVariant.DIRECT, kk,
                     [s[3] for s in samples if s[1] == kk])
    worst = 0.0
    for k, j, lam, mu, xi in samples:
        zs = cache.states(SystemVariant.STAR, k, [lam])[0]
        ys = cache.states(SystemVariant.DIRECT, j, [mu])[0]
        bracket = (zs[:, 2] * ys[:, 0] - zs[:, 1] * ys[:, 1]
                   + zs[:, 0] * ys[:, 2]) / (mu - lam)
        integ = cumulative(GridFunction(grid512, zs[:, 0] * ys[:, 0])).values
        if (k, j) == (2, 2):
            integ = integ + 1.0 / (lam - mu)
        worst = max(worst, abs(bracket[xi] - integ[xi])
                    / (1.0 + abs(bracket[xi])))
    print("09: bracket vs integral worst of 50 samples %.2e (tol 1e-7)"
          % worst)
    assert worst < 1e-7


def test_10_weights_match_contour_integrals(smooth_coeffs, smooth_data20):
    data = smooth_data20.truncate(6)
    beta_dev = w_dev = 0.0
    for n in range(1, 7):
        for k in (1, 2):
            lam = data.lam(n, k)
            a_m1, a_0 = laurent_coefficients(
                functools.partial(weyl_matrix, smooth_coeffs), lam)
            res_entry = a_m1[k, k - 1]
            beta = data.beta(n, k)
            beta_dev = max(beta_dev,
                           abs(-res_entry - beta) / (1.0 + abs(beta)))
            W = weight_matrix(data, n, k)
            N_mat = np.linalg.solve(a_0, a_m1)
            w_dev = max(w_dev,
                        float(np.abs(N_mat - W).max())
                        / (1.0 + float(np.abs(W).max())))
    print("10: beta vs residue %.2e (tol 1e-6), weight matrix vs Laurent "
          "%.2e (tol 1e-5)" % (beta_dev, w_dev))
    assert beta_dev <= 1e-6
    assert w_dev <= 1e-5
