import re
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral3 import asympt, forward
from spectral3.errors import (BasinEscapeError, DerivativeVanishesError,
                              GammaZeroError, NearPoleError,
                              NoConvergenceError, Spectral3Error)
from spectral3.forward import (_char_arrays, _gamma, _newton_family,
                               characteristic_literal, compute_spectral_data,
                               detect_K, laurent_coefficients,
                               load_spectral_data, save_spectral_data,
                               SpectralData, weight_matrix, weyl_batch,
                               weyl_matrix)
from spectral3.grid import CoefficientPair, Grid, GridFunction, integrate
from spectral3.quasi import SystemVariant, _sweep

# Frozen 40-digit oracles for the zero-coefficient problem y''' = lambda y.
# The second-family eigenvalues are the zeros of C3(1, lambda) on the
# negative real axis; beta = 3 lambda holds exactly there.
LAM_12_ZERO = -75.85925548416005720924
LAM_22_ZERO = -485.549267295159508936
# Constant tau1 = 1: C3(1) and C3'(1) in exponential basis (test_quasi
# checks the trajectory; here the compound-route determinants).
C3_TAU1_LAM1 = 0.4296233361288612648171
C3P_TAU1_LAM1 = 0.7350388016542261015615


def test_zero_coefficient_exact_values(zero_coeffs):
    c1, c2 = (_char_arrays(zero_coeffs, [0.0], k) for k in (1, 2))
    assert abs(c2.delta[0] - 0.5) < 1e-12   # Delta_{2,2}(0) = C3(1) = 1/2
    assert abs(c1.delta[0] + 0.5) < 1e-12   # Delta_{1,1}(0) = -1/2
    assert abs(c2.numer[0] - 1.0) < 1e-12   # Delta_{3,2}(0) = C3'(1) = 1


def test_characteristic_matches_exponential_oracle(grid512):
    ones = CoefficientPair(GridFunction.constant(grid512, 1.0),
                           GridFunction.constant(grid512, 0.0))
    c = _char_arrays(ones, [1.0], 2)
    assert abs(c.delta[0] - C3_TAU1_LAM1) < 1e-11
    assert abs(c.numer[0] - C3P_TAU1_LAM1) < 1e-11


def test_compound_route_equals_literal_minors(general_coeffs):
    rng = np.random.default_rng(11)
    lams = [complex(rng.uniform(-60, 60), rng.uniform(-60, 60))
            for _ in range(4)]
    for variant in SystemVariant:
        for fams in (1, 2, np.array([2, 1, 1, 2])):
            a = _char_arrays(general_coeffs, lams, fams, variant,
                             with_dlambda=True)
            b = characteristic_literal(general_coeffs, lams, fams, variant,
                                       with_dlambda=True)
            for f, va, vb in zip(a._fields, a, b):
                assert (np.abs(va - vb) < 1e-9 * (1.0 + np.abs(va))).all(), f


@pytest.mark.parametrize("variant", [SystemVariant.DIRECT, SystemVariant.STAR])
def test_both_families_in_one_sweep_equal_each_alone(general_coeffs128,
                                                     variant):
    # Both families at every lambda in one batch of 2L, as weyl_matrix
    # sweeps them, and a per-lambda family array: every value has the
    # bits of a one-family sweep.
    lams = np.array([-30.0, 9.0 - 6.0j, 40.0j, 250.0 + 80.0j])
    fam = np.array([2, 1, 1, 2])
    both = _char_arrays(general_coeffs128, np.tile(lams, 2),
                        np.repeat([1, 2], 4), variant, with_dlambda=True)
    mixed = _char_arrays(general_coeffs128, lams, fam, variant,
                         with_dlambda=True)
    for k in (1, 2):
        one = _char_arrays(general_coeffs128, lams, k, variant,
                           with_dlambda=True)
        part = both.take(slice(4 * (k - 1), 4 * k))
        for name, v, vb, vm in zip(one._fields, one, part, mixed):
            assert np.array_equal(vb, v), name
            assert np.array_equal(vm[fam == k], v[fam == k]), name


def test_weyl_function_identities(general_coeffs):
    # M_{2,1} == M*_{3,2}, M_{3,2} == M*_{2,1}, and the product relation
    # M*_{3,1} - M*_{2,1} M_{2,1} + M_{3,1} == 0, via the literal minors
    # of the two sweeps (independent computations).
    rng = np.random.default_rng(3)
    lams = [complex(rng.uniform(-60, 60), rng.uniform(-60, 60))
            for _ in range(4)]

    def weyl_functions(variant):
        c1, c2 = (characteristic_literal(general_coeffs, lams, k, variant)
                  for k in (1, 2))
        return (-c1.numer / c1.delta, -c1.gamma_numer / c1.delta,
                -c2.numer / c2.delta)

    m21, m31, m32 = weyl_functions(SystemVariant.DIRECT)
    ms21, ms31, ms32 = weyl_functions(SystemVariant.STAR)
    assert (np.abs(m21 - ms32) < 1e-8 * (1.0 + np.abs(m21))).all()
    assert (np.abs(m32 - ms21) < 1e-8 * (1.0 + np.abs(m32))).all()
    assert (np.abs(ms31 - ms21 * m21 + m31)
            < 1e-8 * (1.0 + np.abs(m31))).all()


def test_wronskian_expansion(general_coeffs):
    # -C1^[2](1) Delta_{1,1} + C2^[2](1) Delta_{2,1} + C3^[2](1) Delta_{3,1} = 1
    lam = 17.0 - 9.0j
    # row 2 of the fundamental matrix at x = 1: C_k^[2](1), k = 1, 2, 3
    c1, c2, c3 = _sweep(general_coeffs, SystemVariant.DIRECT, [lam],
                        np.eye(3))[0, 2]
    c = _char_arrays(general_coeffs, [lam], 1)
    total = -c1 * c.delta[0] + c2 * c.numer[0] + c3 * c.gamma_numer[0]
    assert abs(total - 1.0) < 5e-10


def test_eigenvalues_against_frozen_oracle(zero_coeffs, zero_data6):
    assert abs(zero_data6.lam(1, 2) - LAM_12_ZERO) < 1e-8 * abs(LAM_12_ZERO)
    assert abs(zero_data6.lam(2, 2) - LAM_22_ZERO) < 1e-8 * abs(LAM_22_ZERO)
    # the two families mirror each other for zero coefficients
    for n in range(1, 7):
        assert zero_data6.lam(n, 1) == -zero_data6.lam(n, 2)
    # Newton alone from the asymptotic seed (theta = 0)
    lam, _ = _newton_family(zero_coeffs, 2, [1],
                            [asympt.eigen_guess(1, 2, 0.0)], 0.0)
    assert abs(lam[0] - LAM_12_ZERO) < 1e-8 * abs(LAM_12_ZERO)


def test_weight_numbers_zero_coefficients(zero_data6):
    # beta = 3 lambda exactly for y''' = lambda y (frozen oracle)
    for n in range(1, 7):
        for k in (1, 2):
            b = zero_data6.beta(n, k)
            assert abs(b - 3.0 * zero_data6.lam(n, k)) < 1e-6 * abs(b)


def test_basin_escape_on_wrong_seed(zero_coeffs):
    with pytest.raises(BasinEscapeError):
        # seed n=3 into the n=1 basin
        _newton_family(zero_coeffs, 2, [3], [LAM_12_ZERO + 1.0], 0.0)


# Zero coefficients: from the seed 0, |dDelta_{k,k}| runs 8.3e-3, 5.6e-3,
# 5.0e-3 over the first three iterations toward lambda_{1,k}; it is
# 4.9e-3 at the seed lambda_{1,1} + 1 and 2.6e-3 at the seed of n = 2,
# k = 2.  The floor and the iteration cap are set between these.
_ESCAPE = (1, 3, -LAM_12_ZERO + 1.0)       # converges to n = 1
_FLAT_AT_0 = (2, 2, asympt.eigen_guess(2, 2, 0.0))


@pytest.mark.parametrize("floor, max_iter, entries, expected", [
    # family 2 fails at iteration 0, family 1 only after converging
    (3e-3, 50, [_ESCAPE, _FLAT_AT_0], (BasinEscapeError, 3, 1)),
    (3e-3, 50, [_FLAT_AT_0, (1, 1, 0.0), _ESCAPE], (BasinEscapeError, 3, 1)),
    # family 1 at iteration 2, family 2 at iteration 0
    (5.5e-3, 50, [(1, 1, 0.0), _FLAT_AT_0], (DerivativeVanishesError, 1, 1)),
    # within a family the earliest iteration, not the lowest position
    (5.5e-3, 50, [(1, 1, 0.0), (1, 2, -LAM_12_ZERO + 1.0)],
     (DerivativeVanishesError, 2, 1)),
    (3e-3, 2, [(1, 1, 0.0), _FLAT_AT_0], (NoConvergenceError, 1, 1)),
])
def test_joint_newton_raises_as_the_families_in_turn(
        zero_coeffs, monkeypatch, floor, max_iter, entries, expected):
    # Both families run in one active set, yet a failure is reported as
    # by family 1 searched to the end before family 2.
    monkeypatch.setattr(forward, "_DERIV_FLOOR", floor)
    monkeypatch.setattr(forward, "_NEWTON_MAX_ITER", max_iter)
    ks, ns, seeds = zip(*entries)
    with pytest.raises(expected[0]) as ei:
        _newton_family(zero_coeffs, np.array(ks), ns, seeds, 0.0)
    assert (ei.value.n, ei.value.k) == expected[1:]


def test_weight_beta_at_eigenvalue(zero_coeffs, zero_data6):
    lam = zero_data6.lam(1, 2)
    a = _char_arrays(zero_coeffs, [lam], 2, with_dlambda=True)
    beta = a.numer[0] / a.ddelta[0]
    assert abs(beta - zero_data6.beta(1, 2)) < 1e-9 * abs(zero_data6.beta(1, 2))


def test_weight_gamma_guards(zero_coeffs, zero_data6):
    lam = zero_data6.lam(1, 2)
    a = _char_arrays(zero_coeffs, [lam, lam], [1, 2], with_dlambda=True)
    with pytest.raises(GammaZeroError):
        # neither weight number vanishes at a simple eigenvalue
        _gamma(lam, a.gamma_numer / a.ddelta, zero_data6.betas[0])


def test_detect_K_plain():
    K, perm = detect_K([[1.0 + 1j, 11.0], [5.0, 2.0], [9.0, 6.0]])
    assert K == []
    assert sorted(perm.tolist()) == [0, 1, 2]


def test_detect_K_collision_with_permutation():
    lam = np.array([[4.0 + 2j, 95.0], [30.0, 4.0 + 2j + 1e-12],
                    [100.0, 33.0]])
    K, perm = detect_K(lam)
    assert K == [1]
    assert perm[0] == 1  # the matching entry is pulled to position 0
    reordered = lam[perm, 1]
    assert abs(reordered[0] - lam[0, 0]) < 1e-8


@settings(max_examples=30)
@given(st.permutations(list(range(5))))
def test_detect_K_recovers_total_pairing(order):
    first = np.array([10.0 * (i + 1) + 1j * i for i in range(5)])
    second = first[np.asarray(order)] + 1e-11
    K, perm = detect_K(np.stack([first, second], axis=1))
    assert K == [1, 2, 3, 4, 5]
    assert np.abs(second[perm] - first).max() < 1e-8


def test_spectral_data_container(smooth_data20):
    d = smooth_data20
    assert d.n_max == 20 and d.lambdas.shape == d.betas.shape == (20, 2)
    assert d.K == []
    tr = d.truncate(8)
    assert tr.n_max == 8
    assert tr.lam(3, 1) == d.lam(3, 1)
    with pytest.raises(IndexError):
        d.lam(21, 1)
    with pytest.raises(IndexError):
        d.lam(1, 3)


_BETAS2 = [[0.0, 1.0], [3.0, 4.0]]


def test_spectral_data_K_snap():
    lam = np.array([[2.0 + 1.0j, 2.0 + 1.0j + 1e-9], [50.0, -50.0]])
    d = SpectralData(theta=0.0, lambdas=lam.copy(), betas=_BETAS2,
                     K=[1], gamma={1: 2.0})
    assert d.lambdas[0, 1] == d.lambdas[0, 0]  # bitwise after the snap
    lam[0, 1] = 2.5 + 1.0j
    with pytest.raises(ValueError, match="n=1 is marked coinciding"):
        SpectralData(theta=0.0, lambdas=lam, betas=_BETAS2,
                     K=[1], gamma={1: 2.0})


@pytest.mark.parametrize("lam, betas, message", [
    pytest.param(np.ones(2), np.ones(2), "lambdas and betas", id="1-D"),
    pytest.param(np.ones((2, 3)), np.ones((2, 3)), "lambdas and betas",
                 id="3 columns"),
    pytest.param(np.ones((2, 2)), np.ones((3, 2)), "lambdas and betas",
                 id="betas longer"),
])
def test_spectral_data_tables_are_n_by_2(lam, betas, message):
    with pytest.raises(ValueError, match=message):
        SpectralData(theta=0.0, lambdas=lam, betas=betas)



def test_spectral_data_rejects_duplicate_K():
    # the gamma check compares sets, so a repeated n must be caught apart
    lam = np.array([[2.0 + 1.0j, 2.0 + 1.0j], [50.0, 50.0]])
    with pytest.raises(ValueError, match="n=1 more than once"):
        SpectralData(theta=0.0, lambdas=lam, betas=_BETAS2,
                     K=[1, 1], gamma={1: 2.0})


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_pair_tol_must_be_finite_and_nonnegative(zero_coeffs, tol):
    # a NaN or negative tolerance pairs nothing and an infinite one pairs
    # everything; all are refused before any sweep
    with pytest.raises(ValueError, match="pair tolerance"):
        compute_spectral_data(zero_coeffs, 2, pair_tol=tol)


def test_n_max_below_one_refused_before_any_sweep(zero_coeffs, monkeypatch):
    calls: list = []
    _count_sweeps(monkeypatch, calls)
    with pytest.raises(ValueError, match="n_max must be at least 1, got 0"):
        compute_spectral_data(zero_coeffs, 0)
    assert calls == []


@pytest.mark.parametrize("N, message", [
    (0, "truncation order N must be at least 1, got 0"),
    (-3, "truncation order N must be at least 1, got -3"),
    (21, "N=21 exceeds the data range n_max=20"),
])
def test_truncate_refuses_orders_outside_the_data(smooth_data20, N, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        smooth_data20.truncate(N)


@pytest.mark.parametrize("n", [1.7, True, "1"])
def test_spectral_data_refuses_non_integer_K(n):
    # int() would read each of these as 1
    lam = np.array([[2.0 + 1.0j, 2.0 + 1.0j], [50.0, -50.0]])
    for K, gamma in (([n], {n: 2.0}), ([1], {n: 2.0}), ([n], {1: 2.0})):
        with pytest.raises(ValueError, match="must be integers"):
            SpectralData(theta=0.0, lambdas=lam, betas=_BETAS2, K=K,
                         gamma=gamma)


def test_spectral_data_accepts_numpy_integer_K():
    lam = np.array([[2.0 + 1.0j, 2.0 + 1.0j], [50.0, -50.0]])
    d = SpectralData(theta=0.0, lambdas=lam, betas=_BETAS2,
                     K=[np.int64(1)], gamma={np.int64(1): 2.0})
    assert d.K == [1] and type(d.K[0]) is int
    assert list(d.gamma) == [1] and type(next(iter(d.gamma))) is int


def test_spectral_data_copies_the_callers_tables():
    lam = np.array([[2.0 + 1.0j, 2.0 + 1.0j + 1e-9], [50.0, -50.0]])
    betas = np.array(_BETAS2, dtype=complex)
    lam_before = lam.copy()
    d = SpectralData(theta=0.0, lambdas=lam, betas=betas, K=[1],
                     gamma={1: 2.0})
    # the snap lambda_{1,2} = lambda_{1,1} changed the record, not lam
    assert np.array_equal(lam, lam_before)
    assert d.lambdas[0, 1] == d.lambdas[0, 0]
    assert d.lambdas is not lam and d.betas is not betas
    for other in (d.copy(), d.truncate(1)):
        assert not np.shares_memory(other.lambdas, d.lambdas)
        assert not np.shares_memory(other.betas, d.betas)


def test_spectral_data_json_roundtrip(tmp_path, smooth_data20):
    path = tmp_path / "sd.json"
    save_spectral_data(path, smooth_data20)
    back = load_spectral_data(path)
    assert back.theta == smooth_data20.theta
    assert np.array_equal(back.lambdas, smooth_data20.lambdas)
    assert np.array_equal(back.betas, smooth_data20.betas)
    # coverage check
    import json
    obj = json.loads(path.read_text())
    obj["entries"] = obj["entries"][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="cover"):
        load_spectral_data(bad)
    # a repeated (n, k) is refused, not overwritten by its last copy
    obj = json.loads(path.read_text())
    obj["entries"].append(dict(obj["entries"][0], **{"lambda": [123, 0]}))
    bad.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=r"\(n=1, k=1\) is repeated"):
        load_spectral_data(bad)


def test_diagnostics_are_written_and_not_read_back(tmp_path, zero_data6):
    import json
    path = tmp_path / "sd.json"
    save_spectral_data(path, zero_data6, {"note": 1.5})
    assert json.loads(path.read_text())["diagnostics"] == {"note": 1.5}
    back = load_spectral_data(path)
    assert not hasattr(back, "diagnostics")
    assert np.array_equal(back.lambdas, zero_data6.lambdas)
    save_spectral_data(path, zero_data6)
    assert "diagnostics" not in json.loads(path.read_text())


def test_gauge_invariance(smooth_coeffs, smooth_data8):
    shifted = smooth_coeffs.gauge_shifted(1.5 - 0.8j)
    other = compute_spectral_data(shifted, 8)
    for n in range(1, 9):
        for k in (1, 2):
            dl = abs(other.lam(n, k) - smooth_data8.lam(n, k))
            db = abs(other.beta(n, k) - smooth_data8.beta(n, k))
            assert dl < 1e-8 * (1.0 + abs(smooth_data8.lam(n, k)))
            assert db < 1e-8 * (1.0 + abs(smooth_data8.beta(n, k)))


def test_dagger_spectra_relation(general_coeffs):
    # the conjugate-flipped problem swaps the families with -conj
    data = compute_spectral_data(general_coeffs, 5)
    ddata = compute_spectral_data(general_coeffs.dagger(), 5)
    for n in range(1, 6):
        assert (abs(ddata.lam(n, 1) + np.conj(data.lam(n, 2)))
                < 1e-8 * (1.0 + abs(data.lam(n, 2))))
        assert (abs(ddata.lam(n, 2) + np.conj(data.lam(n, 1)))
                < 1e-8 * (1.0 + abs(data.lam(n, 1))))


def test_weyl_matrix_structure(general_coeffs):
    m = weyl_matrix(general_coeffs, 7.0 + 5.0j)
    assert np.array_equal(np.diag(m), np.ones(3))
    assert m[0, 1] == 0 and m[0, 2] == 0 and m[1, 2] == 0
    ms = weyl_matrix(general_coeffs, 7.0 + 5.0j, SystemVariant.STAR)
    assert abs(m[1, 0] - ms[2, 1]) < 1e-8 * (1.0 + abs(m[1, 0]))


def test_weyl_matrix_pole_guard(zero_coeffs, zero_data6):
    pole = zero_data6.lam(1, 1)
    with pytest.raises(NearPoleError):
        weyl_matrix(zero_coeffs, pole)
    # inside a batch the error names the offending lambda
    with pytest.raises(NearPoleError, match=re.escape(str(complex(pole)))):
        weyl_matrix(zero_coeffs, [7.0 + 5.0j, pole, -20.0 + 3.0j])


def _fundamental(coeffs, variant, lam):
    """C_1, C_2, C_3 at one lambda: (M+1, 3, 3) over node, order,
    solution."""
    return _sweep(coeffs, variant, [lam], np.eye(3), store=True)[:, 0]


def test_weyl_solutions_boundary_values(general_coeffs):
    lam = 20.0 + 14.0j
    # phi[k]: (M+1, 3) states of Phi_k over node and order
    phi = {k: weyl_batch(general_coeffs, [lam], SystemVariant.DIRECT, k)[0]
           for k in (1, 2, 3)}
    # Phi_1: y(0) = 1, vanishing terminal data
    assert abs(phi[1][0, 0] - 1.0) < 1e-12
    scale1 = 1.0 + np.abs(phi[1][:, 0]).max()
    assert abs(phi[1][-1, 0]) < 1e-10 * scale1
    assert abs(phi[1][-1, 1]) < 1e-10 * scale1
    # Phi_2: y(0) = 0, y'(0) = 1, y(1) = 0
    assert abs(phi[2][0, 0]) < 1e-12
    assert abs(phi[2][0, 1] - 1.0) < 1e-12
    assert abs(phi[2][-1, 0]) < 1e-9 * (1.0 + np.abs(phi[2][:, 0]).max())
    # Phi_3 = C3
    C3 = _fundamental(general_coeffs, SystemVariant.DIRECT, lam)[:, :, 2]
    scale3 = 1.0 + np.abs(C3).max()
    assert np.abs(phi[3] - C3).max() < 1e-12 * scale3


def test_weyl_phi2_forward_route(general_coeffs):
    # real negative lambda has a growing middle exponent, so Phi_2 is
    # built forward as C2 + M_{3,2} C3; the terminal zero then rests on
    # cancellation
    phi2 = weyl_batch(general_coeffs, [-30.0], SystemVariant.DIRECT, 2)[0]
    assert abs(phi2[0, 0]) < 1e-12
    assert abs(phi2[0, 1] - 1.0) < 1e-12
    assert abs(phi2[-1, 0]) < 1e-9 * (1.0 + np.abs(phi2[:, 0]).max())


@pytest.mark.parametrize("variant", [SystemVariant.DIRECT, SystemVariant.STAR])
def test_weyl_solution_matches_fundamental_combination(general_coeffs,
                                                       variant):
    # Phi_1 = C1 + M_{2,1} C2 + M_{3,1} C3  (backward route vs forward basis)
    lam = 9.0 - 6.0j
    phi = {k: weyl_batch(general_coeffs, [lam], variant, k) for k in (1, 2)}
    m = weyl_matrix(general_coeffs, lam, variant)
    C = np.moveaxis(_fundamental(general_coeffs, variant, lam), 2, 0)
    combo = C[0] + m[1, 0] * C[1] + m[2, 0] * C[2]
    scale = 1.0 + np.abs(combo).max()
    assert np.abs(phi[1][0] - combo).max() < 1e-8 * scale
    # Phi_2 = C2 + M_{3,2} C3
    combo2 = C[1] + m[2, 1] * C[2]
    assert np.abs(phi[2][0] - combo2).max() < 1e-8 * (1.0 + np.abs(combo2).max())


def test_weight_matrix_forms(smooth_data8):
    W = weight_matrix(smooth_data8, 2, 1)
    assert W[1, 0] == -smooth_data8.beta(2, 1)
    assert np.count_nonzero(W) == 1
    W2 = weight_matrix(smooth_data8, 2, 2)
    assert W2[2, 1] == -smooth_data8.beta(2, 2)
    assert np.count_nonzero(W2) == 1


def test_weight_matrix_on_K():
    d = SpectralData(theta=0.0, lambdas=[[4.0j, 4.0j]],
                     betas=[[0.0, 2.0 + 1j]], K=[1], gamma={1: 1.5})
    W = weight_matrix(d, 1, 1)
    assert W[1, 0] == 0.0 and W[2, 1] == -(2.0 + 1j) and W[2, 0] == -1.5


def test_laurent_quadrature_exact():
    a_m1, a_0 = laurent_coefficients(
        lambda z: 2.0 / (z - 0.5j) + 5.0 + 3.0 * (z - 0.5j), 0.5j, radius=0.1)
    assert abs(a_m1 - 2.0) < 1e-12
    assert abs(a_0 - 5.0) < 1e-12

    # matrix-valued
    def mat(z):
        out = np.zeros(z.shape + (2, 2), dtype=complex)
        out[:, 0, 0] = 1.0 / (z - 1.0)
        out[:, 1, 0] = 2.0
        out[:, 1, 1] = z
        return out

    a_m1, a_0 = laurent_coefficients(mat, 1.0, radius=0.05)
    assert np.abs(a_m1 - [[1, 0], [0, 0]]).max() < 1e-12
    assert np.abs(a_0 - [[0, 0], [2, 1]]).max() < 1e-10


def test_laurent_rejects_callback_without_point_axis():
    # values that ignore the contour points would broadcast silently
    with pytest.raises(ValueError, match="leading axis"):
        laurent_coefficients(lambda z: np.eye(3), 1.0)
    with pytest.raises(ValueError, match="leading axis"):
        laurent_coefficients(lambda z: 5.0, 1.0)
    with pytest.raises(ValueError, match="leading axis"):
        laurent_coefficients(lambda z: z[:-1], 1.0)


@pytest.mark.parametrize("variant", [SystemVariant.DIRECT, SystemVariant.STAR])
def test_weyl_matrix_batch_equals_pointwise(general_coeffs128, variant):
    # the contour of laurent_coefficients around lambda_{1,1}, plus a far
    # point; M = 128 keeps the 65 scalar calls cheap
    center = compute_spectral_data(general_coeffs128, 1).lam(1, 1)
    radius = 1e-3 * (1.0 + abs(center))
    th = 2.0 * np.pi * np.arange(64) / 64
    lams = np.append(center + radius * np.exp(1j * th), 300.0 - 120.0j)
    batch = weyl_matrix(general_coeffs128, lams, variant)
    assert batch.shape == (65, 3, 3)
    pointwise = np.stack([weyl_matrix(general_coeffs128, z, variant)
                          for z in lams])
    assert pointwise.shape == (65, 3, 3)
    rel = (np.abs(batch - pointwise).max(axis=(1, 2))
           / np.abs(pointwise).max(axis=(1, 2)))
    assert rel.max() <= 1e-14


@pytest.fixture(scope="module")
def coinciding_coeffs(grid128):
    # Constant tau1 = t, sigma0 = 0: lambda_{1,1} and lambda_{1,2} = -lambda_{1,1}
    # meet near 0 where Delta_{2,1}(0) changes sign (t close to 19.74), and
    # both weight numbers vanish there.  A secant on t pins that point.
    def coeffs(t):
        return CoefficientPair(GridFunction.constant(grid128, t),
                               GridFunction.constant(grid128, 0.0))

    def d21(t):
        return _char_arrays(coeffs(t), [0.0], 1).numer[0].real

    t0, t1 = 19.7, 19.8
    f0, f1 = d21(t0), d21(t1)
    for _ in range(30):
        if abs(t1 - t0) < 1e-14:
            break
        t0, f0, t1 = t1, f1, t1 - f1 * (t1 - t0) / (f1 - f0)
        f1 = d21(t1)
    return coeffs(t1)


def test_gamma_from_weight_batch_matches_weight_gamma(coinciding_coeffs):
    # gamma_1 from the two weight batches against both families swept
    # together at lambda_1
    data = compute_spectral_data(coinciding_coeffs, 3, pair_tol=1e-6)
    assert data.K == [1]
    assert data.beta(1, 1) == 0 and data.beta(1, 2) == 0
    lam = data.lam(1, 1)
    a = _char_arrays(coinciding_coeffs, [lam, lam], [1, 2], with_dlambda=True)
    ref = _gamma(lam, a.gamma_numer / a.ddelta, data.betas[0])
    assert abs(data.gamma[1] - ref) <= 1e-12 * abs(ref)


def _count_sweeps(monkeypatch, calls, skip=lambda: False):
    """Record (L, with_dlambda) of every forward._sweep call while skip()
    is false."""
    sweep = forward._sweep

    def counting(coeffs, variant, lams, inits, with_dlambda=False, **kw):
        if not skip():
            calls.append((np.atleast_1d(lams).shape[0], with_dlambda))
        return sweep(coeffs, variant, lams, inits, with_dlambda=with_dlambda,
                     **kw)

    monkeypatch.setattr(forward, "_sweep", counting)


@pytest.mark.parametrize("variant", [SystemVariant.DIRECT, SystemVariant.STAR])
def test_weyl_batch_sweeps_only_the_family_it_reads(general_coeffs128,
                                                    variant, monkeypatch):
    # Phi_1 reads characteristic family 1, Phi_2 family 2, Phi_3 neither;
    # -30 and 9 - 6i take opposite Phi_2 routes in either variant
    calls: list = []
    _count_sweeps(monkeypatch, calls)
    for lam in (-30.0, 9.0 - 6.0j):
        for k in (1, 2, 3):
            calls.clear()
            batch = weyl_batch(general_coeffs128, [lam], variant, k)
            assert [c for c in calls if c[1]] == ([] if k == 3 else
                                                  [(1, True)])
            assert batch.shape == (1, general_coeffs128.grid.M + 1, 3)


def test_weyl_matrix_sweeps_both_families_once(general_coeffs128,
                                               monkeypatch):
    calls: list = []
    _count_sweeps(monkeypatch, calls)
    weyl_matrix(general_coeffs128, np.array([-30.0, 9.0 - 6.0j, 40.0j]))
    assert calls == [(6, True)]


def test_joint_newton_sweeps_both_families_once_per_iteration(
        general_coeffs128, monkeypatch):
    # Each joint Newton iteration is one d/dlambda sweep over the active
    # entries of both families, as many as the two families searched
    # alone have active at that iteration, and with K empty nothing is
    # swept after Newton.
    theta = integrate(general_coeffs128.tau1)
    ns = np.arange(1, 7)
    calls: list = []
    _count_sweeps(monkeypatch, calls)
    alone = []
    for k in (1, 2):
        calls.clear()
        _newton_family(general_coeffs128, k, ns,
                       asympt.eigen_guess(ns, k, theta), theta)
        alone.append([L for L, _ in calls])
    calls.clear()
    assert compute_spectral_data(general_coeffs128, 6).K == []
    sizes = [a + b for a, b in zip_longest(*alone, fillvalue=0)]
    assert sizes[0] == 12 and len(sizes) == 4
    assert calls == [(L, True) for L in sizes]


def test_weight_step_sweeps_each_family_at_its_eigenvalues(general_coeffs128,
                                                           coinciding_coeffs,
                                                           monkeypatch):
    # beta_{n,k} reads family k at lambda_{n,k} from Newton's last
    # evaluation there, so with K empty no sweep follows the Newton
    # searches.  On K, lambda_{n,2} is set to lambda_{n,1}: family 2 is
    # swept there once, one d/dlambda sweep of L = |K|.
    newton = forward._newton_family
    depth: list = []

    def in_newton(*args, **kwargs):
        depth.append(1)
        try:
            return newton(*args, **kwargs)
        finally:
            depth.pop()

    char_arrays = forward._char_arrays
    families: list = []

    def recording(*args, **kwargs):
        if not depth:
            families.append(args[2])
        return char_arrays(*args, **kwargs)

    monkeypatch.setattr(forward, "_newton_family", in_newton)
    monkeypatch.setattr(forward, "_char_arrays", recording)
    calls: list = []
    _count_sweeps(monkeypatch, calls, skip=lambda: bool(depth))
    compute_spectral_data(general_coeffs128, 5)
    assert calls == [] and families == []
    data = compute_spectral_data(coinciding_coeffs, 3, pair_tol=1e-6)
    assert data.K == [1]
    assert calls == [(1, True)] and families == [2]


def test_weights_equal_a_sweep_at_each_eigenvalue_alone(general_coeffs128):
    # The weights come from Newton's converged batched evaluations; a
    # fresh sweep at each eigenvalue alone gives the same bits.
    data = compute_spectral_data(general_coeffs128, 6)
    assert data.K == []
    for n in range(1, 7):
        for k in (1, 2):
            lam = data.lam(n, k)
            a = forward._char_arrays(general_coeffs128, [lam], k,
                                     with_dlambda=True)
            assert data.beta(n, k) == a.numer[0] / a.ddelta[0]
