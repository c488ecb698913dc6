import functools
import json
import os
import re
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral3 import asympt, forward, quasi
from spectral3.cli import main
from spectral3.errors import (BasinEscapeError, DerivativeVanishesError,
                              GammaZeroError, NearPoleError,
                              NoConvergenceError, ResolutionGuardError)
from spectral3.forward import (_char_arrays, _gamma, _newton_family,
                               compute_spectral_data, detect_K,
                               laurent_coefficients, load_spectral_data,
                               save_spectral_data, SpectralData,
                               weight_matrix, weyl_batch, weyl_matrix)
from spectral3.grid import (CoefficientPair, GridFunction, integrate,
                            read_coefficients, write_coefficients)
from spectral3.quasi import SystemVariant, _sweep

from helpers import (both_families_roots, characteristic_literal, dagger,
                     dlambda_newton_family, from_callables, gauge_shifted,
                     guess_seeds, weyl_contour_reference)

_NAN, _INF = float("nan"), float("inf")

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
    ones = CoefficientPair.model(grid512, 1.0)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["theta", "lambdas", "betas", "gamma"])
def test_spectral_data_refuses_non_finite_values(field, bad):
    # one coinciding pair, so that gamma is present
    kw = dict(theta=0.3, lambdas=np.array([[2.0, 2.0], [50.0, -50.0]]),
              betas=np.array([[0.0, 6.0], [150.0, -150.0]]), K=[1],
              gamma={1: 2.0})
    if field == "theta":
        kw["theta"] = complex(bad, 0.0)
    elif field == "gamma":
        kw["gamma"] = {1: bad}
    else:
        kw[field][1, 1] = bad
    with pytest.raises(ValueError, match="%s must be finite" % field):
        SpectralData(**kw)



def test_spectral_data_rejects_duplicate_K():
    # the gamma check compares sets, so a repeated n must be caught apart
    lam = np.array([[2.0 + 1.0j, 2.0 + 1.0j], [50.0, 50.0]])
    with pytest.raises(ValueError, match="n=1 more than once"):
        SpectralData(theta=0.0, lambdas=lam, betas=_BETAS2,
                     K=[1, 1], gamma={1: 2.0})


@pytest.mark.parametrize("K, gamma", [([1], {}), ([], {1: 2.0}),
                                      ([1], {2: 2.0})])
def test_spectral_data_gamma_exactly_on_K(K, gamma):
    lam = np.array([[2.0 + 1.0j, 2.0 + 1.0j], [50.0, 50.0]])
    with pytest.raises(ValueError, match="gamma must be given exactly on K"):
        SpectralData(theta=0.0, lambdas=lam, betas=_BETAS2, K=K, gamma=gamma)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_pair_tol_must_be_finite_and_nonnegative(zero_coeffs, tol):
    # a NaN or negative tolerance pairs nothing and an infinite one pairs
    # everything; all are refused before any sweep
    with pytest.raises(ValueError, match="pair tolerance"):
        compute_spectral_data(zero_coeffs, 2, pair_tol=tol)


def test_n_max_below_one_refused_before_any_sweep(zero_coeffs, sweep_calls):
    with pytest.raises(ValueError, match="n_max must be at least 1, got 0"):
        compute_spectral_data(zero_coeffs, 0)
    assert sweep_calls == []


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
    shifted = gauge_shifted(smooth_coeffs, 1.5 - 0.8j)
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
    ddata = compute_spectral_data(dagger(general_coeffs), 5)
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


@pytest.fixture(scope="module")
def guard_pairs(smooth_coeffs, smooth_data20, general_coeffs, zero_coeffs):
    # (coeffs, spectral data at n_max 20) of three pairs at M = 512
    return {"smooth": (smooth_coeffs, smooth_data20),
            "general": (general_coeffs,
                        compute_spectral_data(general_coeffs, 20)),
            "zero": (zero_coeffs, compute_spectral_data(zero_coeffs, 20))}


def _derivative_verdict(coeffs, lams, k, variant):
    # the pole test on a d/dlambda sweep of every point: |Delta| <=
    # _POLE_TOL (1 + |lambda|) |dDelta| in family k
    a = _char_arrays(coeffs, lams, k, variant, with_dlambda=True)
    return (np.abs(a.delta)
            <= forward._POLE_TOL * (1.0 + np.abs(lams)) * np.abs(a.ddelta))


# relative offsets of the test points from an eigenvalue
_GUARD_OFFSETS = np.array([0.0, 1e-12, -1e-12, 1e-11 * np.exp(0.7j), 1e-10,
                           1e-9, 1e-6])


@pytest.mark.parametrize("variant", [SystemVariant.DIRECT, SystemVariant.STAR])
@pytest.mark.parametrize("name", ["smooth", "general", "zero"])
def test_pole_guard_keeps_the_derivative_verdict(guard_pairs, name,
                                                 variant):
    # The guard screens with the plain record and tests only the
    # suspects on a d/dlambda sweep.  At lambda_{n,k}(1 + delta), n in
    # {1, 3, 6, 20}, both k, it raises NearPoleError iff the derivative
    # test, taken on a d/dlambda sweep of every point, flags, and names
    # the same lambda: per point, and for the whole batch the first
    # flagged one, family 1 before family 2.  The STAR poles of family k
    # are the eigenvalues of family 3 - k, so in STAR the first point
    # flags family 2 only.
    coeffs, data = guard_pairs[name]
    roots = data.lambdas[[0, 2, 5, 19]].ravel()
    lams = (roots[:, None] * (1.0 + _GUARD_OFFSETS)).ravel()
    near = {k: _derivative_verdict(coeffs, lams, k, variant) for k in (1, 2)}
    either = near[1] | near[2]
    assert near[1].any() and near[2].any() and not either.all()

    def raises_at(call, lam, label):
        with pytest.raises(NearPoleError,
                           match=re.escape("lambda=%s is numerically at a "
                                           "zero of %s" % (lam, label))):
            call()

    def delta(k):
        return "Delta_{%d,%d}" % (k, k)

    k = 1 if near[1].any() else 2
    raises_at(lambda: weyl_matrix(coeffs, lams, variant),
              lams[np.flatnonzero(near[k])[0]], delta(k))
    weyl_matrix(coeffs, lams[~either], variant)
    for z, k in zip(lams[either], np.where(near[1], 1, 2)[either]):
        raises_at(lambda: weyl_matrix(coeffs, z, variant), z, delta(k))
    for k in (1, 2):
        label = "the k=%d characteristic" % k
        raises_at(lambda: weyl_batch(coeffs, lams, variant, k),
                  lams[np.flatnonzero(near[k])[0]], label)
        weyl_batch(coeffs, lams[~near[k]], variant, k)
        for z in lams[near[k]]:
            raises_at(lambda: weyl_batch(coeffs, z, variant, k), z, label)


def test_pole_guard_premise(guard_pairs):
    # The guard can fire only at a suspect while (1 + |lambda|) |dDelta|
    # <= 1000 ||row||, ||row|| the largest of |delta|, |numer| and
    # |gamma_numer|.  Checked here against 1 ||row|| (measured below
    # 0.14) on 1000 lambdas per pair with |lambda|^(1/3) up to the
    # resolution guard, in all directions, of both families, half of
    # them in each variant.
    rng = np.random.default_rng(2701)
    M = guard_pairs["zero"][0].grid.M
    rho = rng.uniform(0.0, quasi._RESOLUTION_FACTOR * M, 1000)
    lams = rho ** 3 * np.exp(2j * np.pi * rng.uniform(size=1000))
    fams = rng.integers(1, 3, size=1000)
    halves = (slice(500), slice(500, None))
    for coeffs, _ in guard_pairs.values():
        assert coeffs.grid.M == M
        for variant, part in zip(SystemVariant, halves):
            a = _char_arrays(coeffs, lams[part], fams[part], variant,
                             with_dlambda=True)
            row = np.abs([a.delta, a.numer, a.gamma_numer]).max(axis=0)
            q = (1.0 + np.abs(lams[part])) * np.abs(a.ddelta) / row
            assert q.max() <= 1.0
    assert round(forward._SUSPECT / forward._POLE_TOL) >= 1000


@pytest.mark.parametrize("lams, message", [
    (np.ones((2, 2)), "got shape (2, 2)"),
    (np.ones((1, 3)), "got shape (1, 3)"),
    (np.ones((3, 1), dtype=complex), "got shape (3, 1)"),
    (_NAN, "got (nan+0j) at index 0"),
    (_INF, "got (inf+0j) at index 0"),
    (complex(1.0, -_INF), "got (1-infj) at index 0"),
    ([4.0, 5.0j, _NAN, _INF], "got (nan+0j) at index 2"),
    (np.array([9.0, -_INF]), "got (-inf+0j) at index 1"),
])
def test_weyl_refuses_bad_lambdas(general_coeffs128, sweep_calls, lams,
                                  message):
    # refused before any sweep, by weyl_matrix and by weyl_batch for
    # every k; so is a k that is not the integer 1, 2 or 3, a bool or a
    # float included, which `in (1, 2, 3)` would take for Phi_1, Phi_2
    calls = [functools.partial(weyl_matrix, general_coeffs128)] + [
        functools.partial(weyl_batch, general_coeffs128,
                          variant=SystemVariant.STAR, k=k) for k in (1, 2, 3)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(message)):
            call(lams)
    for k, shown in ((True, "Phi_True"), (2.0, "Phi_2.0"), (0, "Phi_0"),
                     (4, "Phi_4")):
        with pytest.raises(ValueError, match="no Weyl solution %s" % shown):
            weyl_batch(general_coeffs128, 9.0 - 6.0j, SystemVariant.STAR, k)
    assert sweep_calls == []


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


@pytest.mark.parametrize("radius", [float("nan"), float("inf"),
                                    -float("inf"), 0.0, -0.1])
def test_laurent_refuses_a_bad_radius(radius):
    # refused before fn is called: a zero radius would sample the pole
    # itself, a non-finite one gives NaN coefficients
    def fn(z):
        raise AssertionError("fn called")

    with pytest.raises(ValueError, match="radius must be finite and positive"):
        laurent_coefficients(fn, 1.0, radius=radius)


@pytest.mark.parametrize("radius", [None, 1e-3])
@pytest.mark.parametrize("center", [_NAN, _INF, -_INF, complex(_NAN, 0.0),
                                    complex(1.0, _NAN), complex(0.0, _INF),
                                    complex(_INF, -_INF),
                                    np.array([100.0, 200.0])])
def test_laurent_refuses_a_non_finite_center(center, radius):
    # refused before fn is called, whatever the radius; so is a center
    # that is not a scalar, by its shape
    called = []

    def fn(z):
        called.append(z)
        return np.ones(z.shape)

    message = ("center must be a scalar, got shape (2,)" if np.ndim(center)
               else "center must be finite")
    with pytest.raises(ValueError, match=re.escape(message)):
        laurent_coefficients(fn, center, radius=radius)
    assert called == []


def _aliasing_error(c, r):
    # a pole at c and one at distance 2r: the trapezoid rule aliases
    # (r/2r)^P of the outer pole into both coefficients
    a_m1, a_0 = laurent_coefficients(
        lambda z: 2.0 / (z - c) + 1.0 / (z - c - 2.0 * r), c, radius=r)
    return max(abs(a_m1 - 2.0), abs(2.0 * r * a_0 + 1.0))


def test_laurent_aliasing_follows_the_trapezoid_law(monkeypatch):
    # the error is 2^-P (1 + O(2^-P)) at P points: 2.3e-10 at 32, 1.5e-5
    # at 16, so a 16-point rule fails the bound 2 * 2^-32
    c, r = 3.0 - 1.0j, 0.01
    assert _aliasing_error(c, r) <= 2.0 * 2.0 ** -32
    for P in (32, 16):
        monkeypatch.setattr(forward, "_CONTOUR_POINTS", P)
        err = _aliasing_error(c, r)
        assert abs(err - 2.0 ** -P) <= 1e-3 * 2.0 ** -P
    assert err > 2.0 * 2.0 ** -32


def test_laurent_weyl_coefficients_match_a_256_point_contour(
        general_coeffs128, monkeypatch):
    # around lambda_{n,k}, n <= 6, the 32-point coefficients of the Weyl
    # matrix agree with a 256-point contour to rounding (measured 3.7e-11
    # of 1 + max|A|)
    data = compute_spectral_data(general_coeffs128, 6)
    fn = functools.partial(weyl_matrix, general_coeffs128)
    centers = [data.lam(n, k) for n in range(1, 7) for k in (1, 2)]
    ours = [laurent_coefficients(fn, lam) for lam in centers]
    monkeypatch.setattr(forward, "_CONTOUR_POINTS", 256)
    for lam, pair in zip(centers, ours):
        for a, ref in zip(pair, laurent_coefficients(fn, lam)):
            assert np.abs(a - ref).max() <= 1e-9 * (1.0 + np.abs(ref).max())


@pytest.mark.parametrize("variant", [SystemVariant.DIRECT, SystemVariant.STAR])
def test_weyl_matrix_batch_equals_pointwise(general_coeffs128, variant):
    # the contour of laurent_coefficients around lambda_{1,1}, plus a far
    # point; M = 128 keeps the scalar calls cheap
    center = compute_spectral_data(general_coeffs128, 1).lam(1, 1)
    radius = 1e-3 * (1.0 + abs(center))
    P = forward._CONTOUR_POINTS
    th = 2.0 * np.pi * np.arange(P) / P
    lams = np.append(center + radius * np.exp(1j * th), 300.0 - 120.0j)
    batch = weyl_matrix(general_coeffs128, lams, variant)
    assert batch.shape == (P + 1, 3, 3)
    pointwise = np.stack([weyl_matrix(general_coeffs128, z, variant)
                          for z in lams])
    assert pointwise.shape == (P + 1, 3, 3)
    rel = (np.abs(batch - pointwise).max(axis=(1, 2))
           / np.abs(pointwise).max(axis=(1, 2)))
    assert rel.max() <= 1e-14


@pytest.fixture(scope="module")
def coinciding_coeffs(grid128):
    # Constant tau1 = t, sigma0 = 0: lambda_{1,1} and lambda_{1,2} = -lambda_{1,1}
    # meet near 0 where Delta_{2,1}(0) changes sign (t close to 19.74), and
    # both weight numbers vanish there.  A secant on t pins that point.
    def d21(t):
        return _char_arrays(CoefficientPair.model(grid128, t), [0.0],
                            1).numer[0].real

    t0, t1 = 19.7, 19.8
    f0, f1 = d21(t0), d21(t1)
    for _ in range(30):
        if abs(t1 - t0) < 1e-14:
            break
        t0, f0, t1 = t1, f1, t1 - f1 * (t1 - t0) / (f1 - f0)
        f1 = d21(t1)
    return CoefficientPair.model(grid128, t1)


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


@pytest.fixture
def char_calls(monkeypatch):
    # (lambda count, family of each lambda, with_dlambda) of every
    # forward._char_arrays call
    calls = []
    inner = forward._char_arrays

    def recording(coeffs, lams, fams, variant=SystemVariant.DIRECT,
                  with_dlambda=False):
        L = np.atleast_1d(lams).shape[0]
        calls.append((L, np.broadcast_to(fams, (L,)).tolist(), with_dlambda))
        return inner(coeffs, lams, fams, variant, with_dlambda)

    monkeypatch.setattr(forward, "_char_arrays", recording)
    return calls


@pytest.mark.parametrize("variant", [SystemVariant.DIRECT, SystemVariant.STAR])
def test_weyl_batch_sweeps_only_the_family_it_reads(general_coeffs128,
                                                    variant, sweep_calls,
                                                    char_calls):
    # Phi_1 reads characteristic family 1, Phi_2 family 2, Phi_3 neither,
    # each in one plain sweep; away from a pole nothing is swept with
    # d/dlambda.  -30 and 9 - 6i take opposite Phi_2 routes in either
    # variant.
    for lam in (-30.0, 9.0 - 6.0j):
        for k in (1, 2, 3):
            sweep_calls.clear()
            char_calls.clear()
            batch = weyl_batch(general_coeffs128, [lam], variant, k)
            assert [c for c in sweep_calls if c[1]] == []
            assert char_calls == ([] if k == 3 else [(1, [k], False)])
            assert batch.shape == (1, general_coeffs128.grid.M + 1, 3)


@pytest.mark.parametrize("variant", [SystemVariant.DIRECT, SystemVariant.STAR])
def test_weyl_functions_take_no_lambdas(grid128, general_coeffs128, variant):
    # an empty batch gives empty tables of the batch shapes, on a
    # constant pair and on a general one
    constant = CoefficientPair(GridFunction.constant(grid128, 0.3),
                               GridFunction.constant(grid128, 0.0))
    for coeffs in (constant, general_coeffs128):
        assert weyl_matrix(coeffs, np.array([]), variant).shape == (0, 3, 3)
        for k in (1, 2, 3):
            batch = weyl_batch(coeffs, np.array([]), variant, k)
            assert batch.shape == (0, grid128.M + 1, 3)


def test_weyl_matrix_sweeps_both_families_once(general_coeffs128,
                                               sweep_calls):
    weyl_matrix(general_coeffs128, np.array([-30.0, 9.0 - 6.0j, 40.0j]))
    assert sweep_calls == [(6, False, False)]


def test_pole_guard_sweeps_only_the_suspects_again(general_coeffs128,
                                                   sweep_calls, char_calls):
    # At a pole one plain sweep of every point is followed by one
    # d/dlambda sweep of the points near a zero of their family's
    # Delta_{k,k}: here lambda_{1,1} in family 1 and lambda_{1,2} in
    # family 2, of 8 (point, family) pairs.
    data = compute_spectral_data(general_coeffs128, 1)
    p1, p2 = data.lam(1, 1), data.lam(1, 2)
    lams = np.array([7.0 + 5.0j, p1, -20.0 + 3.0j, p2])
    sweep_calls.clear()
    char_calls.clear()
    with pytest.raises(NearPoleError,
                       match=re.escape("lambda=%s is numerically at a zero "
                                       "of Delta_{1,1}" % p1)):
        weyl_matrix(general_coeffs128, lams)
    assert sweep_calls == [(8, False, False), (2, True, False)]
    assert char_calls == [(8, [1] * 4 + [2] * 4, False), (2, [1, 2], True)]
    for k, pole in ((1, p1), (2, p2)):
        sweep_calls.clear()
        char_calls.clear()
        with pytest.raises(NearPoleError,
                           match=re.escape("lambda=%s is numerically at a "
                                           "zero of the k=%d characteristic"
                                           % (pole, k))):
            weyl_batch(general_coeffs128, lams, SystemVariant.DIRECT, k)
        assert sweep_calls == [(4, False, False), (1, True, False)]
        assert char_calls == [(4, [k] * 4, False), (1, [k], True)]


@pytest.mark.parametrize("name", ["smooth", "general"])
def test_laurent_contour_is_one_taylor_sweep(guard_pairs, sweep_calls, name):
    # The 32 contour points around lambda_{n,k}, n <= 6, sit too far from
    # the pole for the guard's d/dlambda sweep, and each family's points
    # lie in a disc of the contour radius about the centre: the Weyl
    # matrices of a contour are one sweep of 2 lambdas, the two
    # families' centres, carrying the Taylor blocks of the order
    # forward._taylor_order gives that disc, 6 or 7 here.
    coeffs, data = guard_pairs[name]
    fn = functools.partial(weyl_matrix, coeffs)
    for n in range(1, 7):
        for k in (1, 2):
            lam = data.lam(n, k)
            order = forward._taylor_order(lam, 1e-3 * (1.0 + abs(lam)))
            assert order == (6 if n <= 2 else 7)
            sweep_calls.clear()
            laurent_coefficients(fn, lam)
            assert sweep_calls == [(2, order, False)]


@pytest.fixture(scope="module")
def contour_pairs(guard_pairs):
    # the pairs of guard_pairs with their spectral data at n_max 30
    return {name: (coeffs, compute_spectral_data(coeffs, 30))
            for name, (coeffs, _) in guard_pairs.items()}


@pytest.mark.parametrize("variant", [SystemVariant.DIRECT, SystemVariant.STAR])
@pytest.mark.parametrize("name", ["smooth", "general", "zero"])
def test_laurent_taylor_contour_matches_the_per_point_reference(
        contour_pairs, name, variant):
    # Around lambda_{n,k}, n <= 30, both k, the contour read off the
    # Taylor sweep agrees with every point swept on its own lane
    # (helpers.weyl_contour_reference): A_{-1} within 1e-12 of its
    # largest entry (measured 1.2e-13) and A_0 within 5e-10 (measured
    # 1.2e-10, the noise of the per-point samples, which are about
    # beta/r in size and cancel in the mean).
    coeffs, data = contour_pairs[name]
    fn = functools.partial(weyl_matrix, coeffs, variant=variant)
    for n in (1, 2, 6, 12, 20, 30):
        for k in (1, 2):
            lam = data.lam(n, k)
            got = laurent_coefficients(fn, lam)
            ref = weyl_contour_reference(coeffs, lam, variant)
            for a, b, tol in zip(got, ref, (1e-12, 5e-10)):
                assert np.abs(a - b).max() <= tol * np.abs(b).max()


def test_laurent_taylor_contour_at_the_resolution_guard(general_coeffs):
    # Contours whose outer points reach to within 0.2% of the resolution
    # guard at M = 512 take order 12 and agree with the per-point
    # reference within 1e-10 of max|A| over both coefficients (measured
    # 1.2e-11; no pole inside, so A_{-1} is rounding).  One whose centre
    # lies inside the guard but whose outer points cross it is refused,
    # as the per-point sweep refuses it.
    M = general_coeffs.grid.M
    rho = quasi._RESOLUTION_FACTOR * M * (1.0 - 2e-3)
    for phi in (0.3, 1.9, np.pi, -2.2):
        lam = rho ** 3 * np.exp(1j * phi)
        assert forward._taylor_order(lam, 1e-3 * (1.0 + abs(lam))) == 12
        for variant in SystemVariant:
            got = laurent_coefficients(
                functools.partial(weyl_matrix, general_coeffs,
                                  variant=variant), lam)
            ref = weyl_contour_reference(general_coeffs, lam, variant)
            scale = max(np.abs(b).max() for b in ref)
            for a, b in zip(got, ref):
                assert np.abs(a - b).max() <= 1e-10 * scale
    lam = (quasi._RESOLUTION_FACTOR * M * (1.0 - 1e-4)) ** 3
    with pytest.raises(ResolutionGuardError):
        laurent_coefficients(functools.partial(weyl_matrix, general_coeffs),
                             lam)


def test_joint_newton_sweeps_both_families_once_per_iteration(
        general_coeffs128, sweep_calls):
    # Each joint Newton iteration is one sweep of Taylor order 2 over the
    # active entries of both families, as many as the two families
    # searched alone have active at that iteration, and with K empty
    # nothing is swept after Newton.
    theta = integrate(general_coeffs128.tau1)
    ns = np.arange(1, 7)
    alone = []
    for k in (1, 2):
        sweep_calls.clear()
        _newton_family(general_coeffs128, k, ns,
                       asympt.eigen_guess(ns, k, theta), theta)
        alone.append([L for L, _, _ in sweep_calls])
    sweep_calls.clear()
    assert compute_spectral_data(general_coeffs128, 6).K == []
    sizes = [a + b for a, b in zip_longest(*alone, fillvalue=0)]
    assert sizes[0] == 12 and len(sizes) == 3
    assert sweep_calls == [(L, 2, False) for L in sizes]


def test_weight_step_sweeps_each_family_at_its_eigenvalues(general_coeffs128,
                                                           coinciding_coeffs,
                                                           sweep_calls,
                                                           monkeypatch):
    # beta_{n,k} reads family k at lambda_{n,k} off the quadratics of
    # the Newton evaluation that accepted it, so with K empty no sweep
    # follows the Newton searches.  On K, lambda_{n,2} is set to
    # lambda_{n,1}: family 2 is swept there once, one d/dlambda sweep of
    # L = |K|.
    char_arrays = forward._char_arrays
    families: list = []

    def recording(*args, **kwargs):
        families.append(args[2])
        return char_arrays(*args, **kwargs)

    newton = forward._newton_family

    def forgetting_newton(*args, **kwargs):
        # drop what the Newton search itself records
        marks = len(sweep_calls), len(families)
        try:
            return newton(*args, **kwargs)
        finally:
            del sweep_calls[marks[0]:], families[marks[1]:]

    monkeypatch.setattr(forward, "_newton_family", forgetting_newton)
    monkeypatch.setattr(forward, "_char_arrays", recording)
    compute_spectral_data(general_coeffs128, 5)
    assert sweep_calls == [] and families == []
    data = compute_spectral_data(coinciding_coeffs, 3, pair_tol=1e-6)
    assert data.K == [1]
    assert sweep_calls == [(1, True, True)] and families == [2]


def test_weights_equal_a_sweep_at_each_eigenvalue_alone(general_coeffs128):
    # The weights are numer / ddelta of Newton's record, exactly, and a
    # fresh d/dlambda sweep at each eigenvalue alone agrees within 1e-12
    # relative (measured 8.2e-14).
    theta = integrate(general_coeffs128.tau1)
    lam, a = forward._roots(general_coeffs128, 6, theta)
    data = compute_spectral_data(general_coeffs128, 6)
    assert data.K == []
    assert data.lambdas.T.tobytes() == lam.tobytes()
    assert data.betas.T.tobytes() == (a.numer / a.ddelta).tobytes()
    for n in range(1, 7):
        for k in (1, 2):
            fresh = forward._char_arrays(general_coeffs128, [data.lam(n, k)],
                                         k, with_dlambda=True)
            beta = fresh.numer[0] / fresh.ddelta[0]
            assert abs(data.beta(n, k) - beta) <= 1e-12 * abs(beta)


# ---------------------------------------------------------------------------
# Newton seeds from the constant model

SMOOTH_CSV = os.path.join(os.path.dirname(__file__), "..", "data",
                          "smooth.csv")

# Two pairs with a nonzero boundary shift, with their theta and the shift
# (-1)^(k+1) (tau1(0) + tau1(1) - 2 theta) + sigma0(1) - sigma0(0) of
# family 1 and 2, in closed form.
SHIFT_PAIRS = [
    (lambda x: 1.0 + 2.0 * x, lambda x: 0.7 * x + 0.3 * np.sin(3.0 * x),
     2.0, (0.7 + 0.3 * np.sin(3.0), 0.7 + 0.3 * np.sin(3.0))),
    (lambda x: 0.5 + np.cos(2.0 * np.pi * x) + 0.3 * x,
     lambda x: 1.5 * x * x - 0.2j * x,
     0.65, (3.5 - 0.2j, -0.5 - 0.2j)),
]


@pytest.fixture(scope="module")
def shift_coeffs(grid512):
    tau1, sigma0, _, _ = SHIFT_PAIRS[1]
    return from_callables(grid512, tau1, sigma0)


@pytest.mark.parametrize("pair", range(len(SHIFT_PAIRS)))
def test_eigenvalues_tend_to_the_model_plus_the_boundary_shift(grid512, pair):
    # lambda_{n,k} - lambda~_{n,k} -> shift_k, measured within about
    # 0.17/n^2 on both pairs at M = 512 (3.5017 - 0.2i at n = 10 on the
    # second); the forward seeds for n >= 7 sit as close
    tau1, sigma0, theta, shift = SHIFT_PAIRS[pair]
    coeffs = from_callables(grid512, tau1, sigma0)
    data = compute_spectral_data(coeffs, 20)
    assert abs(data.theta - theta) < 1e-12
    model = compute_spectral_data(CoefficientPair.model(grid512, data.theta),
                                  20)
    n = np.arange(5, 21)[:, None]
    gap = data.lambdas[4:] - model.lambdas[4:] - np.array(shift)
    assert (np.abs(gap) <= 0.5 / n ** 2).all()
    ns = np.tile(np.arange(7, 21), 2)
    ks = np.repeat([1, 2], 14)
    seeds = forward._seeds(coeffs, ns, ks, data.theta)
    lam = data.lambdas[ns - 1, ks - 1]
    assert (np.abs(seeds - lam) <= 0.5 / ns ** 2).all()


@pytest.mark.parametrize("name",
                         ["smooth_coeffs", "general_coeffs", "shift_coeffs"])
def test_model_seeds_match_the_eigen_guess_seeds(request, monkeypatch, name):
    # Rows n <= 6 keep the eigen_guess seeds and their bits; rows n >= 7
    # converge from the model seeds to the same roots (measured within
    # 3.4e-14 relative for lambda and 5.7e-14 for beta).
    coeffs = request.getfixturevalue(name)
    data = compute_spectral_data(coeffs, 30)
    monkeypatch.setattr(forward, "_seeds", guess_seeds)
    ref = compute_spectral_data(coeffs, 30)
    assert data.K == ref.K and data.gamma == ref.gamma
    for new, old, tol in ((data.lambdas, ref.lambdas, 1e-12),
                          (data.betas, ref.betas, 2e-12)):
        assert np.array_equal(new[:6], old[:6])
        assert (np.abs(new[6:] - old[6:]) <= tol * np.abs(old[6:])).all()


def test_forward_json_at_n_max_6_is_unchanged(tmp_path, monkeypatch,
                                              shift_coeffs):
    csv = str(tmp_path / "pair.csv")
    write_coefficients(csv, shift_coeffs)
    outs = [tmp_path / "model.json", tmp_path / "guess.json"]
    for seeds, out in zip((forward._seeds, guess_seeds), outs):
        monkeypatch.setattr(forward, "_seeds", seeds)
        assert main(["forward", "--coeffs", csv, "--n-max", "6",
                     "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_model_seeds_shorten_the_data_sweeps(sweep_calls, monkeypatch):
    # Newton sweeps of the data pair on data/smooth.csv at n_max 30,
    # which is in the self-adjoint class, so only family 1 is searched:
    # 30, 10 and 1 lambdas from the model seeds (41), against 30, 30 and
    # 1 (61) from eigen_guess alone; the model's own search runs on the
    # constant pair, in the power path, in two order-2 sweeps of the 24
    # entries n >= 7
    coeffs = read_coefficients(SMOOTH_CSV)
    counts, model_sweeps = [], []
    for seeds in (forward._seeds, guess_seeds):
        monkeypatch.setattr(forward, "_seeds", seeds)
        sweep_calls.clear()
        compute_spectral_data(coeffs, 30)
        counts.append(sum(L for L, order, constant in sweep_calls
                          if order and not constant))
        model_sweeps.append([c for c in sweep_calls if c[2]])
    assert counts[0] <= 43 < counts[1]
    assert model_sweeps == [[(24, 2, True)] * 2, []]


def test_constant_pair_keeps_its_sweeps(grid512, sweep_calls, monkeypatch):
    # a constant pair is its own model: no model search runs
    coeffs = CoefficientPair(GridFunction.constant(grid512, 0.3 + 0.1j),
                             GridFunction.constant(grid512, 0.2))
    compute_spectral_data(coeffs, 30)
    calls = list(sweep_calls)
    sweep_calls.clear()
    monkeypatch.setattr(forward, "_seeds", guess_seeds)
    compute_spectral_data(coeffs, 30)
    assert calls == sweep_calls and all(c for _, _, c in calls)
    # its Newton takes the order-2 search of every pair, on the power path
    assert all(order == 2 for _, order, _ in calls)


# ---------------------------------------------------------------------------
# Self-adjoint class: family 1 searched, family 2 mirrored

# a pair of the perfbench bank's form, tau1 = 0.3 + sum_j a_j cos 2 pi j x
# with real a_j and sigma0 = i sum_j b_j sin pi j x with real b_j
_BANK_A, _BANK_B = (0.2, -0.1, 0.05), (0.15, -0.1, 0.08)


@pytest.fixture(scope="module")
def selfadjoint_pairs(grid512, coinciding_coeffs):
    # name -> (pair, n_max, pair_tol), every pair exactly in the class
    j = np.arange(1, 4)
    bank = from_callables(
        grid512,
        lambda x: 0.3 + np.dot(_BANK_A, np.cos(2.0 * np.pi * j * x)),
        lambda x: 1j * np.dot(_BANK_B, np.sin(np.pi * j * x)))
    tol = asympt.COINCIDE_TOL
    return {"smooth_csv": (read_coefficients(SMOOTH_CSV), 30, tol),
            "bank": (bank, 30, tol),
            "coinciding": (coinciding_coeffs, 3, 1e-6),
            "constant_0": (CoefficientPair.model(grid512, 0.0), 30, tol),
            "constant_0.3": (CoefficientPair.model(grid512, 0.3), 30, tol)}


@pytest.mark.parametrize("name", ["smooth_csv", "bank", "coinciding",
                                  "constant_0", "constant_0.3"])
def test_mirrored_newton_record_equals_the_two_family_search(
        selfadjoint_pairs, name):
    # Newton's roots and record of family 2 are family 1's mirrored bit
    # for bit, on constant pairs too, whose values are all real: every
    # zero of the record carries the sign +.
    coeffs, n_max, _ = selfadjoint_pairs[name]
    theta = integrate(coeffs.tau1)
    (lam, a), (lam_ref, a_ref) = (roots(coeffs, n_max, theta) for roots in
                                  (forward._roots, both_families_roots))
    for got, ref in zip((lam, *a), (lam_ref, *a_ref)):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["smooth_csv", "bank", "coinciding",
                                  "constant_0", "constant_0.3"])
def test_mirrored_family_gives_the_two_family_spectral_data(
        selfadjoint_pairs, monkeypatch, name):
    coeffs, n_max, pair_tol = selfadjoint_pairs[name]
    data = compute_spectral_data(coeffs, n_max, pair_tol)
    monkeypatch.setattr(forward, "_roots", both_families_roots)
    ref = compute_spectral_data(coeffs, n_max, pair_tol)
    assert data.lambdas.tobytes() == ref.lambdas.tobytes()
    assert data.betas.tobytes() == ref.betas.tobytes()
    assert data.K == ref.K and list(data.gamma) == list(ref.gamma)
    assert (np.array(list(data.gamma.values())).tobytes()
            == np.array(list(ref.gamma.values())).tobytes())
    assert data.K == ([1] if name == "coinciding" else [])


def test_forward_json_of_a_selfadjoint_pair_equals_the_two_family_search(
        tmp_path, monkeypatch):
    # the CLI output bytes, where a signed zero would show as -0; its
    # symmetry report reads 0, since family 2 is family 1 mirrored
    outs = [tmp_path / "mirrored.json", tmp_path / "both.json"]
    for roots, out in zip((forward._roots, both_families_roots), outs):
        monkeypatch.setattr(forward, "_roots", roots)
        assert main(["forward", "--coeffs", SMOOTH_CSV, "--n-max", "30",
                     "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    report = json.loads(outs[0].read_text())["diagnostics"]["symmetry"]
    assert report["lambda_max"] == 0.0 and report["beta_max"] == 0.0


@pytest.mark.parametrize("field", ["tau1", "sigma0"])
def test_a_pair_just_off_the_class_searches_both_families(
        tmp_path, smooth_coeffs, sweep_calls, field):
    # 1e-14 off the class at one node: Newton's first sweep, of Taylor
    # order 2, carries both families, n_max lambdas each, where the exact
    # pair's carries one; the CLI, which admits the class within 1e-12,
    # still reports the symmetry it measures (beta_max 1.1e-17 and
    # 5.3e-16 measured)
    tau1 = smooth_coeffs.tau1.values.copy()
    sigma0 = smooth_coeffs.sigma0.values.copy()
    if field == "tau1":
        tau1[100] += 1e-14j
    else:
        sigma0[100] += 1e-14
    grid = smooth_coeffs.grid
    near = CoefficientPair(GridFunction(grid, tau1), GridFunction(grid, sigma0))
    for coeffs, L in ((smooth_coeffs, 6), (near, 12)):
        sweep_calls.clear()
        compute_spectral_data(coeffs, 6)
        assert sweep_calls[0] == (L, 2, False)
    csv, out = str(tmp_path / "near.csv"), tmp_path / "near.json"
    write_coefficients(csv, near)
    assert main(["forward", "--coeffs", csv, "--n-max", "6",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())["diagnostics"]["symmetry"]
    assert report["pass"] and report["beta_max"] > 0.0



# ---------------------------------------------------------------------------
# Order-2 Newton against the d/dlambda Newton of the helpers

# a general pair of the perfbench bank's form: complex cosine amplitudes
# of tau1, sine amplitudes of sigma0 with a common phase
_GENERAL_A = (0.2 + 0.05j, -0.1 - 0.03j, 0.05 + 0.02j)
_GENERAL_B = tuple(b * np.exp(0.7j) for b in (0.15, -0.1, 0.08))


@pytest.fixture(scope="module")
def general_bank(grid512):
    j = np.arange(1, 4)
    return from_callables(
        grid512,
        lambda x: 0.3 + np.dot(_GENERAL_A, np.cos(2.0 * np.pi * j * x)),
        lambda x: np.dot(_GENERAL_B, np.sin(np.pi * j * x)))


@pytest.mark.parametrize("name", ["smooth_csv", "general_bank", "constant_0",
                                  "constant_0.3", "coinciding"])
def test_order2_newton_agrees_with_the_dlambda_newton(
        selfadjoint_pairs, general_bank, monkeypatch, name):
    # K exactly, beta within 2e-12 relative, lambda within 1e-12 relative
    # plus the distance |Delta/dDelta| from the d/dlambda Newton's root to
    # the root its last evaluation points at: that search stops once
    # |Delta| <= 1e-12 (1 + |dDelta| |lambda|^(2/3)), which on the
    # coinciding pair leaves lambda_{1,1} = 3.3e-7 6.1e-10 short of the
    # root.  gamma_1 there moves with it (3.9e-12 measured against the
    # d/dlambda Newton's gamma_1), so it is checked within 2e-12
    # against a fresh d/dlambda sweep of both families at the new
    # lambda_1, as the weight step forms it.
    coeffs, n_max, pair_tol = dict(
        selfadjoint_pairs,
        general_bank=(general_bank, 30, asympt.COINCIDE_TOL))[name]
    data = compute_spectral_data(coeffs, n_max, pair_tol)
    records = []

    def recording(*args):
        records.append(dlambda_newton_family(*args))
        return records[-1]

    monkeypatch.setattr(forward, "_newton_family", recording)
    ref = compute_spectral_data(coeffs, n_max, pair_tol)
    assert data.K == ref.K
    # the data search is the last one, after the model's
    _, a = records[-1]
    reach = np.abs(a.delta / a.ddelta)
    if reach.size == n_max:             # family 1 searched, 2 mirrored
        reach = np.concatenate([reach, reach])
    reach = reach.reshape(2, n_max).T
    assert (np.abs(data.lambdas - ref.lambdas)
            <= 1e-12 * np.abs(ref.lambdas) + reach).all()
    assert (np.abs(data.betas - ref.betas) <= 2e-12 * np.abs(ref.betas)).all()
    for n in data.K:
        at = data.lam(n, 1)
        fresh = _char_arrays(coeffs, [at, at], [1, 2], with_dlambda=True)
        gamma = _gamma(at, fresh.gamma_numer / fresh.ddelta, data.betas[n - 1])
        assert abs(data.gamma[n] - gamma) <= 2e-12 * abs(gamma)


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.35 + 0.05j])
def test_constant_model_roots_are_rk4_roots(grid512, theta):
    # the model pair's spectrum is the inverse's model: one d/dlambda
    # evaluation at each root, n_max 30, points at a root within
    # 1e-14 |lambda| of it (6e-16 measured)
    model = CoefficientPair.model(grid512, theta)
    lams = compute_spectral_data(model, 30).lambdas.T.ravel()
    a = _char_arrays(model, lams, np.repeat([1, 2], 30), with_dlambda=True)
    assert (np.abs(a.delta / a.ddelta) <= 1e-14 * np.abs(lams)).all()


def test_a_general_pair_takes_two_data_sweeps(general_bank, sweep_calls):
    # both families at n_max 30 from the model seeds: two sweeps of the
    # data pair, of Taylor order 2 (the d/dlambda Newton took four);
    # data/smooth.csv, family 1 alone, takes three
    compute_spectral_data(general_bank, 30)
    data_sweeps = [c for c in sweep_calls if not c[2]]
    assert len(data_sweeps) == 2 and all(c[1] == 2 for c in data_sweeps)
    sweep_calls.clear()
    compute_spectral_data(read_coefficients(SMOOTH_CSV), 30)
    assert len([c for c in sweep_calls if not c[2]]) <= 3


def test_an_entry_far_from_its_root_is_not_accepted_at_once(
        general_coeffs128, sweep_calls, monkeypatch):
    # 1e-2 off lambda_{1,1} (2e-4 relative) the omitted cubic term fails
    # the certificate: the first sweep steps, the second accepts
    theta = integrate(general_coeffs128.tau1)
    root, _ = _newton_family(general_coeffs128, 1, [1],
                             [asympt.eigen_guess(1, 1, theta)], theta)
    sweep_calls.clear()
    lam, _ = _newton_family(general_coeffs128, 1, [1], root + 1e-2, theta)
    assert len(sweep_calls) == 2
    assert abs(lam[0] - root[0]) <= 1e-12 * abs(root[0])
    monkeypatch.setattr(forward, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NoConvergenceError):
        _newton_family(general_coeffs128, 1, [1], root + 1e-2, theta)


def test_an_entry_that_never_certifies_raises_no_convergence(
        general_coeffs128, sweep_calls, monkeypatch):
    # with an infinite safety factor no certificate can hold
    theta = integrate(general_coeffs128.tau1)
    monkeypatch.setattr(forward, "_TAYLOR_SAFETY", np.inf)
    monkeypatch.setattr(forward, "_NEWTON_MAX_ITER", 6)
    with pytest.raises(NoConvergenceError) as ei:
        _newton_family(general_coeffs128, np.array([1, 2]), [2, 2],
                       asympt.eigen_guess([2, 2], [1, 2], theta), theta)
    assert (ei.value.n, ei.value.k, ei.value.iterations) == (2, 1, 6)
    assert sweep_calls == [(2, 2, False)] * 6


def test_an_accepted_root_past_the_resolution_guard_is_refused(
        general_coeffs128, sweep_calls, monkeypatch):
    # Seeded 1e-9 inside lambda_{10,1}, with the guard moved between the
    # seed and the root: the first sweep accepts the root, which no sweep
    # evaluates, and the guard refuses it.
    theta = integrate(general_coeffs128.tau1)
    root, _ = _newton_family(general_coeffs128, 1, [10],
                             [asympt.eigen_guess(10, 1, theta)], theta)
    seed = root * (1.0 - 1e-9)
    rho = abs(root[0] * (1.0 - 5e-10)) ** (1.0 / 3.0)
    monkeypatch.setattr(quasi, "_RESOLUTION_FACTOR",
                        rho / general_coeffs128.grid.M)
    sweep_calls.clear()
    with pytest.raises(ResolutionGuardError):
        _newton_family(general_coeffs128, 1, [10], seed, theta)
    assert sweep_calls == [(1, 2, False)]
