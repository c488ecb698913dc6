import numpy as np
import pytest

from spectral3.forward import SpectralData, compute_spectral_data
from spectral3.selfadjoint import (HalfData, check_suff_conditions,
                                   check_symmetry, complete, restrict)


def test_symmetric_data_passes_symmetry_check(smooth_data20):
    rep = check_symmetry(smooth_data20)
    assert rep["pass"]
    assert rep["lambda_max"] < 1e-10
    assert rep["beta_max"] < 1e-10
    assert rep["theta_imag"] < 1e-12


def _symmetry_per_entry(data):
    """(lambda_max, beta_max) of check_symmetry from its formula, one n at
    a time: the reference the table version is held to."""
    lam_dev = beta_dev = 0.0
    for n in range(1, data.n_max + 1):
        l1, l2 = data.lam(n, 1), data.lam(n, 2)
        b1, b2 = data.beta(n, 1), data.beta(n, 2)
        lam_dev = max(lam_dev, abs(l1 + np.conj(l2)) / (1.0 + abs(l1)))
        beta_dev = max(beta_dev, abs(b1 + np.conj(b2)) / (1.0 + abs(b1)))
    return lam_dev, beta_dev


@pytest.mark.parametrize("shift", [0.0, 1e-9, 0.01])
def test_check_symmetry_matches_per_entry_formula(sample_data30,
                                                  general_coeffs128, shift):
    for data in (sample_data30, compute_spectral_data(general_coeffs128, 6)):
        d = data.copy()
        d.lambdas[2, 1] += shift
        d.betas[-1, 0] -= 2.0 * shift
        rep = check_symmetry(d)
        for got, want in zip((rep["lambda_max"], rep["beta_max"]),
                             _symmetry_per_entry(d)):
            assert abs(got - want) <= 1e-13 * want


def test_broken_symmetry_is_flagged(smooth_data8):
    d = smooth_data8.copy()
    d.lambdas[0, 0] += 0.01
    rep = check_symmetry(d)
    assert not rep["pass"]
    assert rep["lambda_max"] > 1e-8


def test_restrict_complete_round_trip(smooth_data8):
    half = restrict(smooth_data8)
    assert half.n_max == 8
    assert half.theta == smooth_data8.theta.real
    full = complete(half)
    assert np.array_equal(full.lambdas, smooth_data8.lambdas)
    assert np.array_equal(full.betas, smooth_data8.betas)


def test_complete_with_coinciding_pair():
    half = HalfData(theta=0.3, lambdas=np.array([1e-9 + 5.0j, 80.0]),
                    betas=np.array([0.0, 3.0 + 1.0j]),
                    K=[1], gammas={1: 1.5})
    full = complete(half)
    assert full.lam(1, 1) == 5.0j            # snapped onto the axis
    assert full.lam(1, 2) == 5.0j
    assert full.beta(1, 1) == 0.0 and full.beta(1, 2) == 0.0
    assert full.gamma[1] == 1.5
    assert full.lam(2, 2) == -80.0
    assert full.beta(2, 2) == -np.conj(3.0 + 1.0j)
    back = restrict(full)
    assert back.K == [1] and back.gammas == {1: 1.5}


def test_complete_rejects_off_axis_coincidence():
    half = HalfData(theta=0.3, lambdas=np.array([2.0 + 5.0j]),
                    betas=np.array([0.0]), K=[1], gammas={1: 1.0})
    with pytest.raises(ValueError, match="imaginary"):
        complete(half)


def test_restrict_realness_guards(smooth_data8):
    d = smooth_data8.copy()
    d.theta = d.theta + 0.1j
    with pytest.raises(ValueError, match="theta"):
        restrict(d)
    k_data = SpectralData(theta=0.3, lambdas=[[4.0j, 4.0j]],
                          betas=[[0.0, 0.0]], K=[1], gamma={1: 1.0 + 0.5j})
    with pytest.raises(ValueError, match="not real"):
        restrict(k_data)


def test_half_data_validation():
    with pytest.raises(ValueError, match="equal length"):
        HalfData(theta=0.0, lambdas=np.ones(3), betas=np.ones(2))
    with pytest.raises(ValueError, match="exactly on K"):
        HalfData(theta=0.0, lambdas=np.ones(2), betas=np.ones(2),
                 K=[1], gammas={})
    # K is checked as SpectralData checks it: no repeats, 1 <= n <= n_max
    with pytest.raises(ValueError, match="more than once"):
        HalfData(theta=0.0, lambdas=np.array([4.0j, 80.0]),
                 betas=np.array([0.0, 3.0]), K=[1, 1], gammas={1: 2.0})
    with pytest.raises(ValueError, match="1..n_max"):
        HalfData(theta=0.0, lambdas=np.array([4.0j, 80.0]),
                 betas=np.array([0.0, 3.0]), K=[5], gammas={5: 2.0})


@pytest.mark.parametrize("n", [1.7, True, "1"])
def test_half_data_refuses_non_integer_K(n):
    # int() would read each of these as 1
    for K, gammas in (([n], {n: 2.0}), ([1], {n: 2.0}), ([n], {1: 2.0})):
        with pytest.raises(ValueError, match="must be integers"):
            HalfData(theta=0.0, lambdas=np.array([4.0j, 80.0]),
                     betas=np.array([0.0, 3.0]), K=K, gammas=gammas)


def test_half_data_accepts_numpy_integer_K():
    half = HalfData(theta=0.0, lambdas=np.array([4.0j, 80.0]),
                    betas=np.array([0.0, 3.0]), K=[np.int64(1)],
                    gammas={np.int64(1): 2.0})
    assert half.K == [1] and type(half.K[0]) is int
    assert half.gammas == {1: 2.0} and type(next(iter(half.gammas))) is int


def test_half_data_copies_the_callers_arrays():
    lam = np.array([4.0j, 80.0])
    betas = np.array([0.0, 3.0], dtype=complex)
    half = HalfData(theta=0.0, lambdas=lam, betas=betas, K=[1],
                    gammas={1: 2.0})
    assert half.lambdas is not lam and half.betas is not betas
    half.lambdas[1] = 81.0
    assert lam[1] == 80.0


def test_suff_conditions_pass_on_genuine_data(smooth_data20):
    half = restrict(smooth_data20)
    rep = check_suff_conditions(half)
    assert rep["pass"], rep["clauses"]
    assert all(c["pass"] for c in rep["clauses"].values())
    assert rep["clauses"]["re_lambda_nonneg"]["offenders"] == []


def _modified(half, **kw):
    base = dict(theta=half.theta, lambdas=half.lambdas.copy(),
                betas=half.betas.copy(), K=list(half.K),
                gammas=dict(half.gammas))
    base.update(kw)
    return HalfData(**base)


def test_suff_conditions_flag_violations(smooth_data8):
    half = restrict(smooth_data8)

    lam = half.lambdas.copy()
    lam[3] = lam[2]
    rep = check_suff_conditions(_modified(half, lambdas=lam))
    clause = rep["clauses"]["distinct_within_family"]
    assert not clause["pass"]
    assert (3, 4, 1) in clause["offenders"]
    assert not rep["pass"]

    lam = half.lambdas.copy()
    lam[4] = -np.conj(lam[1])
    rep = check_suff_conditions(_modified(half, lambdas=lam))
    assert (2, 5) in rep["clauses"]["pairing"]["offenders"]
    assert not rep["pass"]

    beta = half.betas.copy()
    beta[2] = 0.0
    rep = check_suff_conditions(_modified(half, betas=beta))
    assert rep["clauses"]["beta_product_on_K"]["offenders"] == [3]
    assert not rep["pass"]

    lam = half.lambdas.copy()
    lam[0] = -5.0 + 2.0j
    rep = check_suff_conditions(_modified(half, lambdas=lam))
    assert rep["clauses"]["re_lambda_nonneg"]["offenders"] == [1]
    assert not rep["pass"]

    # a zero eigenvalue has no asymptotic branch: reported, not raised
    lam = half.lambdas.copy()
    lam[0] = 0.0
    rep = check_suff_conditions(_modified(half, lambdas=lam))
    assert "error" in rep["clauses"]["remainder_decay"]
    assert not rep["pass"]

    bad_gamma = HalfData(theta=0.3, lambdas=np.array([4.0j, 80.0]),
                         betas=np.array([0.0, 3.0]), K=[1],
                         gammas={1: -2.0})
    rep = check_suff_conditions(bad_gamma)
    assert rep["clauses"]["gamma_positive"]["offenders"] == [1]
    assert not rep["pass"]

