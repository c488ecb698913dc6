import json

import numpy as np
import pytest

from spectral3.forward import SpectralData
from spectral3.selfadjoint import (HalfData, check_suff_conditions,
                                   check_symmetry, complete, load_half_data,
                                   restrict, save_half_data)


def test_symmetric_data_passes_symmetry_check(smooth_data20):
    rep = check_symmetry(smooth_data20)
    assert rep["pass"]
    assert rep["lambda_max"] < 1e-10
    assert rep["beta_max"] < 1e-10
    assert rep["theta_imag"] < 1e-12


def test_broken_symmetry_is_flagged(smooth_data8):
    d = smooth_data8.copy()
    d.lam1[0] += 0.01
    rep = check_symmetry(d)
    assert not rep["pass"]
    assert rep["lambda_max"] > 1e-8


def test_restrict_complete_round_trip(smooth_data8):
    half = restrict(smooth_data8)
    assert half.n_max == 8
    assert half.theta == smooth_data8.theta.real
    full = complete(half)
    assert np.array_equal(full.lam1, smooth_data8.lam1)
    assert np.array_equal(full.lam2, smooth_data8.lam2)
    assert np.array_equal(full.beta1, smooth_data8.beta1)
    assert np.array_equal(full.beta2, smooth_data8.beta2)


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
    k_data = SpectralData(theta=0.3, n_max=1,
                          lam1=np.array([4.0j]), lam2=np.array([4.0j]),
                          beta1=np.array([0.0]), beta2=np.array([0.0]),
                          K=[1], gamma={1: 1.0 + 0.5j})
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


def test_half_data_file_round_trip(tmp_path, smooth_data8):
    half = restrict(smooth_data8)
    path = tmp_path / "half.json"
    save_half_data(path, half)
    back = load_half_data(path)
    assert back.theta == half.theta
    assert np.array_equal(back.lambdas, half.lambdas)
    assert np.array_equal(back.betas, half.betas)
    assert back.K == half.K and back.gammas == half.gammas

    obj = json.loads(path.read_text())
    obj["entries"][3]["n"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="cover"):
        load_half_data(bad)


@pytest.mark.parametrize("field", ["theta", "gamma", "lambda", "beta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_half_data_file_refuses_nonfinite_numbers(tmp_path, field, value):
    # theta and gamma are real scalars, lambda and beta [re, im] pairs
    half = HalfData(theta=0.3, lambdas=np.array([1e-9 + 5.0j, 80.0]),
                    betas=np.array([0.0, 3.0 + 1.0j]),
                    K=[1], gammas={1: 1.5})
    path = tmp_path / "half.json"
    save_half_data(path, half)
    obj = json.loads(path.read_text())
    if field == "theta":
        obj["theta"] = value
    elif field == "gamma":
        obj["K"][0]["gamma"] = value
    else:
        obj["entries"][1][field][0] = value
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="non-finite number"):
        load_half_data(path)
