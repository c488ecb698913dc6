import numpy as np
import pytest

from spectral3.asympt import validate_condition1
from spectral3.forward import SpectralData, compute_spectral_data
from spectral3.selfadjoint import (check_suff_conditions, check_symmetry,
                                   complete)


def test_symmetric_data_passes_symmetry_check(smooth_data20):
    rep = check_symmetry(smooth_data20)
    assert rep["pass"]
    clauses = rep["clauses"]
    assert clauses["lambda_mirror"]["max"] < 1e-10
    assert clauses["beta_mirror"]["max"] < 1e-10
    assert clauses["theta_real"]["max"] < 1e-12


def _symmetry_per_entry(data):
    """The lambda and beta deviations of check_symmetry from its formula,
    one n at a time: the reference the table version is held to."""
    lam_devs, beta_devs = [], []
    for n in range(1, data.n_max + 1):
        l1, l2 = data.lam(n, 1), data.lam(n, 2)
        b1, b2 = data.beta(n, 1), data.beta(n, 2)
        lam_devs.append(abs(l1 + np.conj(l2)) / (1.0 + abs(l1)))
        beta_devs.append(abs(b1 + np.conj(b2)) / (1.0 + abs(b1)))
    return lam_devs, beta_devs


@pytest.mark.parametrize("shift", [0.0, 1e-9, 0.01])
def test_check_symmetry_matches_per_entry_formula(sample_data30,
                                                  general_coeffs128, shift):
    for data in (sample_data30, compute_spectral_data(general_coeffs128, 6)):
        d = data.copy()
        d.lambdas[2, 1] += shift
        d.betas[-1, 0] -= 2.0 * shift
        clauses = check_symmetry(d)["clauses"]
        for name, devs in zip(("lambda_mirror", "beta_mirror"),
                              _symmetry_per_entry(d)):
            assert abs(clauses[name]["max"] - max(devs)) <= 1e-13 * max(devs)
            assert clauses[name]["offenders"] == [
                n for n, dev in enumerate(devs, 1) if dev > 1e-8]


def test_broken_symmetry_is_flagged(smooth_data8):
    d = smooth_data8.copy()
    d.lambdas[0, 0] += 0.01
    rep = check_symmetry(d)
    assert not rep["pass"]
    assert rep["clauses"]["lambda_mirror"]["max"] > 1e-8
    assert rep["clauses"]["lambda_mirror"]["offenders"] == [1]


def _broken(data):
    """data with lambda_{2,1} moved onto lambda_{1,1}: a clause of each
    condition report fails."""
    d = data.copy()
    d.lambdas[1, 0] = d.lambdas[0, 0]
    return d


@pytest.mark.parametrize("report", [validate_condition1, check_symmetry,
                                    check_suff_conditions])
@pytest.mark.parametrize("broken", [False, True])
def test_condition_reports_have_one_shape(smooth_data20, report, broken):
    table = report(_broken(smooth_data20) if broken else smooth_data20)
    assert table.keys() == {"clauses", "pass"}
    assert all(type(c["pass"]) is bool for c in table["clauses"].values())
    assert table["pass"] == all(c["pass"] for c in table["clauses"].values())
    assert table["pass"] is not broken


def test_a_moved_beta_is_a_beta_mirror_offender(smooth_data20):
    # beta_{3,2} moved by a relative 1e-6, far above the 1e-8 tolerance
    d = smooth_data20.copy()
    d.betas[2, 1] *= 1.0 + 1e-6
    clauses = check_symmetry(d)["clauses"]
    assert clauses["beta_mirror"]["offenders"] == [3]
    assert 0.9e-6 < clauses["beta_mirror"]["max"] < 1.1e-6
    assert all(clauses[name]["pass"] for name in
               ("lambda_mirror", "gamma_real", "theta_real"))


def _bytes(data):
    """Every field of data as bytes, so equal means bitwise equal."""
    return (data.lambdas.tobytes(), data.betas.tobytes(),
            np.array([data.theta]).tobytes(), data.K,
            np.array([data.gamma[n] for n in data.K], dtype=complex).tobytes())


def test_complete_of_forward_data_is_bitwise(smooth_data20):
    # forward mirrors family 2 of a self-adjoint-class pair, so completing
    # its data changes no bit
    full = complete(smooth_data20)
    assert full.n_max == 20
    assert _bytes(full) == _bytes(smooth_data20)


def _coinciding():
    return SpectralData(theta=0.3, lambdas=[[1e-9 + 5.0j] * 2, [80.0, -80.0]],
                        betas=[[0.0, 0.0], [3.0 + 1.0j, -3.0 + 1.0j]],
                        K=[1], gamma={1: 1.5})


@pytest.mark.parametrize("name", ["smooth", "coinciding"])
def test_complete_reads_family_1_only(smooth_data20, name):
    data = smooth_data20 if name == "smooth" else _coinciding()
    other = data.copy()
    rng = np.random.default_rng(11)
    shape = (data.n_max,)
    other.lambdas[:, 1] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    other.betas[:, 1] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for n in data.K:   # the two columns agree on K
        other.lambdas[n - 1, 1] = other.lambdas[n - 1, 0]
    assert not np.array_equal(other.betas, data.betas)
    assert _bytes(complete(other)) == _bytes(complete(data))


def test_complete_with_coinciding_pair():
    full = complete(_coinciding())
    assert full.lam(1, 1) == 5.0j            # snapped onto the axis
    assert full.lam(1, 2) == 5.0j
    assert full.beta(1, 1) == 0.0 and full.beta(1, 2) == 0.0
    assert full.gamma[1] == 1.5
    assert full.lam(2, 2) == -80.0
    assert full.beta(2, 2) == -np.conj(3.0 + 1.0j)
    assert full.K == [1] and full.gamma == {1: 1.5}


def test_complete_rejects_off_axis_coincidence():
    data = SpectralData(theta=0.3, lambdas=[[2.0 + 5.0j, 2.0 + 5.0j]],
                        betas=[[0.0, 0.0]], K=[1], gamma={1: 1.0})
    with pytest.raises(ValueError, match="imaginary"):
        complete(data)


def test_complete_realness_guards(smooth_data8):
    d = smooth_data8.copy()
    d.theta = d.theta + 0.1j
    with pytest.raises(ValueError, match="theta"):
        complete(d)
    k_data = SpectralData(theta=0.3, lambdas=[[4.0j, 4.0j]],
                          betas=[[0.0, 0.0]], K=[1], gamma={1: 1.0 + 0.5j})
    with pytest.raises(ValueError, match="not real"):
        complete(k_data)


def test_suff_conditions_pass_on_genuine_data(smooth_data20):
    rep = check_suff_conditions(smooth_data20)
    assert rep["pass"], rep["clauses"]
    assert all(c["pass"] for c in rep["clauses"].values())
    assert rep["clauses"]["re_lambda_nonneg"]["offenders"] == []


def _modified(data, lambdas=None, betas=None):
    """data with family 1 replaced where given; family 2 is kept, since
    check_suff_conditions does not read it."""
    lam, beta = data.lambdas.copy(), data.betas.copy()
    if lambdas is not None:
        lam[:, 0] = lambdas
    if betas is not None:
        beta[:, 0] = betas
    return SpectralData(theta=data.theta, lambdas=lam, betas=beta,
                        K=list(data.K), gamma=dict(data.gamma))


def test_suff_conditions_flag_violations(smooth_data8):
    data = smooth_data8

    lam = data.lambdas[:, 0].copy()
    lam[3] = lam[2]
    rep = check_suff_conditions(_modified(data, lambdas=lam))
    clause = rep["clauses"]["distinct_within_family"]
    assert not clause["pass"]
    assert (3, 4, 1) in clause["offenders"]
    assert not rep["pass"]

    lam = data.lambdas[:, 0].copy()
    lam[4] = -np.conj(lam[1])
    rep = check_suff_conditions(_modified(data, lambdas=lam))
    assert (2, 5) in rep["clauses"]["pairing"]["offenders"]
    assert not rep["pass"]

    beta = data.betas[:, 0].copy()
    beta[2] = 0.0
    rep = check_suff_conditions(_modified(data, betas=beta))
    assert rep["clauses"]["beta_product_on_K"]["offenders"] == [3]
    assert not rep["pass"]

    lam = data.lambdas[:, 0].copy()
    lam[0] = -5.0 + 2.0j
    rep = check_suff_conditions(_modified(data, lambdas=lam))
    assert rep["clauses"]["re_lambda_nonneg"]["offenders"] == [1]
    assert not rep["pass"]

    # a zero eigenvalue has no asymptotic branch: reported, not raised
    lam = data.lambdas[:, 0].copy()
    lam[0] = 0.0
    rep = check_suff_conditions(_modified(data, lambdas=lam))
    assert "error" in rep["clauses"]["remainder_decay"]
    assert not rep["pass"]

    bad_gamma = SpectralData(theta=0.3, lambdas=[[4.0j, 4.0j], [80.0, -80.0]],
                             betas=[[0.0, 0.0], [3.0, -3.0]], K=[1],
                             gamma={1: -2.0})
    rep = check_suff_conditions(bad_gamma)
    assert rep["clauses"]["gamma_positive"]["offenders"] == [1]
    assert not rep["pass"]
