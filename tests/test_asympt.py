import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral3.asympt import (COINCIDE_TOL, beta_guess, eigen_guess,
                              extract_remainders, invert_index, rho_guess,
                              root_rates, validate_condition1)
from spectral3.errors import AdmissibilityViolationError
from spectral3.forward import SpectralData, detect_K
from spectral3.model import build_model


def test_eigen_guess_leading_term():
    # ((2 pi / sqrt 3)(n + 1/6))^3 at theta = 0
    want = (2.0 * np.pi / np.sqrt(3.0) * (1.0 + 1.0 / 6.0)) ** 3
    assert abs(eigen_guess(1, 1, 0.0) - want) < 1e-9
    assert abs(eigen_guess(1, 2, 0.0) + want) < 1e-9  # sign flip for k = 2


def test_beta_guess_tracks_3lambda():
    for n in (5, 20, 80):
        r = beta_guess(n, 1, 0.3) / (3.0 * eigen_guess(n, 1, 0.3))
        assert abs(r - 1.0) < 2.0 / n


@settings(max_examples=40)
@given(st.integers(1, 40), st.sampled_from([1, 2]),
       st.floats(-2, 2), st.floats(-2, 2))
def test_invert_index_recovers_n(n, k, tre, tim):
    theta = complex(tre, tim)
    lam = eigen_guess(n, k, theta)
    assert invert_index(lam, k, theta) == n


def _synthetic_data(theta, n_max, kappa, kappa1):
    lam = {1: [], 2: []}
    beta = {1: [], 2: []}
    for n in range(1, n_max + 1):
        for k in (1, 2):
            rho = (2.0 * np.pi / np.sqrt(3.0)) * (
                n + 1.0 / 6.0 - theta / (2.0 * np.pi**2 * n) + kappa / n)
            lv = (-1.0) ** (k + 1) * rho**3
            lam[k].append(lv)
            beta[k].append(3.0 * lv * (1.0 + kappa1 / n))
    return SpectralData(theta=theta, n_max=n_max,
                        lam1=np.array(lam[1]), lam2=np.array(lam[2]),
                        beta1=np.array(beta[1]), beta2=np.array(beta[2]),
                        K=[], gamma={})


def test_root_rates_over_arrays():
    z = np.array([[8.0, -27.0, 0.0], [3.0 + 4.0j, -1e6 - 2.0j, 1j]])
    got = root_rates(z)
    assert got.shape == (2, 3, 3)
    for t, row in zip(z.ravel(), got.reshape(-1, 3)):
        roots = complex(t) ** (1.0 / 3.0) * np.exp(
            2j * np.pi * np.arange(3) / 3.0)
        assert np.array_equal(row, np.sort(roots.real))
        assert np.array_equal(root_rates(t), row)
    assert root_rates(-27.0).shape == (3,)
    assert np.allclose(root_rates(8.0), [-1.0, -1.0, 2.0])
    assert root_rates(0.0).tolist() == [0.0, 0.0, 0.0]


def test_extract_remainders_inverts_formulas():
    # data built from the formulas with remainders q/n must return kappa=q
    data = _synthetic_data(0.4 + 0.1j, 12, 0.05 - 0.02j, -0.08j)
    frame = extract_remainders(data)
    assert np.abs(frame.kappa - (0.05 - 0.02j)).max() < 1e-9
    assert np.abs(frame.kappa1 - (-0.08j)).max() < 1e-9
    assert frame.tail_max < 0.5


def test_validate_condition1_passes_synthetic():
    data = _synthetic_data(0.0, 10, 0.02, 0.01)
    report = validate_condition1(data)
    assert report["pass"], report


def test_validate_condition1_flags_duplicates():
    data = _synthetic_data(0.0, 6, 0.02, 0.01)
    data.lam1[3] = data.lam1[2]
    report = validate_condition1(data)
    assert not report["pass"]
    assert (3, 4, 1) in report["clauses"]["distinct_within_family"]["offenders"]


def test_validate_condition1_flags_cross_pairing():
    data = _synthetic_data(0.0, 6, 0.02, 0.01)
    data.lam2[1] = data.lam1[4]   # lambda_{5,1} == lambda_{2,2}, not paired
    report = validate_condition1(data)
    assert not report["pass"]
    assert (5, 2) in report["clauses"]["pairing"]["offenders"]


def test_validate_condition1_flags_beta_zero_off_K():
    data = _synthetic_data(0.0, 6, 0.02, 0.01)
    data.beta1[2] = 0.0
    report = validate_condition1(data)
    assert 3 in report["clauses"]["beta_product_on_K"]["offenders"]


def test_validate_condition1_flags_zero_gamma():
    data = _synthetic_data(0.0, 6, 0.02, 0.01)
    data.lam2[0] = data.lam1[0]
    data.beta1[0] = 0.0
    paired = SpectralData(theta=data.theta, n_max=6,
                          lam1=data.lam1, lam2=data.lam2,
                          beta1=data.beta1, beta2=data.beta2,
                          K=[1], gamma={1: 0.0})
    report = validate_condition1(paired)
    assert report["clauses"]["gamma_nonzero"]["offenders"] == [1]


def test_remainder_decay_clause_on_real_data(smooth_data20):
    report = validate_condition1(smooth_data20)
    assert report["clauses"]["remainder_decay"]["pass"]
    assert report["pass"]


@pytest.mark.parametrize("scale, flagged", [(0.5, True), (2.0, False)])
def test_one_coincidence_tolerance(scale, flagged, smooth_data8, grid512):
    # a pair scale * COINCIDE_TOL * (1 + |a|) apart: the family pairing,
    # condition 1's pairing clause and the model's condition 4 agree
    def near(a):
        return a + scale * COINCIDE_TOL * (1.0 + abs(a)) * np.exp(0.3j)

    lam1 = np.array([77.0 + 5.0j, 480.0])
    K, _ = detect_K(lam1, np.array([-500.0, near(lam1[0])]))
    assert (K == [1]) is flagged

    data = _synthetic_data(0.0, 6, 0.02, 0.01)
    data.lam2[1] = near(data.lam1[4])
    offenders = validate_condition1(data)["clauses"]["pairing"]["offenders"]
    assert ((5, 2) in offenders) is flagged

    model_lam = build_model(smooth_data8, grid512, 4).model_data.lam(1, 1)
    collided = smooth_data8.copy()
    collided.lam1[0] = near(model_lam)
    if flagged:
        with pytest.raises(AdmissibilityViolationError) as ei:
            build_model(collided, grid512, 4)
        assert ei.value.condition == 4
    else:
        build_model(collided, grid512, 4)
