import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral3.asympt import (_BRANCH_LIMIT, COINCIDE_TOL, beta_guess,
                              eigen_guess, extract_remainders, invert_index,
                              rho_guess, root_rates, validate_condition1)
from spectral3.errors import AdmissibilityViolationError, BranchAmbiguityError
from spectral3.forward import SpectralData, compute_spectral_data, detect_K
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
    n = np.arange(1, n_max + 1)[:, None]
    rho = (2.0 * np.pi / np.sqrt(3.0)) * (
        n + 1.0 / 6.0 - theta / (2.0 * np.pi**2 * n) + kappa / n)
    lam = np.array([1.0, -1.0]) * rho**3
    return SpectralData(theta=theta, lambdas=lam,
                        betas=3.0 * lam * (1.0 + kappa1 / n))


def _remainders_per_entry(data):
    """(rho, kappa, kappa1) of extract_remainders from its formulas, one
    (n, k) at a time in Python complex arithmetic: the reference the
    table version is held to, BranchAmbiguityError included."""
    theta = data.theta
    c = 2.0 * np.pi / np.sqrt(3.0)
    out = np.zeros((3, data.n_max, 2), dtype=complex)
    for n in range(1, data.n_max + 1):
        for k in (1, 2):
            lam, beta = data.lam(n, k), data.beta(n, k)
            target = (-1.0) ** (k + 1) * lam
            seed = c * (n + 1.0 / 6.0 - theta / (2.0 * np.pi**2 * n))
            if target == 0:
                raise BranchAmbiguityError(
                    "zero has no cube-root direction to match %s" % (seed,))
            roots = complex(target) ** (1.0 / 3.0) * np.exp(
                2j * np.pi * np.arange(3) / 3.0)
            dev = np.abs(np.angle(roots / seed))
            j = int(np.argmin(dev))
            if dev[j] > _BRANCH_LIMIT:
                raise BranchAmbiguityError(
                    "cube root %s deviates %.3f rad from the asymptotic "
                    "direction %s" % (roots[j], dev[j], seed))
            r = complex(roots[j])
            out[:, n - 1, k - 1] = (
                r,
                n * (np.sqrt(3.0) / (2.0 * np.pi) * r - n - 1.0 / 6.0
                     + theta / (2.0 * np.pi**2 * n)),
                n * (beta / (3.0 * lam) - 1.0))
    return out


@pytest.mark.parametrize("which", ["sample30", "smooth20", "general",
                                   "synthetic"])
def test_extract_remainders_matches_per_entry_formulas(
        which, sample_data30, smooth_data20, general_coeffs128):
    # kappa1 = n (beta / (3 lambda) - 1) cancels to 1e-5 and below, so
    # one ulp of the quotient moves it by 1e-11 relative: the table
    # version must divide as Python does
    data = {"sample30": lambda: sample_data30,
            "smooth20": lambda: smooth_data20,
            "general": lambda: compute_spectral_data(general_coeffs128, 10),
            "synthetic": lambda: _synthetic_data(0.4 - 0.3j, 12, 0.05 - 0.02j,
                                                 -0.08j)}[which]()
    frame = extract_remainders(data)
    for got, want in zip((frame.rho, frame.kappa, frame.kappa1),
                         _remainders_per_entry(data)):
        assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()


def _corrupt(data, *entries):
    out = data.copy()
    for n, k, value in entries:
        out.lambdas[n - 1, k - 1] = value
    return out


@pytest.mark.parametrize("entries", [
    pytest.param([(4, 1, "flip")], id="deviating root"),
    pytest.param([(5, 1, "flip"), (2, 2, 0.0)], id="zero first"),
    pytest.param([(3, 2, 0.0), (3, 1, "flip")], id="k=1 before k=2"),
    pytest.param([(6, 2, "flip"), (6, 1, 1j)], id="both columns of n"),
])
def test_branch_ambiguity_names_the_first_entry(sample_data30, entries):
    data = sample_data30.truncate(8)
    data = _corrupt(data, *[(n, k, -data.lam(n, k) if v == "flip" else v)
                            for n, k, v in entries])
    with pytest.raises(BranchAmbiguityError) as want:
        _remainders_per_entry(data)
    with pytest.raises(BranchAmbiguityError) as got:
        extract_remainders(data)
    assert str(got.value) == str(want.value)
    decay = validate_condition1(data)["clauses"]["remainder_decay"]
    assert decay == {"pass": False, "error": str(want.value)}


def test_guesses_and_index_inversion_over_index_arrays():
    theta = 0.7 - 0.2j
    n = np.arange(1, 31)[:, None]
    k = np.array([1, 2])
    lam = eigen_guess(n, k, theta)
    assert lam.shape == (30, 2)
    # entry by entry in Python complex arithmetic, bit for bit
    c = 2.0 * np.pi / np.sqrt(3.0)
    want = np.array([[(-1.0) ** (kk + 1)
                      * (c * (nn + 1.0 / 6.0 - theta / (2.0 * np.pi**2 * nn)))
                      ** 3 for kk in (1, 2)] for nn in range(1, 31)])
    assert lam.tobytes() == want.tobytes()
    assert np.array_equal(beta_guess(n, k, theta), 3.0 * lam)
    assert np.array_equal(invert_index(lam, k, theta),
                          np.broadcast_to(n, (30, 2)))
    with pytest.raises(ValueError, match="k in"):
        rho_guess(n, np.array([1, 3]))
    with pytest.raises(ValueError, match="n >= 1"):
        rho_guess(np.arange(0, 3), 1)


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
    data.lambdas[3, 0] = data.lambdas[2, 0]
    report = validate_condition1(data)
    assert not report["pass"]
    assert (3, 4, 1) in report["clauses"]["distinct_within_family"]["offenders"]


def test_validate_condition1_flags_cross_pairing():
    data = _synthetic_data(0.0, 6, 0.02, 0.01)
    data.lambdas[1, 1] = data.lambdas[4, 0]   # lambda_{5,1} == lambda_{2,2}
    report = validate_condition1(data)
    assert not report["pass"]
    assert (5, 2) in report["clauses"]["pairing"]["offenders"]


def test_validate_condition1_flags_beta_zero_off_K():
    data = _synthetic_data(0.0, 6, 0.02, 0.01)
    data.betas[2, 0] = 0.0
    report = validate_condition1(data)
    assert 3 in report["clauses"]["beta_product_on_K"]["offenders"]


def test_validate_condition1_flags_zero_gamma():
    data = _synthetic_data(0.0, 6, 0.02, 0.01)
    data.lambdas[0, 1] = data.lambdas[0, 0]
    data.betas[0, 0] = 0.0
    paired = SpectralData(theta=data.theta, lambdas=data.lambdas,
                          betas=data.betas, K=[1], gamma={1: 0.0})
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

    a = 77.0 + 5.0j
    K, _ = detect_K([[a, -500.0], [480.0, near(a)]])
    assert (K == [1]) is flagged

    data = _synthetic_data(0.0, 6, 0.02, 0.01)
    data.lambdas[1, 1] = near(data.lambdas[4, 0])
    offenders = validate_condition1(data)["clauses"]["pairing"]["offenders"]
    assert ((5, 2) in offenders) is flagged

    model_lam = build_model(smooth_data8, grid512, 4).model_data.lam(1, 1)
    collided = smooth_data8.copy()
    collided.lambdas[0, 0] = near(model_lam)
    if flagged:
        with pytest.raises(AdmissibilityViolationError) as ei:
            build_model(collided, grid512, 4)
        assert ei.value.condition == 4
    else:
        build_model(collided, grid512, 4)
