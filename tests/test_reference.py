"""The CLI outputs of tests/reference/, rerun and compared number by
number.

Each command of reference_outputs.commands runs again, in process, on
the committed forward files, so every stage is compared on the inputs
it was pinned with.  Bytes are not compared: BLAS kernels differ by CPU.
Every integer, flag, string, K, rcond_node, status and breach identity
must match exactly, and the files must have the same keys, rows and
columns.  The float tolerances were fixed before the test was written,
from the dtype and the moves recorded so far:

- forward quantities, 1e-13 of the size of the entries they are made
  from: lambda and beta per entry (complex modulus), theta, the symmetry
  defects (scale 1), kappa and kappa1 of row n at 1e-12 n^2 (kappa is
  the remainder of n sqrt(3) rho / 2 pi, about n^2), tail_max at
  1e-12 n_max^2 and the fitted decay_slope at 1e-6.  In --diag, xi_n at
  1e-13 s_n with s_n = sum_k |lambda_nk| / n^2 + |beta_nk| / n^3 of the
  data, d at 1e-13 of the data's own weighted norm (also in the
  stability CSV), and xi_weighted at the bound these give;
- the reconstructed tau1N and sigma0N (rec.csv): each as a complex
  array, within 1e-8 of its own max modulus;
- the node solve: rcond_min and cond_max to a relative 1e-8,
  residual_max within 1e-12 (it is a relative residual, scale 1);
- error figures of a reconstruction, absolutely, at 1e-10: the relative
  spectral gaps of roundtrip and verify (already divided by 1 + |ref|),
  the distances of roundtrip and stability (coefficient units; max
  |tau1| of the bundled pair is 1.3), the verify weyl checks; the
  stability ratios, distance / d, at 1e-10 / d.
"""

import csv
import json
import os

import numpy as np
import pytest

from spectral3.grid import read_coefficients

from reference_outputs import (FORWARD_N_MAX, INVERSE_N, REFERENCE, VERIFY_N,
                               forward_name, run_all)

REL_FORWARD = 1e-13
REL_REC = 1e-8
REL_RCOND = 1e-8
RESIDUAL = 1e-12
ERROR_FIGURE = 1e-10


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("outputs")
    run_all(str(out), REFERENCE)
    return str(out)


def _json(directory, name):
    with open(os.path.join(directory, name)) as fh:
        return json.load(fh)


def assert_numbers(got, ref, tol, path=()):
    """got has the structure of ref, with every leaf that is not a
    number equal and every number within tol(path) of ref's
    (an integer differs by at least 1, which no bound here allows)."""
    where = "/".join(map(str, path))
    if isinstance(ref, dict):
        assert isinstance(got, dict) and got.keys() == ref.keys(), where
        for key in ref:
            assert_numbers(got[key], ref[key], tol, path + (key,))
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), where
        for i, (g, r) in enumerate(zip(got, ref)):
            assert_numbers(g, r, tol, path + (i,))
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), \
            where
        assert abs(got - ref) <= tol(path), (where, got, ref)
    else:
        assert got == ref, (where, got, ref)


def _modulus(pair):
    return abs(complex(*pair))


def _data_scales(data: dict, N: int):
    """s_n (n <= N) and the weighted norm sqrt(sum (|lambda| / n +
    |beta| / n^2)^2) of the forward JSON data: the sizes that xi_n and d
    are made from."""
    lam = np.zeros((N, 2))
    beta = np.zeros((N, 2))
    for e in data["entries"]:
        if e["n"] <= N:
            lam[e["n"] - 1, e["k"] - 1] = _modulus(e["lambda"])
            beta[e["n"] - 1, e["k"] - 1] = _modulus(e["beta"])
    n = np.arange(1, N + 1)[:, None]
    s = (lam / n ** 2 + beta / n ** 3).sum(axis=1)
    return s, float(np.sqrt(np.sum((lam / n + beta / n ** 2) ** 2)))


@pytest.mark.parametrize("n_max", FORWARD_N_MAX)
def test_forward_json(fresh, n_max):
    got, ref = _json(fresh, forward_name(n_max)), _json(REFERENCE,
                                                        forward_name(n_max))

    def tol(path):
        if path[0] == "entries" and path[2] in ("lambda", "beta"):
            return REL_FORWARD * _modulus(ref["entries"][path[1]][path[2]])
        if path[0] == "theta":
            return REL_FORWARD * _modulus(ref["theta"])
        key = path[-1]
        if path[1:3] in (("asymptotics", "kappa_abs"),
                         ("asymptotics", "kappa1_abs")):
            return 1e-12 * (path[3] + 1) ** 2
        if key == "tail_max":
            return 1e-12 * n_max ** 2
        if key == "decay_slope":
            return 1e-6
        if path[1:2] == ("symmetry",):
            return REL_FORWARD
        return 0.0

    assert_numbers(got, ref, tol)


@pytest.mark.parametrize("N", INVERSE_N)
def test_inverse_rec_csv(fresh, N):
    name = "rec_N%d.csv" % N
    got = read_coefficients(os.path.join(fresh, name))
    ref = read_coefficients(os.path.join(REFERENCE, name))
    assert np.array_equal(got.grid.nodes, ref.grid.nodes)
    for g, r in ((got.tau1, ref.tau1), (got.sigma0, ref.sigma0)):
        scale = np.abs(r.values).max()
        assert np.abs(g.values - r.values).max() <= REL_REC * scale


@pytest.mark.parametrize("N", INVERSE_N)
def test_inverse_diag(fresh, N):
    name = "diag_N%d.json" % N
    got, ref = _json(fresh, name), _json(REFERENCE, name)
    s, norm = _data_scales(_json(REFERENCE, forward_name(24)), N)
    xi = np.array(ref["xi"])
    n = np.arange(1, N + 1)
    bounds = {
        "xi": REL_FORWARD * s,
        "d": REL_FORWARD * norm,
        "xi_weighted": float(np.sum(n ** 2 * REL_FORWARD * s
                                    * (2.0 * xi + REL_FORWARD * s))),
        "rcond_min": REL_RCOND * ref["rcond_min"],
        "cond_max": REL_RCOND * ref["cond_max"],
        "residual_max": RESIDUAL,
        "rcond_node": 0.0,
    }

    def tol(path):
        bound = bounds[path[0]]
        return bound[path[1]] if path[0] == "xi" else bound

    assert_numbers(got, ref, tol)


def _rows(directory, name):
    with open(os.path.join(directory, name), newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [dict(zip(header, row)) for row in rows]


def test_stability_csv(fresh):
    name = "stability_n8.csv"
    (header, got), (ref_header, ref) = _rows(fresh, name), _rows(REFERENCE,
                                                                 name)
    assert header == ref_header and len(got) == len(ref)
    _, norm = _data_scales(_json(REFERENCE, forward_name(8)), 8)
    for g, r in zip(got, ref):
        for key in ("delta", "status"):
            assert g[key] == r[key]
        d = float(r["d"])
        bounds = {"d": REL_FORWARD * norm,
                  "tau1_l2": ERROR_FIGURE, "sigma0_w2m1": ERROR_FIGURE,
                  "tau1_ratio": ERROR_FIGURE / d if d else 0.0,
                  "sigma0_ratio": ERROR_FIGURE / d if d else 0.0}
        for key, bound in bounds.items():
            if r[key] == "":    # no ratio on the unperturbed row
                assert g[key] == ""
            else:
                assert abs(float(g[key]) - float(r[key])) <= bound, (key, r)


def test_roundtrip_csv(fresh):
    name = "roundtrip_4_8.csv"
    (header, got), (ref_header, ref) = _rows(fresh, name), _rows(REFERENCE,
                                                                 name)
    assert header == ref_header and len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g["N"] == r["N"]
        for key in header[1:]:
            assert abs(float(g[key]) - float(r[key])) <= ERROR_FIGURE, \
                (key, r)


@pytest.mark.parametrize("mode", ["spectral", "weyl"])
def test_verify_report(fresh, mode):
    name = "verify_%s_N%d.json" % (mode, VERIFY_N)
    assert_numbers(_json(fresh, name), _json(REFERENCE, name),
                   lambda path: ERROR_FIGURE)


def test_reference_set_is_complete(fresh):
    # every pinned file is compared above, and every command wrote one
    assert sorted(os.listdir(fresh)) == sorted(os.listdir(REFERENCE))
    assert len(os.listdir(REFERENCE)) == (len(FORWARD_N_MAX)
                                          + 2 * len(INVERSE_N) + 4)
