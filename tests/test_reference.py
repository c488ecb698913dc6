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


def _exact(where, got, ref):
    """The item of a value that must equal its pin: deviation 0 or inf,
    bound 0."""
    return where, (0.0 if got == ref else np.inf), 0.0


def number_items(got, ref, tol, path=()):
    """The items of got against ref, of the same structure: every leaf
    that is not a number must be equal, every number within tol(path)
    of ref's (an integer differs by at least 1, which no bound here
    allows)."""
    where = "/".join(map(str, path))
    if isinstance(ref, dict):
        if not (isinstance(got, dict) and got.keys() == ref.keys()):
            yield _exact(where + " keys", None, ref.keys())
            return
        for key in ref:
            yield from number_items(got[key], ref[key], tol, path + (key,))
    elif isinstance(ref, list):
        if not (isinstance(got, list) and len(got) == len(ref)):
            yield _exact(where + " length", None, len(ref))
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            yield from number_items(g, r, tol, path + (i,))
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if isinstance(got, (int, float)) and not isinstance(got, bool):
            yield where, abs(got - ref), tol(path)
        else:
            yield _exact(where, got, ref)
    else:
        yield _exact(where, got, ref)


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


def forward_items(name, got_dir, ref_dir):
    got, ref = _json(got_dir, name), _json(ref_dir, name)
    n_max = ref["n_max"]

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

    yield from number_items(got, ref, tol)


def rec_items(name, got_dir, ref_dir):
    got = read_coefficients(os.path.join(got_dir, name))
    ref = read_coefficients(os.path.join(ref_dir, name))
    yield _exact("nodes", np.array_equal(got.grid.nodes, ref.grid.nodes),
                 True)
    for field in ("tau1", "sigma0"):
        g, r = getattr(got, field).values, getattr(ref, field).values
        yield (field, np.abs(g - r).max(),
               REL_REC * np.abs(r).max())


def diag_items(name, got_dir, ref_dir):
    got, ref = _json(got_dir, name), _json(ref_dir, name)
    N = len(ref["xi"])
    s, norm = _data_scales(_json(ref_dir, forward_name(24)), N)
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

    yield from number_items(got, ref, tol)


def _rows(directory, name):
    with open(os.path.join(directory, name), newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [dict(zip(header, row)) for row in rows]


def stability_items(name, got_dir, ref_dir):
    (header, got), (ref_header, ref) = (_rows(got_dir, name),
                                        _rows(ref_dir, name))
    yield _exact("header", header, ref_header)
    yield _exact("rows", len(got), len(ref))
    _, norm = _data_scales(_json(ref_dir, forward_name(8)), 8)
    for i, (g, r) in enumerate(zip(got, ref)):
        for key in ("delta", "status"):
            yield _exact("%d/%s" % (i, key), g[key], r[key])
        d = float(r["d"])
        bounds = {"d": REL_FORWARD * norm,
                  "tau1_l2": ERROR_FIGURE, "sigma0_w2m1": ERROR_FIGURE,
                  "tau1_ratio": ERROR_FIGURE / d if d else 0.0,
                  "sigma0_ratio": ERROR_FIGURE / d if d else 0.0}
        for key, bound in bounds.items():
            where = "%d/%s" % (i, key)
            if r[key] == "":    # no ratio on the unperturbed row
                yield _exact(where, g[key], "")
            else:
                yield where, abs(float(g[key]) - float(r[key])), bound


def roundtrip_items(name, got_dir, ref_dir):
    (header, got), (ref_header, ref) = (_rows(got_dir, name),
                                        _rows(ref_dir, name))
    yield _exact("header", header, ref_header)
    yield _exact("rows", len(got), len(ref))
    for i, (g, r) in enumerate(zip(got, ref)):
        yield _exact("%d/N" % i, g["N"], r["N"])
        for key in header[1:]:
            yield ("%d/%s" % (i, key), abs(float(g[key]) - float(r[key])),
                   ERROR_FIGURE)


def verify_items(name, got_dir, ref_dir):
    yield from number_items(_json(got_dir, name), _json(ref_dir, name),
                            lambda path: ERROR_FIGURE)


def items(name, got_dir, ref_dir):
    """(where, deviation, bound) of every quantity compared in the pinned
    file name, rerun into got_dir, against its pin in ref_dir.  A number
    gives |rerun - pin| and its tolerance; a value that must match
    exactly (a string, K, a key set, a row count) gives 0 or inf with
    bound 0.  The file passes when every deviation is within its
    bound."""
    for prefix, compare in (("forward_", forward_items), ("rec_", rec_items),
                            ("diag_", diag_items),
                            ("stability_", stability_items),
                            ("roundtrip_", roundtrip_items),
                            ("verify_", verify_items)):
        if name.startswith(prefix):
            return compare(name, got_dir, ref_dir)
    raise ValueError("no comparison for %s" % name)


def worst(name, got_dir, ref_dir) -> tuple:
    """The largest deviation of the file name as a fraction of its bound,
    with where it sits: 0 for a file that equals its pin, inf where a
    value that must match exactly differs."""
    def fraction(dev, bound):
        return dev / bound if bound > 0 else (0.0 if dev == 0 else np.inf)

    return max(((fraction(dev, bound), where)
                for where, dev, bound in items(name, got_dir, ref_dir)),
               default=(0.0, ""), key=lambda t: t[0])


def assert_within(name, directory):
    for where, dev, bound in items(name, directory, REFERENCE):
        assert dev <= bound, (name, where, dev, bound)


@pytest.mark.parametrize("n_max", FORWARD_N_MAX)
def test_forward_json(fresh, n_max):
    assert_within(forward_name(n_max), fresh)


@pytest.mark.parametrize("N", INVERSE_N)
def test_inverse_rec_csv(fresh, N):
    assert_within("rec_N%d.csv" % N, fresh)


@pytest.mark.parametrize("N", INVERSE_N)
def test_inverse_diag(fresh, N):
    assert_within("diag_N%d.json" % N, fresh)


def test_stability_csv(fresh):
    assert_within("stability_n8.csv", fresh)


def test_roundtrip_csv(fresh):
    assert_within("roundtrip_4_8.csv", fresh)


@pytest.mark.parametrize("mode", ["spectral", "weyl"])
def test_verify_report(fresh, mode):
    assert_within("verify_%s_N%d.json" % (mode, VERIFY_N), fresh)


def test_reference_set_is_complete(fresh):
    # every pinned file is compared above, and every command wrote one
    assert sorted(os.listdir(fresh)) == sorted(os.listdir(REFERENCE))
    assert len(os.listdir(REFERENCE)) == (len(FORWARD_N_MAX)
                                          + 2 * len(INVERSE_N) + 4)
