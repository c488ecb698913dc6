"""Benchmark inputs: seeded coefficient pairs, coefficient CSV files, the
M = 2048 forward reference, and distances computed independently of the
program under test.

Every pair has the form

    tau1   = 0.3 + sum_{j<=3} a_j cos(2 pi j x)
    sigma0 =       sum_{j<=3} b_j sin(pi j x)

with the moduli of each amplitude set summing to a draw from [0.3, 0.4].
Self-adjoint-class pairs have real tau1 and purely imaginary sigma0; the
general class adds small imaginary parts to a and a random phase to b.
"""

from __future__ import annotations

import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# The forward reference covers a fixed bank of pairs drawn from this seed;
# a workload seed selects pairs from the bank, because a reference cannot
# be precomputed for every seed a caller might pass.
BANK_SEED = 2023
BANK_SIZE = 16
REFERENCE_GRID = 2048
REFERENCE_N_MAX = 30

_J = np.arange(1, 4)
_CSV_HEADER = "x,tau1_re,tau1_im,sigma0_re,sigma0_im"


class Refused(Exception):
    """The benchmark cannot run: a missing or mismatched prerequisite."""


def pair_amplitudes(rng: np.random.Generator, selfadjoint: bool):
    """Draw (a, b), complex arrays of three harmonic amplitudes each."""
    a = rng.uniform(-1.0, 1.0, 3)
    a *= rng.uniform(0.3, 0.4) / np.abs(a).sum()
    b = rng.uniform(-1.0, 1.0, 3)
    b *= rng.uniform(0.3, 0.4) / np.abs(b).sum()
    if selfadjoint:
        return a.astype(complex), 1j * b
    return (a + 1j * rng.uniform(-0.1, 0.1, 3),
            b * np.exp(2j * np.pi * rng.uniform()))


def bank():
    """The reference bank: even indices self-adjoint class, odd general."""
    rng = np.random.default_rng(BANK_SEED)
    return [pair_amplitudes(rng, i % 2 == 0) for i in range(BANK_SIZE)]


def sample_pair(a, b, M: int):
    """(tau1, sigma0) node values on the uniform grid with M intervals."""
    x = np.linspace(0.0, 1.0, M + 1)
    tau1 = 0.3 + np.cos(2.0 * np.pi * np.outer(x, _J)) @ a
    sigma0 = np.sin(np.pi * np.outer(x, _J)) @ b
    return tau1, sigma0


def write_coeff_csv(path, a, b, M: int) -> None:
    """Coefficient CSV as documented in the README: %.17g, M+1 rows."""
    x = np.linspace(0.0, 1.0, M + 1)
    tau1, sigma0 = sample_pair(a, b, M)
    rows = [_CSV_HEADER]
    for m in range(M + 1):
        rows.append(",".join("%.17g" % u for u in (
            x[m], tau1[m].real, tau1[m].imag, sigma0[m].real, sigma0[m].imag)))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def read_coeff_csv(path):
    """(tau1, sigma0) node values from a coefficient CSV."""
    with open(path) as fh:
        if fh.readline().strip().replace(" ", "") != _CSV_HEADER:
            raise ValueError("%s: not a coefficient CSV" % path)
        cols = np.loadtxt(fh, delimiter=",", ndmin=2)
    return cols[:, 1] + 1j * cols[:, 2], cols[:, 3] + 1j * cols[:, 4]


def read_spectral_json(path):
    """(lam, beta) arrays of shape (n_max, 2) from a spectral-data JSON."""
    with open(path) as fh:
        obj = json.load(fh)
    n_max = int(obj["n_max"])
    lam = np.full((n_max, 2), np.nan, dtype=complex)
    beta = np.full((n_max, 2), np.nan, dtype=complex)
    for ent in obj["entries"]:
        n, k = int(ent["n"]), int(ent["k"])
        lam[n - 1, k - 1] = complex(*ent["lambda"])
        beta[n - 1, k - 1] = complex(*ent["beta"])
    return lam, beta


def _simpson(v: np.ndarray) -> complex:
    M = v.shape[0] - 1
    w = np.ones(M + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex(np.dot(w, v) / (3.0 * M))


def l2_distance(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.sqrt(_simpson(np.abs(u - v) ** 2).real))


def w2m1_distance(u: np.ndarray, v: np.ndarray) -> float:
    """L2 distance modulo an additive constant (sigma0 is recovered only
    up to one)."""
    d = u - v
    return float(np.sqrt(max(_simpson(np.abs(d) ** 2).real
                             - abs(_simpson(d)) ** 2, 0.0)))


def _to_pairs(z) -> list:
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _from_pairs(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def save_reference(path, command: list, entries: list) -> None:
    """entries: per bank pair, (a, b, lam, beta) with lam/beta (n_max, 2)."""
    obj = {
        "bank_seed": BANK_SEED,
        "grid": REFERENCE_GRID,
        "n_max": REFERENCE_N_MAX,
        "command": command,
        "pairs": [{"a": _to_pairs(a), "b": _to_pairs(b),
                   "lambda": _to_pairs(lam), "beta": _to_pairs(beta)}
                  for a, b, lam, beta in entries],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_reference():
    """The stored reference as a list of (a, b, lam, beta) per bank pair.

    Refuses when the file is missing, was made for another bank seed or
    size, or its amplitudes are not the ones this seed generates now.
    """
    if not os.path.exists(REFERENCE_PATH):
        raise Refused("forward reference %s is missing; generate it with "
                      "python3 perfbench/make_reference.py" % REFERENCE_PATH)
    with open(REFERENCE_PATH) as fh:
        obj = json.load(fh)
    if obj.get("bank_seed") != BANK_SEED or len(obj["pairs"]) != BANK_SIZE:
        raise Refused("forward reference was made for bank seed %r with %d "
                      "pairs, expected seed %d with %d pairs"
                      % (obj.get("bank_seed"), len(obj["pairs"]),
                         BANK_SEED, BANK_SIZE))
    if (obj["grid"] != REFERENCE_GRID or obj["n_max"] != REFERENCE_N_MAX):
        raise Refused("forward reference has grid %r, n_max %r"
                      % (obj["grid"], obj["n_max"]))
    out = []
    for (a, b), ent in zip(bank(), obj["pairs"]):
        if not (np.array_equal(_from_pairs(ent["a"]), a)
                and np.array_equal(_from_pairs(ent["b"]), b)):
            raise Refused("forward reference amplitudes differ from the "
                          "pairs bank seed %d generates" % BANK_SEED)
        out.append((a, b, _from_pairs(ent["lambda"]),
                    _from_pairs(ent["beta"])))
    return out
