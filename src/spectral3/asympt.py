"""Eigenvalue asymptotics: seeds for the Newton search, inversion of the
numbering, and remainder sequences.

The two spectra behave like

    lambda_{n,k} = (-1)^(k+1) * ( (2 pi / sqrt 3) (n + 1/6 - theta/(2 pi^2 n)) )^3

up to l2-summable remainders, with theta the mean of tau1, and the
weight numbers like 3 lambda_{n,k}.  Everything here is elementary
arithmetic on that formula; the value of the module is pinning down the
cube-root branch and the index inversion consistently.  The module
also holds the one coincidence test for eigenvalues (coincide) and the
condition-1 report built on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchAmbiguityError

__all__ = [
    "AsymptoticFrame",
    "rho_guess",
    "eigen_guess",
    "beta_guess",
    "invert_index",
    "extract_remainders",
    "validate_condition1",
    "coincide",
    "COINCIDE_TOL",
    "root_rates",
]

_C = 2.0 * np.pi / np.sqrt(3.0)

# Relative distance below which two eigenvalues count as one (coincide).
COINCIDE_TOL = 1e-8

# A cube root has three branches 2*pi/3 apart; reject roots deviating
# from the seed direction by more than this fraction of that spacing.
_BRANCH_SECTOR = 2.0 * np.pi / 3.0
_BRANCH_LIMIT = 0.4 * _BRANCH_SECTOR


def rho_guess(n: int, k: int, theta: complex = 0.0) -> complex:
    """Leading-order rho_{n,k}; independent of k at this order."""
    if n < 1 or k not in (1, 2):
        raise ValueError("need n >= 1 and k in {1, 2}")
    return _C * (n + 1.0 / 6.0 - theta / (2.0 * np.pi**2 * n))


def eigen_guess(n: int, k: int, theta: complex = 0.0) -> complex:
    return (-1.0) ** (k + 1) * rho_guess(n, k, theta) ** 3


def beta_guess(n: int, k: int, theta: complex = 0.0) -> complex:
    return 3.0 * eigen_guess(n, k, theta)


def _cube_roots(z) -> np.ndarray:
    """The three cube roots of each z, principal branch first: shape
    (..., 3).  The principal root is CPython's complex power, entry by
    entry; np.power rounds it differently."""
    z = np.asarray(z, dtype=complex)
    base = np.array([complex(t) ** (1.0 / 3.0) for t in z.ravel()],
                    dtype=complex).reshape(z.shape + (1,))
    return base * np.exp(2j * np.pi * np.arange(3) / 3.0)


def root_rates(z) -> np.ndarray:
    """Real parts of the three cube roots of each z in ascending order,
    shape (..., 3): the growth rates of the exponential solutions of
    y''' = z y (all zero at z = 0)."""
    z = np.asarray(z, dtype=complex)
    rates = np.sort(_cube_roots(z).real, axis=-1)
    rates[z == 0] = 0.0
    return rates


def _branch_root(target: complex, seed: complex) -> complex:
    """Cube root of target closest in direction to the seed."""
    if target == 0:
        raise BranchAmbiguityError(
            "zero has no cube-root direction to match %s" % (seed,))
    roots = _cube_roots(target)
    dev = np.abs(np.angle(roots / seed))
    j = int(np.argmin(dev))
    if dev[j] > _BRANCH_LIMIT:
        raise BranchAmbiguityError(
            "cube root %s deviates %.3f rad from the asymptotic direction %s"
            % (roots[j], dev[j], seed)
        )
    return complex(roots[j])


def invert_index(lam: complex, k: int, theta: complex = 0.0) -> int:
    """Index n whose asymptotic eigenvalue is nearest to lam.

    Inverse of eigen_guess; used to detect Newton basins escaping to a
    neighboring root.
    """
    target = (-1.0) ** (k + 1) * complex(lam)
    rho = target ** (1.0 / 3.0)  # principal branch hugs the positive axis
    n0 = (np.sqrt(3.0) / (2.0 * np.pi)) * rho - 1.0 / 6.0
    n_ref = max(n0.real, 1.0)
    n1 = n0 + theta / (2.0 * np.pi**2 * n_ref)
    return int(round(n1.real))


@dataclass
class AsymptoticFrame:
    """Remainder sequences of the eigenvalue and weight asymptotics.

    kappa[n-1, k-1] and kappa1[n-1, k-1] are the dimensionless
    remainders; their l2-membership is what the theory assumes, which a
    finite table can only support by a decay diagnostic, not prove.
    """

    theta: complex
    rho: np.ndarray      # (N, 2) chosen cube roots
    kappa: np.ndarray    # (N, 2)
    kappa1: np.ndarray   # (N, 2)
    tail_max: float
    decay_slope: float


def extract_remainders(data) -> AsymptoticFrame:
    """Invert the asymptotic formulas on a spectral-data table."""
    theta = data.theta
    N = data.n_max
    rho = np.zeros((N, 2), dtype=complex)
    kappa = np.zeros((N, 2), dtype=complex)
    kappa1 = np.zeros((N, 2), dtype=complex)
    for n in range(1, N + 1):
        for k in (1, 2):
            lam = data.lam(n, k)
            beta = data.beta(n, k)
            target = (-1.0) ** (k + 1) * lam
            r = _branch_root(target, rho_guess(n, k, theta))
            rho[n - 1, k - 1] = r
            kappa[n - 1, k - 1] = n * (
                np.sqrt(3.0) / (2.0 * np.pi) * r
                - n - 1.0 / 6.0 + theta / (2.0 * np.pi**2 * n)
            )
            kappa1[n - 1, k - 1] = n * (beta / (3.0 * lam) - 1.0)
    mag = np.abs(kappa).max(axis=1)
    lo = max(N // 2, 1)
    tail = mag[lo - 1:]
    tail_max = float(tail.max()) if tail.size else 0.0
    # crude decay slope of log|kappa| against log n over the upper half
    ns = np.arange(lo, N + 1, dtype=float)
    positive = tail > 0
    if positive.sum() >= 2:
        slope = float(np.polyfit(np.log(ns[positive]),
                                 np.log(tail[positive]), 1)[0])
    else:
        slope = 0.0
    return AsymptoticFrame(theta, rho, kappa, kappa1, tail_max, slope)


def coincide(a, b, tol: float = COINCIDE_TOL):
    """True where |a - b| <= tol (1 + |a|), elementwise with broadcasting.

    The one test for two eigenvalues being the same point: the pairing
    of the two families (forward.detect_K), the condition-1 clauses
    below, the model collision check (model, condition 4) and the
    self-adjoint sufficiency report all read it.  Moduli are taken with
    np.hypot, which agrees bitwise with Python's abs of a complex.
    """
    a = np.asarray(a, dtype=complex)
    d = a - np.asarray(b, dtype=complex)
    return np.hypot(d.real, d.imag) <= tol * (1.0 + np.hypot(a.real, a.imag))


def validate_condition1(data) -> dict:
    """Report on the structural conditions the inverse theory assumes.

    Clauses: eigenvalues distinct within each family; cross-family
    collisions only at paired indices (the set K); beta_{n,1}beta_{n,2}
    vanishing exactly on K; gamma nonzero on K; remainder decay.
    Report-only: each clause carries a pass flag and offenders.
    """
    N = data.n_max
    clauses: dict = {}

    offenders = []
    for k, lams in ((1, data.lam1), (2, data.lam2)):
        same = np.triu(coincide(lams[:, None], lams), 1)
        offenders += [(int(i) + 1, int(j) + 1, k) for i, j in np.argwhere(same)]
    clauses["distinct_within_family"] = {
        "pass": not offenders, "offenders": offenders}

    offenders = [(int(n) + 1, int(p) + 1) for n, p in np.argwhere(
        coincide(data.lam1[:, None], data.lam2) & ~np.eye(N, dtype=bool))]
    clauses["pairing"] = {"pass": not offenders, "offenders": offenders}

    offenders = []
    for n in range(1, N + 1):
        prod_zero = data.beta(n, 1) * data.beta(n, 2) == 0
        if prod_zero != (n in data.K):
            offenders.append(n)
    clauses["beta_product_on_K"] = {"pass": not offenders, "offenders": offenders}

    offenders = [n for n in data.K if data.gamma[n] == 0]
    clauses["gamma_nonzero"] = {"pass": not offenders, "offenders": offenders}

    try:
        frame = extract_remainders(data)
        decay = {"pass": bool(frame.tail_max <= 0.5),
                 "tail_max": frame.tail_max,
                 "decay_slope": frame.decay_slope}
    except BranchAmbiguityError as exc:
        decay = {"pass": False, "error": str(exc)}
    clauses["remainder_decay"] = decay

    return {"clauses": clauses,
            "pass": all(c["pass"] for c in clauses.values())}
