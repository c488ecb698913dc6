"""Eigenvalue asymptotics: seeds for the Newton search, inversion of the
numbering, and remainder sequences.

The two spectra behave like

    lambda_{n,k} = (-1)^(k+1) * ( (2 pi / sqrt 3) (n + 1/6 - theta/(2 pi^2 n)) )^3

up to l2-summable remainders, with theta the mean of tau1, and the
weight numbers like 3 lambda_{n,k}.  eigen_guess seeds the Newton
search of the entries n <= 6, of every entry of a constant pair, and
of the constant model search behind the other seeds: forward._seeds
starts the entries n >= 7 from the model's eigenvalues plus a boundary
shift, which carry the remainders and RK4 error this formula misses.
Everything here is elementary arithmetic on that formula, over index
arrays and whole (n_max, 2) tables, with the principal cube root taken
entry by entry as Python takes it (_cube_roots).  The value of the module is pinning down the
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
    "invert_index",
    "extract_remainders",
    "validate_condition1",
    "coincide",
    "COINCIDE_TOL",
    "clause", "clause_table",
    "root_rates",
]

_C = 2.0 * np.pi / np.sqrt(3.0)

# Relative distance below which two eigenvalues count as one (coincide).
COINCIDE_TOL = 1e-8

# A cube root has three branches 2*pi/3 apart; reject roots deviating
# from the seed direction by more than this fraction of that spacing.
_BRANCH_SECTOR = 2.0 * np.pi / 3.0
_BRANCH_LIMIT = 0.4 * _BRANCH_SECTOR


def rho_guess(n, k, theta: complex = 0.0) -> np.ndarray:
    """Leading-order rho_{n,k} over index arrays n and k, broadcast
    together; independent of k at this order."""
    n, k = np.broadcast_arrays(n, k)
    if (n < 1).any() or not np.isin(k, (1, 2)).all():
        raise ValueError("need n >= 1 and k in {1, 2}")
    return _C * (n + 1.0 / 6.0 - theta / (2.0 * np.pi**2 * n))


def eigen_guess(n, k, theta: complex = 0.0) -> np.ndarray:
    """Asymptotic lambda_{n,k} over index arrays n and k."""
    sign = np.where(np.asarray(k) == 1, 1.0, -1.0)  # (-1)^(k+1)
    return sign * rho_guess(n, k, theta) ** 3


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


def _branch_roots(target: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Cube root of each target closest in direction to its seed; the
    BranchAmbiguityError names the first entry, in (n, k) order, that is
    zero or whose root deviates from the seed beyond _BRANCH_LIMIT."""
    roots = _cube_roots(target)
    dev = np.abs(np.angle(roots / seed[..., None]))
    j = np.argmin(dev, axis=-1)[..., None]
    best = np.take_along_axis(roots, j, axis=-1)[..., 0]
    dev = np.take_along_axis(dev, j, axis=-1)[..., 0]
    bad = (target == 0) | (dev > _BRANCH_LIMIT)
    if bad.any():
        i = tuple(np.argwhere(bad)[0])
        if target[i] == 0:
            raise BranchAmbiguityError(
                "zero has no cube-root direction to match %s" % (seed[i],))
        raise BranchAmbiguityError(
            "cube root %s deviates %.3f rad from the asymptotic direction %s"
            % (best[i], dev[i], seed[i]))
    return best


def invert_index(lam, k, theta: complex = 0.0) -> np.ndarray:
    """Index n whose asymptotic eigenvalue is nearest to each lam of
    family k (arrays broadcast together).

    Inverse of eigen_guess; used to detect Newton basins escaping to a
    neighboring root.
    """
    target = np.where(np.asarray(k) == 1, 1.0, -1.0) * np.asarray(lam)
    rho = _cube_roots(target)[..., 0]  # principal: hugs the positive axis
    n0 = (np.sqrt(3.0) / (2.0 * np.pi)) * rho - 1.0 / 6.0
    n_ref = np.maximum(n0.real, 1.0)
    n1 = n0 + theta / (2.0 * np.pi**2 * n_ref)
    return np.rint(n1.real).astype(int)


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
    n = np.arange(1, N + 1)[:, None]
    k = np.array([1, 2])
    lam = data.lambdas
    rho = _branch_roots(np.array([1.0, -1.0]) * lam, rho_guess(n, k, theta))
    kappa = n * (np.sqrt(3.0) / (2.0 * np.pi) * rho - n - 1.0 / 6.0
                 + theta / (2.0 * np.pi**2 * n))
    kappa1 = n * (data.betas / (3.0 * lam) - 1.0)
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


def clause(offenders: list, **figures) -> dict:
    """A clause of a condition report, passed when it has no offenders."""
    return {"pass": not offenders, "offenders": offenders, **figures}


def clause_table(clauses: dict) -> dict:
    """The one shape of every condition report: its clauses by name and
    whether all pass."""
    return {"clauses": clauses,
            "pass": all(c["pass"] for c in clauses.values())}


def validate_condition1(data, frame: AsymptoticFrame | None = None) -> dict:
    """Report on the structural conditions the inverse theory assumes.

    Clauses: eigenvalues distinct within each family; cross-family
    collisions only at paired indices (the set K); beta_{n,1}beta_{n,2}
    vanishing exactly on K; gamma nonzero on K; remainder decay.
    Report-only, a clause_table: each clause carries a pass flag and
    offenders, the decay clause its figures (or an error) instead; it
    reads frame, extract_remainders(data) of a caller that has it, or
    extracts it here.
    """
    N, lam = data.n_max, data.lambdas
    # (family, i, j) with i < j: argwhere lists family 1 first
    same = np.triu(coincide(lam.T[:, :, None], lam.T[:, None, :]), 1)
    cross = coincide(lam[:, 0, None], lam[:, 1]) & ~np.eye(N, dtype=bool)
    off_K = ((data.betas[:, 0] * data.betas[:, 1] == 0)
             != np.isin(np.arange(1, N + 1), data.K))
    clauses = {
        "distinct_within_family": clause([(int(i) + 1, int(j) + 1, int(k) + 1)
                                          for k, i, j in np.argwhere(same)]),
        "pairing": clause([(int(n) + 1, int(p) + 1)
                           for n, p in np.argwhere(cross)]),
        "beta_product_on_K": clause([int(n) + 1
                                     for n in np.flatnonzero(off_K)]),
        "gamma_nonzero": clause([n for n in data.K if data.gamma[n] == 0]),
    }
    try:
        frame = extract_remainders(data) if frame is None else frame
        clauses["remainder_decay"] = {"pass": bool(frame.tail_max <= 0.5),
                                      "tail_max": frame.tail_max,
                                      "decay_slope": frame.decay_slope}
    except BranchAmbiguityError as exc:
        clauses["remainder_decay"] = {"pass": False, "error": str(exc)}
    return clause_table(clauses)
