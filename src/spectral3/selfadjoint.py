"""Self-adjoint case utilities.

For real tau1 and purely imaginary sigma0 the two spectra pair up as
lambda_{n,1} = -conj(lambda_{n,2}) with beta_{n,1} = -conj(beta_{n,2}),
so half of the data determines the rest.  HalfData stores that half
(the first family, column 1 of SpectralData's tables), complete() and
restrict() convert to and from full SpectralData by stacking and slicing
the columns, and the check_* helpers report how well given data
satisfies the symmetry (both columns compared at once) and the
sufficiency preconditions.  Sufficiency is condition 1 of the completed
data (asympt.validate_condition1) plus Re lambda_n >= 0 and gamma_n > 0;
HalfData checks K as SpectralData does.

Coinciding pairs in this class sit on the imaginary axis (lambda must
equal -conj(lambda)), carry beta = 0 on both sides, and a positive
gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import asympt
from .forward import SpectralData, _checked_K, _mirror

__all__ = ["HalfData", "complete", "restrict", "check_suff_conditions",
           "check_symmetry"]

_SYM_TOL = 1e-8


@dataclass
class HalfData:
    """First-family spectral data of a self-adjoint-class problem."""

    theta: float
    lambdas: np.ndarray          # lambda_n = lambda_{n,1}, n = 1..n_max
    betas: np.ndarray            # zero on K
    K: list = field(default_factory=list)
    gammas: dict = field(default_factory=dict)   # n -> positive real

    def __post_init__(self):
        self.theta = float(np.real_if_close(self.theta))
        # copies, so the caller's arrays are not shared
        self.lambdas = np.array(self.lambdas, dtype=complex)
        self.betas = np.array(self.betas, dtype=complex)
        if self.betas.shape != self.lambdas.shape:
            raise ValueError("lambdas and betas must have equal length")
        self.K = _checked_K(self.K, self.gammas, self.n_max)
        self.gammas = {int(n): float(g) for n, g in self.gammas.items()}

    @property
    def n_max(self) -> int:
        return self.lambdas.shape[0]


def complete(half: HalfData) -> SpectralData:
    """Extend half data to the full two-family spectral data.

    lambda_{n,2} = -conj(lambda_n), beta_{n,2} = -conj(beta_n); on the
    coinciding set both weight numbers are zero and gamma is carried.
    """
    lambdas = np.stack([half.lambdas, _mirror(half.lambdas)], axis=1)
    betas = np.stack([half.betas, _mirror(half.betas)], axis=1)
    for n in half.K:
        lam = lambdas[n - 1, 0]
        if abs(lam.real) > 1e-6 * (1.0 + abs(lam)):
            raise ValueError(
                "coinciding index n=%d requires a purely imaginary "
                "eigenvalue, got %s" % (n, lam))
        lambdas[n - 1] = 1j * lam.imag
        betas[n - 1] = 0.0
    return SpectralData(theta=complex(half.theta), lambdas=lambdas,
                        betas=betas, K=half.K, gamma=half.gammas)


def restrict(data: SpectralData) -> HalfData:
    """Keep the first-family entries (inverse of complete on symmetric
    data)."""
    if abs(data.theta.imag) > _SYM_TOL * (1.0 + abs(data.theta)):
        raise ValueError("theta must be real for self-adjoint data, got %s"
                         % (data.theta,))
    gammas = {}
    for n in data.K:
        g = data.gamma[n]
        if abs(g.imag) > _SYM_TOL * (1.0 + abs(g)):
            raise ValueError("gamma at n=%d is not real: %s" % (n, g))
        gammas[n] = g.real
    return HalfData(theta=data.theta.real, lambdas=data.lambdas[:, 0],
                    betas=data.betas[:, 0], K=data.K, gammas=gammas)


def check_symmetry(data: SpectralData) -> dict:
    """Measure the self-adjoint pairing of full spectral data."""
    # max over n of |x_{n,1} + conj(x_{n,2})| / (1 + |x_{n,1}|)
    lam_dev, beta_dev = (
        float(np.max(np.abs(a + np.conj(b)) / (1.0 + np.abs(a)), initial=0.0))
        for a, b in (data.lambdas.T, data.betas.T))
    gamma_dev = 0.0
    for n in data.K:
        g = data.gamma[n]
        gamma_dev = max(gamma_dev, abs(g.imag) / (1.0 + abs(g)))
    theta_dev = abs(data.theta.imag) / (1.0 + abs(data.theta))
    report = {
        "lambda_max": lam_dev,
        "beta_max": beta_dev,
        "gamma_imag_max": gamma_dev,
        "theta_imag": theta_dev,
        "tol": _SYM_TOL,
    }
    report["pass"] = all(v <= _SYM_TOL for v in
                         (lam_dev, beta_dev, gamma_dev, theta_dev))
    return report


def check_suff_conditions(half: HalfData) -> dict:
    """Report on the sufficiency preconditions for half data.

    The preconditions are condition 1 of the completed data, i.e. the
    clauses of asympt.validate_condition1 (its pairing clause compares
    each lambda_p with the mirrors -conj(lambda_n), and beta_{n,1} *
    beta_{n,2} = -|beta_n|^2 vanishes exactly where beta_n does), plus
    Re lambda_n >= 0 up to the coincidence tolerance and gamma_n > 0 on
    K.  The report has validate_condition1's shape: "pass" overall and,
    per clause, "pass" and "offenders".
    """
    report = asympt.validate_condition1(complete(half))
    clauses = report["clauses"]
    lam = half.lambdas
    # lambda_n counts as on the imaginary axis when it coincides with
    # its projection there
    left = (lam.real < 0) & ~asympt.coincide(lam, 1j * lam.imag)
    offenders = [int(i) + 1 for i in np.flatnonzero(left)]
    clauses["re_lambda_nonneg"] = {"pass": not offenders,
                                   "offenders": offenders}
    offenders = [n for n in half.K if not half.gammas[n] > 0]
    clauses["gamma_positive"] = {"pass": not offenders, "offenders": offenders}
    report["pass"] = all(c["pass"] for c in clauses.values())
    return report
