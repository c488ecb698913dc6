"""Self-adjoint case utilities.

For real tau1 and purely imaginary sigma0 the two spectra pair up as
lambda_{n,1} = -conj(lambda_{n,2}) with beta_{n,1} = -conj(beta_{n,2}),
so family 1 (column 0 of SpectralData's tables) determines the rest.
complete() rebuilds family 2 from family 1 of a SpectralData, and the
check_* helpers report how well given data satisfies the symmetry (both
columns compared at once) and the sufficiency preconditions.
Sufficiency is condition 1 of the completed data
(asympt.validate_condition1) plus Re lambda_n >= 0 and gamma_n > 0.

Coinciding pairs in this class sit on the imaginary axis (lambda must
equal -conj(lambda)), carry beta = 0 on both sides, and a positive
gamma.
"""

from __future__ import annotations

import numpy as np

from . import asympt
from .forward import SpectralData, _mirror

__all__ = ["complete", "check_suff_conditions", "check_symmetry"]

_SYM_TOL = 1e-8


def complete(data: SpectralData) -> SpectralData:
    """The two-family spectral data that family 1 of data determines.

    lambda_{n,2} = -conj(lambda_{n,1}), beta_{n,2} = -conj(beta_{n,1});
    on the coinciding set both eigenvalues are snapped onto the imaginary
    axis, both weight numbers are zero and gamma is carried.  Family 2 of
    data is not read.  theta and each gamma must be real (within
    _SYM_TOL) and are stored with zero imaginary parts.
    """
    if abs(data.theta.imag) > _SYM_TOL * (1.0 + abs(data.theta)):
        raise ValueError("theta must be real for self-adjoint data, got %s"
                         % (data.theta,))
    for n in data.K:
        g = data.gamma[n]
        if abs(g.imag) > _SYM_TOL * (1.0 + abs(g)):
            raise ValueError("gamma at n=%d is not real: %s" % (n, g))
    lam1, beta1 = data.lambdas[:, 0], data.betas[:, 0]
    lambdas = np.stack([lam1, _mirror(lam1)], axis=1)
    betas = np.stack([beta1, _mirror(beta1)], axis=1)
    for n in data.K:
        lam = lambdas[n - 1, 0]
        if abs(lam.real) > 1e-6 * (1.0 + abs(lam)):
            raise ValueError(
                "coinciding index n=%d requires a purely imaginary "
                "eigenvalue, got %s" % (n, lam))
        lambdas[n - 1] = 1j * lam.imag
        betas[n - 1] = 0.0
    return SpectralData(theta=complex(data.theta.real), lambdas=lambdas,
                        betas=betas, K=data.K,
                        gamma={n: data.gamma[n].real for n in data.K})


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


def check_suff_conditions(data: SpectralData) -> dict:
    """Report on the sufficiency preconditions for the self-adjoint data
    that family 1 of data determines (complete(data)).

    The preconditions are condition 1 of the completed data, i.e. the
    clauses of asympt.validate_condition1 (its pairing clause compares
    each lambda_p with the mirrors -conj(lambda_n), and beta_{n,1} *
    beta_{n,2} = -|beta_n|^2 vanishes exactly where beta_n does), plus
    Re lambda_{n,1} >= 0 up to the coincidence tolerance and gamma_n > 0
    on K.  The report has validate_condition1's shape: "pass" overall
    and, per clause, "pass" and "offenders".
    """
    full = complete(data)
    report = asympt.validate_condition1(full)
    clauses = report["clauses"]
    lam = data.lambdas[:, 0]
    # lambda_n counts as on the imaginary axis when it coincides with
    # its projection there
    left = (lam.real < 0) & ~asympt.coincide(lam, 1j * lam.imag)
    offenders = [int(i) + 1 for i in np.flatnonzero(left)]
    clauses["re_lambda_nonneg"] = {"pass": not offenders,
                                   "offenders": offenders}
    offenders = [n for n in full.K if not full.gamma[n].real > 0]
    clauses["gamma_positive"] = {"pass": not offenders, "offenders": offenders}
    report["pass"] = all(c["pass"] for c in clauses.values())
    return report
