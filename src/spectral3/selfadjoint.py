"""Self-adjoint case utilities.

For real tau1 and purely imaginary sigma0 the two spectra pair up as
lambda_{n,1} = -conj(lambda_{n,2}) with beta_{n,1} = -conj(beta_{n,2}),
so family 1 (column 0 of SpectralData's tables) determines the rest.
complete() rebuilds family 2 from family 1 of a SpectralData.  The
check_* helpers report, as clause tables (asympt.clause_table), how well
given data satisfy the symmetry and the sufficiency preconditions.

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


def _imag_dev(z) -> float:
    """|Im z| / (1 + |z|): how far z is from real, against _SYM_TOL."""
    return abs(z.imag) / (1.0 + abs(z))


def complete(data: SpectralData) -> SpectralData:
    """The two-family spectral data that family 1 of data determines.

    lambda_{n,2} = -conj(lambda_{n,1}), beta_{n,2} = -conj(beta_{n,1});
    on the coinciding set both eigenvalues are snapped onto the imaginary
    axis, both weight numbers are zero and gamma is carried.  Family 2 of
    data is not read.  theta and each gamma must be real (within
    _SYM_TOL) and are stored with zero imaginary parts.
    """
    if _imag_dev(data.theta) > _SYM_TOL:
        raise ValueError("theta must be real for self-adjoint data, got %s"
                         % (data.theta,))
    for n in data.K:
        g = data.gamma[n]
        if _imag_dev(g) > _SYM_TOL:
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
    """Report on the self-adjoint pairing of full spectral data: a
    clause_table of lambda_mirror and beta_mirror (|x_{n,1} +
    conj(x_{n,2})| / (1 + |x_{n,1}|), offenders n), gamma_real and
    theta_real (_imag_dev; gamma's offenders are n in K), each with its
    max deviation and failing above _SYM_TOL."""
    def mirror(a, b):
        return np.abs(a + np.conj(b)) / (1.0 + np.abs(a))

    ns = np.arange(1, data.n_max + 1)
    devs = {"lambda_mirror": (ns, mirror(*data.lambdas.T)),
            "beta_mirror": (ns, mirror(*data.betas.T)),
            "gamma_real": (data.K, [_imag_dev(data.gamma[n]) for n in data.K])}
    clauses = {name: asympt.clause(
        [int(n) for n, d in zip(idx, dev) if d > _SYM_TOL],
        max=float(np.max(dev, initial=0.0)))
        for name, (idx, dev) in devs.items()}
    theta_dev = _imag_dev(data.theta)
    clauses["theta_real"] = {"pass": theta_dev <= _SYM_TOL, "max": theta_dev}
    return asympt.clause_table(clauses)


def check_suff_conditions(data: SpectralData) -> dict:
    """Report on the sufficiency preconditions for the self-adjoint data
    that family 1 of data determines (complete(data)).

    The preconditions are condition 1 of the completed data, i.e. the
    clauses of asympt.validate_condition1 (its pairing clause compares
    each lambda_p with the mirrors -conj(lambda_n), and beta_{n,1} *
    beta_{n,2} = -|beta_n|^2 vanishes exactly where beta_n does), plus
    Re lambda_{n,1} >= 0 up to the coincidence tolerance and gamma_n > 0
    on K.  The report is a clause_table, as validate_condition1's is.
    """
    full = complete(data)
    clauses = asympt.validate_condition1(full)["clauses"]
    lam = data.lambdas[:, 0]
    # lambda_n counts as on the imaginary axis when it coincides with
    # its projection there
    left = (lam.real < 0) & ~asympt.coincide(lam, 1j * lam.imag)
    clauses["re_lambda_nonneg"] = asympt.clause(
        [int(i) + 1 for i in np.flatnonzero(left)])
    clauses["gamma_positive"] = asympt.clause(
        [n for n in full.K if not full.gamma[n].real > 0])
    return asympt.clause_table(clauses)
