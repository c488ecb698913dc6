"""Model problem construction and the spectral-data metrics.

The model pair is the constant-coefficient problem tau1 = theta,
sigma0 = 0 (theta the integral carried by the data).  Its sweeps are the
same RK4 map as everything else, evaluated as powers of the one step
matrix that every cell of a constant system shares (quasi._sweep).
build_model checks the model pair (admissibility conditions 1 and 2),
computes the model spectral data and checks it against the given data
(conditions 3 and 4, a collision being asympt.coincide); the Weyl
solutions Phi_k of the direct and star systems are served by
ModelCache.states over lambda arrays, each computed where it is first
read and kept for the rest of the run.

spectral_gaps is the one entrywise comparison of two data tables,
|Delta lambda| and |Delta beta| per (n, k); xi_sequence, distance_d,
the spectral verification and the roundtrip table read it.

Which Weyl solution may be evaluated where is dictated by the pole
structure: Phi_2 has poles on the second model spectrum, Phi_2* on the
first, while Phi_3 and Phi_3* are entire.  The assembly only ever asks
for the regular combinations; the cache still guards each evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .asympt import coincide
from .errors import AdmissibilityViolationError
from .forward import SpectralData, compute_spectral_data, weyl_batch
from .grid import CoefficientPair, Grid, GridFunction, integrate
from .quasi import SystemVariant

__all__ = ["ModelCache", "build_model", "spectral_gaps", "xi_sequence",
           "distance_d"]

# Extra model indices beyond N; verification compares the first few
# eigenvalues past the truncation against the model.
_MODEL_MARGIN = 4


@dataclass
class ModelCache:
    """Model quantities of one inverse run, with the Weyl states filled
    on first request."""

    coeffs: CoefficientPair
    model_data: SpectralData        # n <= N + margin
    phi: dict = field(default_factory=dict)        # (k, lam) -> (M+1, 3)
    phi_star: dict = field(default_factory=dict)   # (k, lam) -> (M+1, 3)

    @property
    def grid(self) -> Grid:
        return self.coeffs.grid

    def states(self, variant: SystemVariant, k: int, lams) -> np.ndarray:
        """Weyl states Phi_k(., lam) of the variant at lams: (L, M+1, 3).

        The misses are computed in one weyl_batch call and kept.
        """
        table = self.phi if variant is SystemVariant.DIRECT else self.phi_star
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        self._ensure(table, variant, lams, k)
        out = np.empty((len(lams), self.grid.M + 1, 3), dtype=complex)
        for i, l in enumerate(map(complex, lams)):
            out[i] = table[(k, l)]
        return out

    def _ensure(self, table: dict, variant: SystemVariant, lams, k: int) -> None:
        missing = list(dict.fromkeys(l for l in map(complex, lams)
                                     if (k, l) not in table))
        if not missing:
            return
        batch = weyl_batch(self.coeffs, np.array(missing), variant, k)
        for i, l in enumerate(missing):
            table[(k, l)] = batch[i]


def _check_model(model_coeffs: CoefficientPair, theta: complex) -> None:
    """Admissibility conditions 1 and 2, on the model pair alone."""
    th = integrate(model_coeffs.tau1)
    gap = abs(th - theta)
    if gap > 1e-10 * (1.0 + abs(theta)):
        raise AdmissibilityViolationError(
            1, "model mean %s does not match the data mean %s"
            % (th, theta), pair=(th, theta), gap=gap)
    vals = np.concatenate([model_coeffs.tau1.values, model_coeffs.sigma0.values])
    if not np.isfinite(vals).all():
        raise AdmissibilityViolationError(
            2, "model coefficients contain non-finite samples")


def _check_spectra(data: SpectralData, model_data: SpectralData) -> None:
    """Admissibility conditions 3 and 4, on the model spectrum."""
    if model_data.K:
        n = model_data.K[0]
        raise AdmissibilityViolationError(
            3, "model spectra coincide at n=%d" % n,
            pair=(model_data.lam(n, 1), model_data.lam(n, 2)),
            gap=abs(model_data.lam(n, 1) - model_data.lam(n, 2)))
    # family-major, so the first hit is the first of family 1's
    lam_model = model_data.lambdas.T.ravel()
    lam_data = data.lambdas.T.ravel()
    hits = np.argwhere(coincide(lam_model[:, None], lam_data))
    if hits.size:
        i, j = hits[0]
        raise AdmissibilityViolationError(
            4, "model eigenvalue collides with a given one",
            pair=(complex(lam_model[i]), complex(lam_data[j])),
            gap=abs(complex(lam_model[i] - lam_data[j])))


def build_model(data: SpectralData, grid: Grid, N: int,
                model_coeffs: CoefficientPair | None = None) -> ModelCache:
    """Construct and validate the model problem.

    The default model is tau1 = theta constant, sigma0 = 0, with theta
    the data's mean.  A user-supplied model pair is accepted instead
    through model_coeffs; either way its mean must be the data's
    (condition 1), and a model eigenvalue colliding with a given one is
    an error (condition 4).  The truncation order N is checked first, by
    data.truncate, before any sweep.
    """
    data_N = data.truncate(N)
    if model_coeffs is None:
        model_coeffs = CoefficientPair(
            GridFunction.constant(grid, data.theta),
            GridFunction.constant(grid, 0.0))
    _check_model(model_coeffs, data.theta)
    model_data = compute_spectral_data(model_coeffs, N + _MODEL_MARGIN)
    _check_spectra(data_N, model_data)
    return ModelCache(coeffs=model_coeffs, model_data=model_data)


def spectral_gaps(data: SpectralData, ref: SpectralData, N: int,
                  relative: bool = False) -> tuple:
    """Entrywise gaps (|lambda - lambda_ref|, |beta - beta_ref|) for
    n = 1..N, two (N, 2) arrays with column k-1 holding family k.

    relative divides each gap by 1 + |reference entry|.  Moduli come
    from np.hypot, which agrees bitwise with Python's abs of a complex.
    """
    if N > min(data.n_max, ref.n_max):
        raise ValueError("N=%d exceeds the data range n_max=%d"
                         % (N, min(data.n_max, ref.n_max)))
    x = np.stack([data.lambdas[:N], data.betas[:N]])
    r = np.stack([ref.lambdas[:N], ref.betas[:N]])
    d = x - r
    gap = np.hypot(d.real, d.imag)
    if relative:
        gap = gap / (1.0 + np.hypot(r.real, r.imag))
    return tuple(gap)


def xi_sequence(data: SpectralData, model_data: SpectralData, N: int) -> np.ndarray:
    """Per-index differences xi_n of two spectral data sets."""
    dlam, dbeta = spectral_gaps(data, model_data, N)
    n = np.arange(1, N + 1)[:, None]
    terms = dlam / n ** 2 + dbeta / n ** 3
    return terms[:, 0] + terms[:, 1]


def distance_d(data: SpectralData, other: SpectralData,
               N: int | None = None) -> float:
    """Weighted l2 distance between two spectral data sets."""
    if N is None:
        N = min(data.n_max, other.n_max)
    dlam, dbeta = spectral_gaps(data, other, N)
    n = np.arange(1, N + 1)[:, None]
    total = 0.0
    # one term at a time in (n, k) order; np.sum would round differently
    for term in (dlam / n + dbeta / n ** 2).ravel():
        total += term * term
    return float(np.sqrt(total))
