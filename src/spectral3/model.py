"""Model problem construction and the spectral-data metrics.

The model pair is the constant-coefficient problem tau1 = theta,
sigma0 = 0 (theta the integral carried by the data), solved by the same
integrator as everything else.  build_model enforces the four
admissibility conditions and precomputes every model quantity the main
equation consumes: spectral data and the Weyl solutions Phi_2, Phi_3 of
the direct and star systems at every needed lambda.

Which Weyl solution may be evaluated where is dictated by the pole
structure: Phi_2 has poles on the second model spectrum, Phi_2* on the
first, while Phi_3 and Phi_3* are entire.  The assembly only ever asks
for the regular combinations; the cache still guards each evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityViolationError
from .forward import SpectralData, compute_spectral_data, weyl_batch
from .grid import CoefficientPair, Grid, GridFunction, integrate
from .quasi import SystemVariant

__all__ = ["ModelCache", "build_model", "xi_sequence", "distance_d"]

# Exact-coincidence detection for admissibility conditions 3 and 4.
_COLLISION_TOL = 1e-8

# Extra model indices beyond N; verification compares the first few
# eigenvalues past the truncation against the model.
_MODEL_MARGIN = 4


@dataclass
class ModelCache:
    """Immutable bundle of model quantities for one inverse run."""

    coeffs: CoefficientPair
    model_data: SpectralData        # n <= N + margin
    data: SpectralData              # the given data truncated to n <= N
    N: int
    theta_shift: complex = 0.0
    phi: dict = field(default_factory=dict)        # (k, lam) -> (M+1, 3)
    phi_star: dict = field(default_factory=dict)   # (k, lam) -> (M+1, 3)

    @property
    def grid(self) -> Grid:
        return self.coeffs.grid

    def ensure(self, lams, k: int) -> None:
        """Batch-compute and cache direct Weyl states Phi_k at lams."""
        self._ensure(self.phi, SystemVariant.DIRECT, lams, k)

    def ensure_star(self, lams, k: int) -> None:
        self._ensure(self.phi_star, SystemVariant.STAR, lams, k)

    def ensure_main(self, data: SpectralData) -> None:
        """Batch-compute the Weyl states the main equation reads at the
        eigenvalues of data (truncated to n <= N) and of the model.

        Phi_2 and Phi*_3 are needed at first-family values, Phi_3 and
        Phi*_2 at second-family values, so neither Phi_2 nor Phi*_2 is
        evaluated on its poles (admissibility conditions 3 and 4).
        """
        ns = range(1, data.n_max + 1)
        src = (data, self.model_data)
        lam1 = [d.lam(n, 1) for n in ns for d in src]
        lam2 = [d.lam(n, 2) for n in ns for d in src]
        self.ensure(lam1, 2)
        self.ensure(lam2, 3)
        self.ensure_star(lam2, 2)
        self.ensure_star(lam1, 3)

    def _ensure(self, table: dict, variant: SystemVariant, lams, k: int) -> None:
        missing = [l for l in np.atleast_1d(np.asarray(lams, dtype=complex))
                   if (k, complex(l)) not in table]
        if not missing:
            return
        batch = weyl_batch(self.coeffs, np.array(missing), variant, ks=(k,))
        for i, l in enumerate(missing):
            table[(k, complex(l))] = batch[k][i]

    def phi_states(self, k: int, lam: complex) -> np.ndarray:
        key = (k, complex(lam))
        if key not in self.phi:
            self.ensure([lam], k)
        return self.phi[key]

    def phi_star_states(self, k: int, lam: complex) -> np.ndarray:
        key = (k, complex(lam))
        if key not in self.phi_star:
            self.ensure_star([lam], k)
        return self.phi_star[key]


def _collision_tol(lam: complex) -> float:
    return _COLLISION_TOL * (1.0 + abs(lam))


def _check_conditions(model_coeffs: CoefficientPair, data: SpectralData,
                      model_data: SpectralData, theta_target: complex) -> None:
    th = integrate(model_coeffs.tau1)
    gap = abs(th - theta_target)
    if gap > 1e-10 * (1.0 + abs(theta_target)):
        raise AdmissibilityViolationError(
            1, "model mean %s does not match the data mean %s"
            % (th, theta_target), pair=(th, theta_target), gap=gap)
    vals = np.concatenate([model_coeffs.tau1.values, model_coeffs.sigma0.values])
    if not np.isfinite(vals).all():
        raise AdmissibilityViolationError(
            2, "model coefficients contain non-finite samples")
    if model_data.K:
        n = model_data.K[0]
        raise AdmissibilityViolationError(
            3, "model spectra coincide at n=%d" % n,
            pair=(model_data.lam(n, 1), model_data.lam(n, 2)),
            gap=abs(model_data.lam(n, 1) - model_data.lam(n, 2)))
    lam_model = np.concatenate([model_data.lam1, model_data.lam2])
    lam_data = np.concatenate([data.lam1, data.lam2])
    diff = np.abs(lam_model[:, None] - lam_data[None, :])
    i, j = np.unravel_index(int(np.argmin(diff)), diff.shape)
    if diff[i, j] <= _collision_tol(abs(lam_model[i])):
        raise AdmissibilityViolationError(
            4, "model eigenvalue collides with a given one",
            pair=(complex(lam_model[i]), complex(lam_data[j])),
            gap=float(diff[i, j]))


def build_model(data: SpectralData, grid: Grid, N: int,
                model_coeffs: CoefficientPair | None = None,
                theta_shift: complex = 0.0) -> ModelCache:
    """Construct and validate the model problem, then cache everything.

    The default model is tau1 = theta + theta_shift constant, sigma0 = 0;
    theta_shift (normally zero) moves the model spectrum to break
    eigenvalue collisions explicitly.  A user-supplied model pair is
    accepted instead through model_coeffs.
    """
    if N > data.n_max:
        raise ValueError("N=%d exceeds the data range n_max=%d" % (N, data.n_max))
    theta_target = data.theta + theta_shift
    if model_coeffs is None:
        model_coeffs = CoefficientPair(
            GridFunction.constant(grid, theta_target),
            GridFunction.constant(grid, 0.0))
    data_N = data.truncate(N)
    model_data = compute_spectral_data(model_coeffs, N + _MODEL_MARGIN)
    _check_conditions(model_coeffs, data_N, model_data, theta_target)

    cache = ModelCache(coeffs=model_coeffs, model_data=model_data,
                       data=data_N, N=N, theta_shift=theta_shift)

    cache.ensure_main(data_N)
    return cache


def xi_sequence(data: SpectralData, model_data: SpectralData, N: int) -> np.ndarray:
    """Per-index differences xi_n of two spectral data sets."""
    xi = np.zeros(N)
    for n in range(1, N + 1):
        for k in (1, 2):
            xi[n - 1] += (abs(data.lam(n, k) - model_data.lam(n, k)) / n ** 2
                          + abs(data.beta(n, k) - model_data.beta(n, k)) / n ** 3)
    return xi


def distance_d(data: SpectralData, other: SpectralData,
               N: int | None = None) -> float:
    """Weighted l2 distance between two spectral data sets."""
    if N is None:
        N = min(data.n_max, other.n_max)
    total = 0.0
    for n in range(1, N + 1):
        for k in (1, 2):
            term = (abs(data.lam(n, k) - other.lam(n, k)) / n
                    + abs(data.beta(n, k) - other.beta(n, k)) / n ** 2)
            total += term * term
    return float(np.sqrt(total))
