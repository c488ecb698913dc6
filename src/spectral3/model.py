"""Model problem construction and the spectral-data metrics.

The model pair is the constant-coefficient problem tau1 = theta,
sigma0 = 0 (theta the integral carried by the data).  Its sweeps are the
same RK4 map as everything else, evaluated as powers of the one step
matrix that every cell of a constant system shares (quasi._sweep).
build_model computes the model spectral data and checks it against the
given data (admissibility conditions 3 and 4, a collision being
asympt.coincide).  Conditions 1 and 2, on the model pair alone, hold by
construction: its mean is the data's, and SpectralData refuses a
non-finite theta.  The Weyl solutions Phi_k of the direct and star
systems are computed where they are first read, one weyl_batch array per
family of a request's misses, and kept for the rest of the run.  Those
read-only arrays are the only copy: ModelCache.rows, asked for one
family or one family per lambda, returns a StateRows that says where
each lambda's state sits in them, and StateRows.take, the one read,
copies states out.

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
from typing import NamedTuple

import numpy as np

from .asympt import coincide
from .errors import AdmissibilityViolationError
from .forward import (SpectralData, check_order, compute_spectral_data,
                      weyl_batch)
from .grid import CoefficientPair, Grid
from .quasi import SystemVariant

__all__ = ["ModelCache", "StateRows", "build_model", "spectral_gaps",
           "xi_sequence", "distance_d"]

# Extra model indices beyond N; verification compares the first few
# eigenvalues past the truncation against the model.
_MODEL_MARGIN = 4


class StateRows(NamedTuple):
    """Weyl states that stay in the model cache's arrays: item at[i] of
    a group (array, rows, at) is array[rows[i]], (M+1, 3), with rows and
    at int arrays; the arrays are read-only, and take is the one way to
    read them."""

    groups: tuple
    size: int

    def take(self, nodes: slice = slice(None), comps=slice(None)) -> np.ndarray:
        """The states' entries (nodes, comps) in item order: a new
        (size, nodes, 3) array, or (size, nodes) for one component."""
        shape = self.groups[0][0][:0, nodes, comps].shape[1:]
        out = np.empty((self.size,) + shape, dtype=complex)
        for array, rows, at in self.groups:
            out[at] = array[rows, nodes, comps]
        return out


@dataclass
class ModelCache:
    """Model quantities of one inverse run, with the Weyl states filled
    on first request."""

    coeffs: CoefficientPair
    model_data: SpectralData        # n <= N + margin
    phi: dict = field(default_factory=dict)        # (k, lam) -> (array, row)
    phi_star: dict = field(default_factory=dict)   # (k, lam) -> (array, row)

    @property
    def grid(self) -> Grid:
        return self.coeffs.grid

    def rows(self, variant: SystemVariant, k: int | np.ndarray,
             lams) -> StateRows:
        """Where the Weyl states Phi_k(., lam) of the variant at lams sit
        in the cache, without a copy; k is one family for all lams or
        one family per lambda.

        The misses of each family are computed in one weyl_batch call,
        in ascending k, and kept.
        """
        table = self.phi if variant is SystemVariant.DIRECT else self.phi_star
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        ks = np.broadcast_to(k, lams.shape)
        # not np.unique, whose first call imports numpy.ma
        for family in sorted(set(ks.tolist())):
            self._ensure(table, variant, lams[ks == family], family)
        groups: dict = {}
        for i, key in enumerate(zip(ks.tolist(), lams.tolist())):
            array, row = table[key]
            _, rows, at = groups.setdefault(id(array), (array, [], []))
            rows.append(row)
            at.append(i)
        if not groups:
            # no lambdas: one empty group still gives take its shape
            empty = np.empty((0, self.grid.M + 1, 3), dtype=complex)
            empty.flags.writeable = False
            groups[id(empty)] = (empty, [], [])
        return StateRows(tuple((array, np.array(rows, dtype=int),
                                np.array(at, dtype=int))
                               for array, rows, at in groups.values()),
                         len(lams))

    def _ensure(self, table: dict, variant: SystemVariant, lams, k: int) -> None:
        missing = list(dict.fromkeys(l for l in map(complex, lams)
                                     if (k, l) not in table))
        if not missing:
            return
        batch = weyl_batch(self.coeffs, np.array(missing), variant, k)
        batch.flags.writeable = False
        for i, l in enumerate(missing):
            table[(k, l)] = (batch, i)


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


def build_model(data: SpectralData, grid: Grid, N: int) -> ModelCache:
    """Construct and validate the model problem tau1 = theta constant,
    sigma0 = 0, with theta the data's mean.

    Coinciding model spectra (condition 3) and a model eigenvalue
    colliding with a given one (condition 4) are errors.  The truncation
    order N is checked first, by data.truncate, before any sweep.
    """
    data_N = data.truncate(N)
    coeffs = CoefficientPair.model(grid, data.theta)
    model_data = compute_spectral_data(coeffs, N + _MODEL_MARGIN)
    _check_spectra(data_N, model_data)
    return ModelCache(coeffs=coeffs, model_data=model_data)


def spectral_gaps(data: SpectralData, ref: SpectralData, N: int,
                  relative: bool = False) -> tuple:
    """Entrywise gaps (|lambda - lambda_ref|, |beta - beta_ref|) for
    n = 1..N, two (N, 2) arrays with column k-1 holding family k; N is
    checked against both tables by forward.check_order.

    relative divides each gap by 1 + |reference entry|.  Moduli come
    from np.hypot, which agrees bitwise with Python's abs of a complex.
    """
    check_order(N, min(data.n_max, ref.n_max))
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
    return float(np.sqrt(np.sum((dlam / n + dbeta / n ** 2) ** 2)))
