"""First-order systems realizing the third-order equation through
quasi-derivatives.

The equation y''' + (tau1 y)' + tau1 y' + tau0 y = lambda y with
tau0 = sigma0' is regularized by the quasi-derivatives

    y^[0] = y,
    y^[1] = y',
    y^[2] = y'' + (sigma0 + tau1) y,

under which the state v = (y, y', y^[2]) satisfies v' = A(x, lambda) v
with a matrix containing only the integrable functions sigma0, tau1:

    A = [[0, 1, 0], [p, 0, 1], [c lambda, q, 0]].

Two variants share this shape and differ only in (p, q, c):

    DIRECT   p = -(sigma0 + tau1), q = sigma0 - tau1,        c = +1
    STAR     p = sigma0 - tau1,    q = -(sigma0 + tau1),     c = -1

STAR realizes the adjoint-type equation whose solutions pair with the
direct ones in the Lagrange bracket.  A useful structural fact exploited
upstream: the 2x2 minors (wedge) of two DIRECT solutions evolve under
the STAR system and vice versa, which is how the characteristic
determinants are integrated without catastrophic cancellation.  The
direct system of the conjugate-flipped pair is DIRECT on
CoefficientPair.dagger().

The integrator is classical fixed-step RK4 with h = 1/M; coefficient
values at half-steps come from cubic interpolation of the grid samples.
One sweep advances a single state array of shape (L, B, 3, K): L values
of lambda, K solutions each, and B = 1 for the states alone or B = 2
with their lambda-derivatives, which obey the same system plus the
coupling c y in the last row.  RK4 on this augmented system is exactly
the lambda-derivative of the discrete RK4 map.  A backward sweep is the
same forward loop over the reversed node and midpoint samples with
step -h.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import IntegrationOverflowError, ResolutionGuardError
from .grid import CoefficientPair, Grid, midpoint_values, _interp_cubic

__all__ = ["SystemVariant", "Trajectory", "system_matrix", "integrate_ivp",
           "fundamental_solutions"]

# Oscillation resolution guard: refuse |lambda|^(1/3) beyond this fraction
# of the number of grid cells.
_RESOLUTION_FACTOR = 0.6

_FINITE_CHECK_STRIDE = 32


class SystemVariant(Enum):
    """The two systems of the table above; the value is c."""

    DIRECT = 1.0
    STAR = -1.0

    def pqc(self, sigma0, tau1):
        """(p, q, c) from values of sigma0 and tau1 (scalars or arrays)."""
        u, w = -(sigma0 + tau1), sigma0 - tau1
        p, q = (u, w) if self is SystemVariant.DIRECT else (w, u)
        return p, q, self.value


@dataclass
class Trajectory:
    """Quasi-derivative states (y, y', y^[2]) along the grid, and
    optionally their derivatives with respect to lambda."""

    grid: Grid
    variant: SystemVariant
    lam: complex
    states: np.ndarray            # (M+1, 3)
    dstates: np.ndarray | None = None

    @property
    def y(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def y1(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def y2(self) -> np.ndarray:
        return self.states[:, 2]


def system_matrix(coeffs: CoefficientPair, variant: SystemVariant,
                  lam: complex, x: float) -> np.ndarray:
    """The 3x3 system matrix A(x, lambda) of the requested variant,
    with coefficients evaluated off-node by cubic interpolation."""
    p, q, c = variant.pqc(_interp_cubic(coeffs.sigma0.values, x),
                          _interp_cubic(coeffs.tau1.values, x))
    return np.array([[0.0, 1.0, 0.0],
                     [p, 0.0, 1.0],
                     [c * lam, q, 0.0]], dtype=complex)


def _guard_resolution(lams: np.ndarray, M: int) -> None:
    rho = np.abs(lams) ** (1.0 / 3.0)
    if rho.size and float(rho.max()) > _RESOLUTION_FACTOR * M:
        raise ResolutionGuardError(
            "|lambda|^(1/3) = %.3g exceeds the resolution guard %.3g for M = %d"
            % (float(rho.max()), _RESOLUTION_FACTOR * M, M)
        )


def _sweep(coeffs: CoefficientPair, variant: SystemVariant, lams: np.ndarray,
           inits: np.ndarray, with_dlambda: bool = False,
           backward: bool = False, store: bool = False):
    """Batched RK4 sweep of v' = A(x, lambda) v.

    lams : (L,) complex; inits : (3, K) shared or (L, 3, K) per lambda,
    given at x = 0 (forward) or x = 1 (backward).  Returns the final
    states (L, 3, K) or, with store, the trajectory (M+1, L, 3, K) in
    node order.  With with_dlambda the same shapes are returned
    additionally for d/dlambda of the states (zero initial values).
    """
    M = coeffs.grid.M
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    L = lams.shape[0]
    _guard_resolution(lams, M)
    # p, q at the nodes and the cell midpoints.
    pn, qn, c = variant.pqc(coeffs.sigma0.values, coeffs.tau1.values)
    pm, qm, _ = variant.pqc(midpoint_values(coeffs.sigma0),
                            midpoint_values(coeffs.tau1))
    # Step m runs from sample m to m + 1 of these arrays, which a
    # backward sweep reverses; nodes maps sample index to grid node.
    nodes, h = np.arange(M + 1), coeffs.grid.h
    if backward:
        pn, pm, qn, qm = pn[::-1], pm[::-1], qn[::-1], qm[::-1]
        nodes, h = nodes[::-1], -h
    clam = (c * lams).reshape(L, 1, 1)

    inits = np.asarray(inits, dtype=complex)
    S = np.zeros((L, 2 if with_dlambda else 1) + inits.shape[-2:],
                 dtype=complex)
    S[:, 0] = inits

    def rhs(p, q, S):
        dS = np.empty_like(S)
        dS[:, :, 0] = S[:, :, 1]
        dS[:, :, 1] = p * S[:, :, 0] + S[:, :, 2]
        dS[:, :, 2] = clam * S[:, :, 0] + q * S[:, :, 1]
        if with_dlambda:
            dS[:, 1, 2] += c * S[:, 0, 0]
        return dS

    if store:
        traj = np.empty((M + 1,) + S.shape, dtype=complex)
        traj[nodes[0]] = S
    for m in range(M):
        k1 = rhs(pn[m], qn[m], S)
        k2 = rhs(pm[m], qm[m], S + (h / 2) * k1)
        k3 = rhs(pm[m], qm[m], S + (h / 2) * k2)
        k4 = rhs(pn[m + 1], qn[m + 1], S + h * k3)
        S = S + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if store:
            traj[nodes[m + 1]] = S
        if m % _FINITE_CHECK_STRIDE == _FINITE_CHECK_STRIDE - 1:
            if not np.isfinite(S[:, 0]).all():
                raise IntegrationOverflowError(int(nodes[m + 1]))

    if not np.isfinite(S[:, 0]).all():
        raise IntegrationOverflowError(int(nodes[M]))
    res = traj if store else S
    states = res[..., 0, :, :]
    return (states, res[..., 1, :, :]) if with_dlambda else states


def _trajectories(coeffs: CoefficientPair, variant: SystemVariant,
                  lam: complex, inits, with_dlambda: bool) -> list:
    """One Trajectory per column of inits (3, K), forward from x = 0."""
    res = _sweep(coeffs, variant, np.array([lam]), inits,
                 with_dlambda=with_dlambda, store=True)
    out, dout = res if with_dlambda else (res, None)
    return [Trajectory(coeffs.grid, variant, complex(lam), out[:, 0, :, k],
                       None if dout is None else dout[:, 0, :, k])
            for k in range(out.shape[-1])]


def integrate_ivp(coeffs: CoefficientPair, variant: SystemVariant, lam: complex,
                  init, with_dlambda: bool = False) -> Trajectory:
    """Integrate one initial-value problem across [0, 1].

    init is the quasi-derivative state (y, y', y^[2]) at x = 0.  With
    with_dlambda the 6-dimensional augmented system is integrated and
    the trajectory carries d/dlambda of the state as well (zero initial
    conditions for the derivative block).
    """
    init = np.asarray(init, dtype=complex).reshape(3, 1)
    return _trajectories(coeffs, variant, lam, init, with_dlambda)[0]


def fundamental_solutions(coeffs: CoefficientPair, variant: SystemVariant,
                          lam: complex, with_dlambda: bool = False):
    """The three fundamental solutions C_1, C_2, C_3 of the variant,
    normalized by C_k^[j-1](0) = delta_{jk} in quasi-derivatives."""
    return tuple(_trajectories(coeffs, variant, lam,
                               np.eye(3, dtype=complex), with_dlambda))
