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

When sigma0 and tau1 are constant on the grid (every node sample
bitwise equal to the first; the midpoint samples, which cubic
interpolation may leave one ulp off, are taken equal to the node
value), every cell applies the same step matrix

    R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,

6x6 block lower-triangular with d/dlambda.  Such sweeps are the same
RK4 map evaluated as powers of R: R^M S_0 by binary powering for the
end states, and R^m S_0 for a stored trajectory by doubling on the
states.  Only the rounding differs from the step-by-step loop.  This is
the scaling-and-squaring idea (Moler & Van Loan 2003; Higham 2005)
applied to the RK4 step matrix instead of the exponential, so the
discretization stays that of every other sweep.
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

    When sigma0 and tau1 are constant on the grid the same RK4 map is
    evaluated as powers of its step matrix (_power_sweep), otherwise
    step by step (_loop_sweep).  A non-finite state raises
    IntegrationOverflowError: the loop checks every 32 steps and at the
    end and reports the node it checked; the power path reports the
    first non-finite node in sweep order of a stored sweep, and the end
    node (M forward, 0 backward) of an end-value sweep.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    _guard_resolution(lams, coeffs.grid.M)
    inits = np.asarray(inits, dtype=complex)
    constant = _is_constant(coeffs.sigma0.values) and _is_constant(
        coeffs.tau1.values)
    path = _power_sweep if constant else _loop_sweep
    res = path(coeffs, variant, lams, inits, with_dlambda, backward, store)
    states = res[..., 0, :, :]
    return (states, res[..., 1, :, :]) if with_dlambda else states


def _is_constant(values: np.ndarray) -> bool:
    """Every sample bitwise equal to the first."""
    bits = np.ascontiguousarray(values).view(np.uint64).reshape(-1, 2)
    return bool((bits == bits[0]).all())


def _loop_sweep(coeffs: CoefficientPair, variant: SystemVariant,
                lams: np.ndarray, inits: np.ndarray, with_dlambda: bool,
                backward: bool, store: bool) -> np.ndarray:
    """The RK4 loop for any coefficients: the states (L, B, 3, K), or
    with store (M+1, L, B, 3, K), B = 2 with d/dlambda."""
    M = coeffs.grid.M
    L = lams.shape[0]
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
    return traj if store else S


def _step_matrix(p: complex, q: complex, c: float, lams: np.ndarray,
                 h: float, with_dlambda: bool) -> np.ndarray:
    """The RK4 step matrices R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24
    of the constant system at each lambda: (L, 3B, 3B), acting on the
    state with its d/dlambda block (rows 3..5) stacked under it."""
    B = 2 if with_dlambda else 1
    hA = np.zeros((lams.shape[0], 3 * B, 3 * B), dtype=complex)
    for i in range(0, 3 * B, 3):
        hA[:, i, i + 1] = hA[:, i + 1, i + 2] = h
        hA[:, i + 1, i] = h * p
        hA[:, i + 2, i] = h * c * lams
        hA[:, i + 2, i + 1] = h * q
    if with_dlambda:
        hA[:, 5, 0] = h * c
    # Horner form: I + hA (I + hA/2 (I + hA/3 (I + hA/4))).
    eye = np.eye(3 * B)
    R = eye + hA / 4
    for j in (3, 2, 1):
        R = eye + (hA / j) @ R
    return R


def _power_sweep(coeffs: CoefficientPair, variant: SystemVariant,
                 lams: np.ndarray, inits: np.ndarray, with_dlambda: bool,
                 backward: bool, store: bool) -> np.ndarray:
    """_loop_sweep for constant sigma0 and tau1: every cell applies the
    same step matrix R, so the end states are R^M S_0 by binary powering
    and a stored trajectory T[m] = R^m S_0 is filled by doubling,
    T[j:2j] = R^j T[0:j].  Midpoint values are the node value."""
    M = coeffs.grid.M
    L = lams.shape[0]
    B = 2 if with_dlambda else 1
    p, q, c = variant.pqc(coeffs.sigma0.values[0], coeffs.tau1.values[0])
    h = -coeffs.grid.h if backward else coeffs.grid.h
    R = _step_matrix(p, q, c, lams, h, with_dlambda)
    K = inits.shape[-1]
    S0 = np.zeros((L, 3 * B, K), dtype=complex)
    S0[:, :3] = inits

    if not store:
        S, e = S0, M
        while e:
            if e & 1:
                S = R @ S
            e >>= 1
            if e:
                R = R @ R
        if not np.isfinite(S[:, :3]).all():
            raise IntegrationOverflowError(0 if backward else M)
        return S.reshape(L, B, 3, K)

    # T[m] sits in columns m K .. (m + 1) K of W, m in sweep order, so
    # each doubling step is one (3B, 3B) @ (3B, j K) product per lambda.
    W = np.empty((L, 3 * B, (M + 1) * K), dtype=complex)
    W[:, :, :K] = S0
    j = 1
    while j <= M:
        n = min(j, M + 1 - j)
        np.matmul(R, W[:, :, :n * K], out=W[:, :, j * K:(j + n) * K])
        j += n
        if j <= M:
            R = R @ R
    finite = np.isfinite(W[:, :3].reshape(L, 3, M + 1, K)).all(axis=(0, 1, 3))
    if not finite.all():
        m = int(np.argmin(finite))
        raise IntegrationOverflowError(M - m if backward else m)
    traj = np.moveaxis(W.reshape(L, B, 3, M + 1, K), 3, 0)
    return traj[::-1] if backward else traj


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
