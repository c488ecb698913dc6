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
One sweep advances L values of lambda, K solutions each, and B = 1 for
the states alone or B = 2 with their lambda-derivatives, which obey the
same system plus the coupling c y in the last row.  RK4 on this
augmented system is exactly the lambda-derivative of the discrete RK4
map.  The variant is per lambda: one SystemVariant for the whole batch,
or an (L,) array of c = +-1, so DIRECT and STAR lambdas share a sweep
(the forward map sweeps both characteristic families at once).  The
loop holds the state component-major with its lanes innermost,
(3, B, K, lanes), so each row of the right-hand side is one contiguous
slab; p, q, c lambda and c are rows over the lanes, broadcast over
(B, K).  It updates stage and slope buffers in place; callers get
(L, B, 3, K) per node.  A stored sweep has one lane per lambda and runs
the M steps in order.  A sweep for end values only uses that the system
is linear: its end state is the product of the propagators of the
grid's stretches of 32 steps, as in multiple shooting.  One lane per
(stretch, lambda) starts from the identity, all stretches advance side
by side, and their propagators are then chained onto the initial values
in sweep order, so the Python loop runs 32 steps instead of M.  A
backward sweep is the same loop over the reversed node and midpoint
samples with step -h.

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

from enum import Enum

import numpy as np

from .errors import IntegrationOverflowError, ResolutionGuardError
from .grid import CoefficientPair, midpoint_values

__all__ = ["SystemVariant"]

# Oscillation resolution guard: refuse |lambda|^(1/3) beyond this fraction
# of the number of grid cells.
_RESOLUTION_FACTOR = 0.6

# Steps per stretch of the RK4 loop: a stored sweep checks its states for
# finite values once per stretch, an end-value sweep runs its stretches
# side by side and chains their propagators.
_STRETCH = 32

# Lambdas per block of an end-value sweep: each block runs one lane per
# (stretch, lambda), 512 lanes at M = 512.
_LAM_BLOCK = 32


class SystemVariant(Enum):
    """The two systems of the table above; the value is c."""

    DIRECT = 1.0
    STAR = -1.0

    def pqc(self, sigma0, tau1):
        """(p, q, c) from values of sigma0 and tau1 (scalars or arrays)."""
        u, w = -(sigma0 + tau1), sigma0 - tau1
        p, q = (u, w) if self is SystemVariant.DIRECT else (w, u)
        return p, q, self.value


def _guard_resolution(lams: np.ndarray, M: int) -> None:
    rho = np.abs(lams) ** (1.0 / 3.0)
    if rho.size and float(rho.max()) > _RESOLUTION_FACTOR * M:
        raise ResolutionGuardError(
            "|lambda|^(1/3) = %.3g exceeds the resolution guard %.3g for M = %d"
            % (float(rho.max()), _RESOLUTION_FACTOR * M, M)
        )


def _sweep(coeffs: CoefficientPair, variant, lams: np.ndarray,
           inits: np.ndarray, with_dlambda: bool = False,
           backward: bool = False, store: bool = False):
    """Batched RK4 sweep of v' = A(x, lambda) v.

    variant : a SystemVariant, or an (L,) array of c = +-1 giving each
    lambda's variant; lams : (L,) complex; inits : (3, K) shared or
    (L, 3, K) per lambda, given at x = 0 (forward) or x = 1 (backward).
    Returns the final states (L, 3, K) or, with store, the trajectory
    (M+1, L, 3, K) in node order.  With with_dlambda the same shapes are
    returned additionally for d/dlambda of the states (zero initial
    values).

    When sigma0 and tau1 are constant on the grid the same RK4 map is
    evaluated as powers of its step matrix (_power_sweep), otherwise
    step by step on a component-major state (_loop_sweep), whose values
    for each lambda are bitwise those of a sweep of it alone, in its
    own variant.  Its end values come from chained stretch propagators
    and agree with the end of a stored sweep to rounding.  A non-finite
    state raises IntegrationOverflowError: the loop checks the states
    at every 32nd step in sweep order and at the end (an end-value
    sweep its chained states after each stretch) and reports the first
    node it found non-finite; the power path reports the first non-finite
    node in sweep order of a stored sweep, and the end node (M forward,
    0 backward) of an end-value sweep.
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


def _signs(variant, L: int) -> np.ndarray:
    """c = +-1 of each lambda, (L,) float, from a SystemVariant or an
    (L,) array of c values."""
    if isinstance(variant, SystemVariant):
        variant = variant.value
    return np.broadcast_to(np.asarray(variant, dtype=float), (L,))


def _pq(c: np.ndarray, sigma0: np.ndarray, tau1: np.ndarray) -> tuple:
    """p and q at samples of sigma0 and tau1 for each lambda's variant,
    (*samples.shape, L) each: [..., l] holds what SystemVariant.pqc
    gives the variant whose c is c[l]."""
    u, w, _ = SystemVariant.DIRECT.pqc(sigma0, tau1)
    direct = c > 0
    return (np.where(direct, u[..., None], w[..., None]),
            np.where(direct, w[..., None], u[..., None]))


def _rk4_steps(S: np.ndarray, clam: np.ndarray, cc: np.ndarray, h: float,
               at_nodes: tuple, at_mids: tuple):
    """Advance the state S (3, B, K, lanes) in place by RK4 steps of h,
    yielding the step index after each step.

    S[i] holds y^[i] (and d/dlambda y^[i], B = 2) over (B, K, lanes);
    lane j is one solution set with its own c lambda (clam[j]) and
    c (cc[j]); at_nodes = (Pn, Qn) holds p and q at the step ends,
    (steps + 1, lanes) each, and at_mids = (Pm, Qm) at the midpoints,
    (steps, lanes).  Every factor is broadcast over (B, K).  Per element
    the step evaluates p y0 + y2, c lambda y0 + q y1 (+ c y0 in the
    d/dlambda block), S + (h/2) k and S + (h/6)(((k1 + 2 k2) + 2 k3) + k4)
    in that order, so a lane's result depends on nothing but its own
    inputs.
    """
    with_dlambda = S.shape[1] == 2
    Pn, Qn = at_nodes
    Pm, Qm = at_mids
    # X is the stage value and k1..k4 the slopes, all updated in place.
    X, k1, k2, k3, k4 = (np.empty_like(S) for _ in range(5))
    qy1 = np.empty_like(S[0])
    cy0 = np.empty_like(S[0, 0])

    def slabs(a):
        # rows 0, 1, 2; with d/dlambda also the y part of row 0, which the
        # coupling c y reads, and the d/dlambda part of row 2, which it
        # feeds
        dl = (a[0, 0], a[2, 1]) if with_dlambda else (None, None)
        return (a[0], a[1], a[2]) + dl

    sS, sX, s1, s2, s3, s4 = map(slabs, (S, X, k1, k2, k3, k4))

    def rhs(p, q, src, dst):
        # dst = A src: (y1, p y0 + y2, c lambda y0 + q y1 [+ c y0])
        y0, y1, y2, y, _ = src
        f0, f1, f2, _, df2 = dst
        np.copyto(f0, y1)
        np.add(np.multiply(p, y0, out=f1), y2, out=f1)
        np.add(np.multiply(clam, y0, out=f2), np.multiply(q, y1, out=qy1),
               out=f2)
        if with_dlambda:
            np.add(df2, np.multiply(cc, y, out=cy0), out=df2)

    def stage(w, k):
        # X = S + w k
        np.add(S, np.multiply(w, k, out=X), out=X)

    for i in range(Pm.shape[0]):
        rhs(Pn[i], Qn[i], sS, s1)
        stage(h / 2, k1)
        rhs(Pm[i], Qm[i], sX, s2)
        stage(h / 2, k2)
        rhs(Pm[i], Qm[i], sX, s3)
        stage(h, k3)
        rhs(Pn[i + 1], Qn[i + 1], sX, s4)
        # S += (h/6) (((k1 + 2 k2) + 2 k3) + k4)
        np.add(k1, np.multiply(2, k2, out=k2), out=k1)
        np.add(k1, np.multiply(2, k3, out=k3), out=k1)
        np.add(k1, k4, out=k1)
        np.add(S, np.multiply(h / 6, k1, out=k1), out=S)
        yield i


def _apply(P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """P V per lambda, P (3, 3, L), V (3, K, L), summed over the inner
    index in the order ((0 + 1) + 2)."""
    return (P[:, 0, None] * V[0] + P[:, 1, None] * V[1]) + P[:, 2, None] * V[2]


# Overflowing states are reported by IntegrationOverflowError alone, not
# by numpy warnings on the way.
@np.errstate(over="ignore", invalid="ignore")
def _loop_sweep(coeffs: CoefficientPair, variant, lams: np.ndarray,
                inits: np.ndarray, with_dlambda: bool, backward: bool,
                store: bool) -> np.ndarray:
    """The RK4 loop for any coefficients: the states (L, B, 3, K), or
    with store (M+1, L, B, 3, K), B = 2 with d/dlambda.

    The state is held as (3, B, K, lanes) and advanced by _rk4_steps.
    A stored sweep has one lane per lambda and runs the M steps one
    after another, checking the states for finite values every _STRETCH
    steps and at the end.  An end-value sweep runs all stretches of
    _STRETCH steps at once: for each block of _LAM_BLOCK lambdas, one
    lane per (stretch, lambda) starts from the identity with zero
    d/dlambda data and reads p and q at its own stretch's samples, so
    _STRETCH steps give every stretch propagator (Phi, Phi').  They are
    then chained onto inits in sweep order, Y <- Phi Y and
    dY <- Phi dY + Phi' Y, checking Y for finite values after each
    stretch.  Either way a lambda's values are bitwise independent of
    the batch and of the variants of the other lambdas.
    """
    M = coeffs.grid.M
    L, K = lams.shape[0], inits.shape[-1]
    B = 2 if with_dlambda else 1
    c = _signs(variant, L)
    # sigma0, tau1 at the nodes and the cell midpoints.  Step m runs from
    # sample m to m + 1 of these arrays, which a backward sweep reverses;
    # nodes maps sample index to grid node.
    sn, tn = coeffs.sigma0.values, coeffs.tau1.values
    sm, tm = midpoint_values(coeffs.sigma0), midpoint_values(coeffs.tau1)
    nodes, h = np.arange(M + 1), coeffs.grid.h
    if backward:
        sn, tn, sm, tm = sn[::-1], tn[::-1], sm[::-1], tm[::-1]
        nodes, h = nodes[::-1], -h

    def check(Y, m):
        # the states after step m of the sweep
        if not np.isfinite(Y).all():
            raise IntegrationOverflowError(int(nodes[m]))

    if store:
        S = np.zeros((3, B, K, L), dtype=complex)
        S[:, 0] = np.transpose(np.broadcast_to(inits, (L, 3, K)), (1, 2, 0))
        # (M+1, L, B, 3, K), written through its (3, B, K, L) view
        traj = np.empty((M + 1, L, B, 3, K), dtype=complex)
        traj_rows = np.transpose(traj, (0, 3, 2, 4, 1))
        traj_rows[nodes[0]] = S
        for i in _rk4_steps(S, c * lams, c.astype(complex), h,
                            _pq(c, sn, tn), _pq(c, sm, tm)):
            traj_rows[nodes[i + 1]] = S
            if (i + 1) % _STRETCH == 0 or i + 1 == M:
                check(S[:, 0], i + 1)
        return traj

    # J stretches of n steps, the last of only `last` steps; its lanes
    # run on past the end over the end samples and are read at step last.
    J = -(-M // _STRETCH)
    n = min(_STRETCH, M)
    last = M - _STRETCH * (J - 1)
    first = _STRETCH * np.arange(J)
    at_n = np.minimum(first + np.arange(n + 1)[:, None], M)       # (n+1, J)
    at_m = np.minimum(first + np.arange(n)[:, None], M - 1)       # (n, J)
    sn, tn, sm, tm = sn[at_n], tn[at_n], sm[at_m], tm[at_m]
    # F[j] = (Phi, Phi') of stretch j as (3, B, 3, L): row, block,
    # column, lambda
    F = np.empty((J, 3, B, 3, L), dtype=complex)

    def lanes(pq):
        # (steps, J, lambdas) -> (steps, lanes), stretch-major as the state
        return tuple(a.reshape(a.shape[0], -1) for a in pq)

    for l0 in range(0, L, _LAM_BLOCK):
        blk = slice(l0, l0 + _LAM_BLOCK)
        cb = c[blk]
        lb = cb.shape[0]
        S = np.zeros((3, B, 3, J, lb), dtype=complex)
        S[:, 0] = np.eye(3)[:, :, None, None]
        S = S.reshape(3, B, 3, J * lb)
        for i in _rk4_steps(S, np.tile(cb * lams[blk], J),
                            np.tile(cb.astype(complex), J), h,
                            lanes(_pq(cb, sn, tn)), lanes(_pq(cb, sm, tm))):
            if i + 1 == last:
                F[-1, ..., blk] = S[..., -lb:]
        F[:-1, ..., blk] = np.moveaxis(
            S[..., :-lb].reshape(3, B, 3, J - 1, lb), 3, 0)

    Y = np.transpose(np.broadcast_to(inits, (L, 3, K)), (1, 2, 0))
    dY = np.zeros_like(Y)
    for j in range(J):
        Phi = F[j, :, 0]
        if with_dlambda:
            dY = _apply(Phi, dY) + _apply(F[j, :, 1], Y)
        Y = _apply(Phi, Y)
        check(Y, min(_STRETCH * (j + 1), M))
    out = np.stack((Y, dY)[:B])                             # (B, 3, K, L)
    return np.ascontiguousarray(np.transpose(out, (3, 0, 1, 2)))


def _step_matrix(p: np.ndarray, q: np.ndarray, c: np.ndarray,
                 lams: np.ndarray, h: float,
                 with_dlambda: bool) -> np.ndarray:
    """The RK4 step matrices R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24
    of the constant system at each lambda, with p, q and c given per
    lambda ((L,) each): (L, 3B, 3B), acting on the state with its
    d/dlambda block (rows 3..5) stacked under it."""
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


# Overflowing powers of R are reported by IntegrationOverflowError alone,
# not by numpy warnings on the way.
@np.errstate(over="ignore", invalid="ignore")
def _power_sweep(coeffs: CoefficientPair, variant, lams: np.ndarray,
                 inits: np.ndarray, with_dlambda: bool, backward: bool,
                 store: bool) -> np.ndarray:
    """_loop_sweep for constant sigma0 and tau1: every cell applies the
    same step matrix R, so the end states are R^M S_0 by binary powering
    and a stored trajectory T[m] = R^m S_0 is filled by doubling,
    T[j:2j] = R^j T[0:j].  Midpoint values are the node value."""
    M = coeffs.grid.M
    L = lams.shape[0]
    B = 2 if with_dlambda else 1
    c = _signs(variant, L)
    p, q = _pq(c, coeffs.sigma0.values[:1], coeffs.tau1.values[:1])
    h = -coeffs.grid.h if backward else coeffs.grid.h
    R = _step_matrix(p[0], q[0], c, lams, h, with_dlambda)
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
