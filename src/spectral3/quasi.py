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
conjugate-flipped system is DIRECT on the pair (conj tau1, -conj sigma0).

The integrator is classical fixed-step RK4 with h = 1/M; coefficient
values at half-steps come from cubic interpolation of the grid samples.
One sweep advances L values of lambda, K solutions each, and B = J + 1
blocks: the states y^(0) = y and, for an order J >= 1, their Taylor
coefficients y^(j) = (d/dlambda)^j y / j!, j <= J, at the swept lambda.
Since A depends on lambda through c lambda in its last row alone, block
j obeys the same system plus the coupling c y0 of block j - 1 in its
last row (J = 1: the lambda-derivative).  RK4 on this augmented system
is exactly the truncated Taylor expansion in lambda of the discrete RK4
map (Taylor-mode propagation, Griewank & Walther 2008, ch. 13), so
sum_j y^(j) (lambda' - lambda)^j is the sweep at a nearby lambda' up to
the first omitted term.  The variant is per lambda: one SystemVariant
for the whole batch, or an (L,) array of c = +-1, so DIRECT and STAR
lambdas share a sweep
(the forward map sweeps both characteristic families at once).

The loop carries the Taylor coefficients in mu = c lambda instead,
z^(j) = c^j y^(j): A is linear in mu with coefficient E = e3 e1^T, so
the coupling of block j - 1 into block j is a plain add of its y0, the
same for both variants, and the result is mapped back to lambda once
per sweep by negating the odd blocks of the c = -1 lambdas.  That is
exact: negation commutes with rounding, so z^(j) is c^j y^(j) bit for
bit at every stage.  The loop holds the state component-major with its lanes
innermost, (3, B, K, lanes), so each row of the right-hand side is one
contiguous slab; c lambda is spread once per block of lambdas into a
slab of that shape, while p and q, which change every step, are rows
over the lanes broadcast over (B, K).

The samples every step reads have one home, _cells: u = -(sigma0 + tau1)
and w = sigma0 - tau1 at each cell's start, midpoint and end, in sweep
order, a cell's start its own and not the previous cell's end (at a
jump they differ).  _columns picks p and q among u and w for each
lambda's variant, in the loop and on the power path.  Each step gathers
its lanes' rows from their own cells, so no (steps, lanes) table is
built.  RK4 runs in three state-sized buffers updated in place, the
stage value, the slope and the sum of the slopes; callers get
(L, B, 3, K) per node.  The loop uses that the system is linear, as in
multiple shooting: one lane per (stretch of 32 steps, lambda) starts
from the identity, all stretches advance side by side, and their
propagators are chained onto the initial values in sweep order by the
truncated series product Y_j <- sum_{i <= j} F_i Y_{j-i} of the
propagator blocks F_i, so the Python loop runs 32 steps instead of M.
Every term of Y_j carries the sign c^j, so the product runs in mu as
well.  A stored sweep then reruns the stretches from their chained
start states and keeps every step.  A backward sweep is the same loop
over the reversed cell table (start and end swapped) with step -h.

When sigma0 and tau1 are constant on the grid (every node sample
bitwise equal to the first; the midpoint samples, which cubic
interpolation may leave one ulp off, are taken equal to the node
value), every cell applies the same step matrix

    R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,

3B x 3B and block lower-triangular for J >= 1, built from the
block-bidiagonal hA of the augmented system.  Such sweeps are the same
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

# Steps per stretch of the RK4 loop, which runs its stretches side by
# side and chains their propagators.
_STRETCH = 32

# Lambdas per block of the RK4 loop: each block runs one lane per
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
           inits: np.ndarray, with_dlambda: int = False,
           backward: bool = False, store: bool = False):
    """Batched RK4 sweep of v' = A(x, lambda) v.

    variant : a SystemVariant, or an (L,) array of c = +-1 giving each
    lambda's variant; lams : (L,) complex; inits : (3, K) shared or
    (L, 3, K) per lambda, given at x = 0 (forward) or x = 1 (backward).
    Returns the final states (L, 3, K) or, with store, the trajectory
    (M+1, L, 3, K) in node order.  with_dlambda is the order J of the
    lambda-Taylor blocks carried along (False or 0: none, True or 1:
    d/dlambda); for J >= 1 the result is the tuple of the J + 1 blocks
    y^(j)/j!, j = 0..J, each of those shapes (zero initial values for
    j >= 1).

    When sigma0 and tau1 are constant on the grid
    (CoefficientPair.is_constant) the same RK4 map is evaluated as
    powers of its step matrix (_power_sweep), otherwise on stretches of
    32 steps side by side (_loop_sweep), whose values for each lambda
    are bitwise those of a sweep of it alone, in its own variant.  The
    states of an order-J loop sweep are bitwise those of a plain one,
    and its first J' + 1 blocks those of an order-J' one.  A non-finite
    state raises IntegrationOverflowError: the loop reports the end node
    of the first stretch, in sweep order, whose chained state is not
    finite, stored or not; the power path reports the first non-finite
    node in sweep order of a stored sweep, and the end node (M forward,
    0 backward) of an end-value sweep.
    """
    order = int(with_dlambda)
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    _guard_resolution(lams, coeffs.grid.M)
    inits = np.asarray(inits, dtype=complex)
    path = _power_sweep if coeffs.is_constant else _loop_sweep
    res = path(coeffs, variant, lams, inits, order, backward, store)
    blocks = tuple(np.moveaxis(res, -3, 0))
    return blocks if order else blocks[0]


def _signs(variant, L: int) -> np.ndarray:
    """c = +-1 of each lambda, (L,) float, from a SystemVariant or an
    (L,) array of c values."""
    if isinstance(variant, SystemVariant):
        variant = variant.value
    return np.broadcast_to(np.asarray(variant, dtype=float), (L,))


def _columns(c: np.ndarray) -> np.ndarray:
    """The variant rule: the columns of p and of q in (u, w) for the (L,)
    signs c, (2, L); p = u and q = w where c > 0 (DIRECT), the other way
    round otherwise, as SystemVariant.pqc gives them."""
    return np.where(c > 0, [[0], [1]], [[1], [0]])


def _cells(coeffs: CoefficientPair, backward: bool) -> np.ndarray:
    """u = -(sigma0 + tau1) and w = sigma0 - tau1 at each cell's start,
    midpoint and end, in sweep order: (M, 3, 2), [m, k] holding (u, w)
    at sample k of cell m."""
    sigma0, tau1 = coeffs.sigma0, coeffs.tau1
    cells = np.empty((coeffs.grid.M, 3, 2), dtype=complex)
    u, w, _ = SystemVariant.DIRECT.pqc(sigma0.values, tau1.values)
    cells[:, 0, 0], cells[:, 0, 1] = u[:-1], w[:-1]
    cells[:, 2, 0], cells[:, 2, 1] = u[1:], w[1:]
    cells[:, 1, 0], cells[:, 1, 1], _ = SystemVariant.DIRECT.pqc(
        midpoint_values(sigma0), midpoint_values(tau1))
    return cells[::-1, ::-1] if backward else cells


def _stretch_cells(cells: np.ndarray) -> np.ndarray:
    """The cells of the J stretches of the RK4 loop, (steps, 3, 2J) with
    steps = min(_STRETCH, M): [i, k, j] holds u and [i, k, J + j] w at
    sample k of cell _STRETCH j + i, or of cell M - 1 past the end."""
    M = cells.shape[0]
    J, n = -(-M // _STRETCH), min(_STRETCH, M)
    at = np.minimum(_STRETCH * np.arange(J)[:, None] + np.arange(n), M - 1)
    table = np.empty((n, 3, 2, J), dtype=complex)
    table[...] = np.transpose(cells.take(at, axis=0), (1, 2, 3, 0))
    return table.reshape(n, 3, 2 * J)


def _lane_rows(table: np.ndarray, c: np.ndarray):
    """For each step, (p, q) of every lane at its start, midpoint and
    end, (J lb,) rows each, taken from the step's own cells in the table
    of _stretch_cells by one gather into buffers that the next step
    overwrites.  One lane per (stretch j, lambda l), stretch-major, l
    over the (lb,) signs c; _columns picks its p and q."""
    J = table.shape[2] // 2
    cols = (J * _columns(c)[:, None] + np.arange(J)[:, None]).reshape(2, -1)
    rows = np.empty((3,) + cols.shape, dtype=complex)
    pq = tuple(tuple(r) for r in rows)
    for step in table:
        step.take(cols, axis=1, out=rows, mode="clip")
        yield pq


def _rk4_steps(S: np.ndarray, clam: np.ndarray, h: float, rows):
    """Advance the state S (3, B, K, lanes) in place by RK4 steps of h,
    yielding the step index after each step.

    S[i] holds y^[i] and its Taylor blocks over (B, K, lanes), block j
    the coefficient of (mu' - mu)^j in mu = c lambda; lane l is one
    solution set with its own c lambda (clam[l]).  rows gives each
    step's p and q, (lanes,) each, as ((p, q) at the start node, at the
    midpoint, at the end node) of the step's own cell; one step runs per
    item, and the rows are read before the next item is drawn
    (_lane_rows gathers them from the cell table of _cells).  c
    lambda is spread once into a contiguous (B, K, lanes) slab, the
    first operand of its product; p and q change every step and are
    broadcast over (B, K).  The step runs in three state-sized buffers:
    the stage value X, the slope k and the accumulator acc of the slopes.
    Per element it evaluates p y0 + y2, c lambda y0 + q y1 (+ y0 of block
    j - 1 in block j >= 1), S + (h/2) k and
    S + (h/6)(((k1 + 2 k2) + 2 k3) + k4) in that order, so a lane's
    result depends on nothing but its own inputs.
    """
    taylor = S.shape[1] > 1
    X, k, acc = (np.empty_like(S) for _ in range(3))
    qy1 = np.empty_like(S[0])
    clam = np.broadcast_to(clam, S.shape[1:]).copy()

    def slabs(a):
        # rows 0, 1, 2; with Taylor blocks also row 0 of blocks 0..J-1,
        # which the coupling y0 reads, and row 2 of blocks 1..J, which it
        # feeds
        dl = (a[0, :-1], a[2, 1:]) if taylor else (None, None)
        return (a[0], a[1], a[2]) + dl

    sS, sX, sk, sacc = map(slabs, (S, X, k, acc))

    def rhs(pq, src, dst):
        # dst = A src: (y1, p y0 + y2, c lambda y0 + q y1 [+ y0])
        p, q = pq
        y0, y1, y2, y, _ = src
        f0, f1, f2, _, df2 = dst
        np.copyto(f0, y1)
        np.add(np.multiply(p, y0, out=f1), y2, out=f1)
        np.add(np.multiply(clam, y0, out=f2), np.multiply(q, y1, out=qy1),
               out=f2)
        if taylor:
            np.add(df2, y, out=df2)

    def stage(w, slope):
        # X = S + w slope
        np.add(S, np.multiply(w, slope, out=X), out=X)

    def add_twice(slope):
        # acc += 2 slope, overwriting slope once the stage has read it
        np.add(acc, np.multiply(2, slope, out=slope), out=acc)

    for i, (at_start, at_mid, at_end) in enumerate(rows):
        rhs(at_start, sS, sacc)                 # acc = k1
        stage(h / 2, acc)
        rhs(at_mid, sX, sk)                     # k = k2
        stage(h / 2, k)
        add_twice(k)
        rhs(at_mid, sX, sk)                     # k = k3
        stage(h, k)
        add_twice(k)
        rhs(at_end, sX, sk)                     # k = k4
        # S += (h/6) (((k1 + 2 k2) + 2 k3) + k4)
        np.add(acc, k, out=acc)
        np.add(S, np.multiply(h / 6, acc, out=acc), out=S)
        yield i


def _chain(F: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The truncated series product Y_j <- sum_{i <= j} F_i Y_{j-i} of a
    stretch propagator F (3, B, 3, L), row, block, column, lambda, and
    the states Y (3, B, K, L).  Every product F_i Y_k is formed at once,
    summed over the inner index in the order ((0 + 1) + 2), and each
    Y_j accumulates its terms in the order i = 0, 1, ..."""
    B = Y.shape[1]
    P = F[:, :, :, None, None]                  # (3, B, 3, 1, 1, L)
    # G[:, i, k] = F_i Y_k, (3, B, B, K, L)
    G = (P[:, :, 0] * Y[0] + P[:, :, 1] * Y[1]) + P[:, :, 2] * Y[2]
    out = G[:, 0]
    for i in range(1, B):
        out[:, i:] += G[:, i, :B - i]
    return out


# Overflowing states are reported by IntegrationOverflowError alone, not
# by numpy warnings on the way.
@np.errstate(over="ignore", invalid="ignore")
def _loop_sweep(coeffs: CoefficientPair, variant, lams: np.ndarray,
                inits: np.ndarray, order: int, backward: bool,
                store: bool) -> np.ndarray:
    """The RK4 loop for any coefficients: the states (L, B, 3, K), or
    with store (M+1, L, B, 3, K), B = order + 1 Taylor blocks.

    _rk4_steps runs all stretches of _STRETCH steps at once: for each
    block of _LAM_BLOCK lambdas, one lane per (stretch, lambda) reads p
    and q at the samples of its own cell (_lane_rows, from the table
    that _stretch_cells lays out once per sweep).  From the identity with
    zero Taylor blocks the lanes give every stretch propagator's blocks
    (F_0, ..., F_J), chained onto inits in sweep order by _chain, with
    the states checked for finite values after each stretch.  A stored
    sweep reruns the lanes from the chained start states and keeps every
    step; its end node is the chained end.  The lanes, the chain and the
    rerun all carry the blocks in mu = c lambda; _unfold turns the end
    states, or the stored rows, into blocks in lambda once at the end.
    A lambda's values are bitwise independent of the batch and of the
    variants of the other lambdas.
    """
    M = coeffs.grid.M
    L, K = lams.shape[0], inits.shape[-1]
    B = order + 1
    c = _signs(variant, L)
    h = -coeffs.grid.h if backward else coeffs.grid.h
    # J stretches of n steps, the last of only `last` steps; its lanes
    # run on past the end over cell M - 1 and are read at step last.
    table = _stretch_cells(_cells(coeffs, backward))
    n, J = table.shape[0], table.shape[2] // 2
    last = M - _STRETCH * (J - 1)
    blocks = [slice(l0, l0 + _LAM_BLOCK) for l0 in range(0, L, _LAM_BLOCK)]

    def steps(S, blk):
        # _rk4_steps on a block's lanes S (3, B, columns, lanes),
        # stretch-major
        cb = c[blk]
        return _rk4_steps(S, np.tile(cb * lams[blk], J), h,
                          _lane_rows(table, cb))

    # F[j] = the Taylor blocks of stretch j's propagator as (3, B, 3, L):
    # row, block, column, lambda
    F = np.empty((J, 3, B, 3, L), dtype=complex)
    for blk in blocks:
        lb = c[blk].shape[0]
        S = np.zeros((3, B, 3, J, lb), dtype=complex)
        S[:, 0] = np.eye(3)[:, :, None, None]
        S = S.reshape(3, B, 3, J * lb)
        for i in steps(S, blk):
            if i + 1 == last:
                F[-1, ..., blk] = S[..., -lb:]
        F[:-1, ..., blk] = np.moveaxis(
            S[..., :-lb].reshape(3, B, 3, J - 1, lb), 3, 0)

    # Y (3, B, K, L): row, block, column, lambda
    Y = np.zeros((3, B, K, L), dtype=complex)
    Y[:, 0] = np.transpose(np.broadcast_to(inits, (L, 3, K)), (1, 2, 0))
    # the stretches' start states, which only a stored sweep reruns from
    starts = []
    for j in range(J):
        if store:
            starts.append(Y)
        Y = _chain(F[j], Y)
        if not np.isfinite(Y[:, 0]).all():
            m = min(_STRETCH * (j + 1), M)
            raise IntegrationOverflowError(M - m if backward else m)
    out = np.ascontiguousarray(np.transpose(Y, (3, 1, 0, 2)))
    if not store:
        return _unfold(out, c)

    # The trajectory in sweep order; rows[j, i] is sample _STRETCH j + i,
    # and the rows past M that the last stretch's lanes run into are
    # dropped.
    traj = np.empty((J * n + 1, L, B, 3, K), dtype=complex)
    rows = traj[:-1].reshape(J, n, L, B, 3, K)
    starts = np.moveaxis(np.array(starts), 0, 3)    # (3, B, K, J, L)
    for blk in blocks:
        lb = c[blk].shape[0]
        S = starts[..., blk].reshape(3, B, K, J * lb)
        # S as (J, lb, B, 3, K), the layout of rows[:, i, blk]
        at = np.transpose(S.reshape(3, B, K, J, lb), (3, 4, 1, 0, 2))
        rows[:, 0, blk] = at
        for i in steps(S, blk):
            if i + 1 < n:
                rows[:, i + 1, blk] = at
    traj[M] = out
    traj = _unfold(traj[:M + 1], c)
    return traj[::-1] if backward else traj


def _unfold(res: np.ndarray, c: np.ndarray) -> np.ndarray:
    """res (..., L, B, 3, K), Taylor blocks in mu = c lambda, turned in
    place into blocks in lambda, y^(j) = c^j times block j: the odd
    blocks of the lambdas with c = -1 are negated, which is exact."""
    odd = res[..., 1::2, :, :]
    np.negative(odd, out=odd, where=(c < 0)[:, None, None, None])
    return res


def _step_matrix(p: np.ndarray, q: np.ndarray, c: np.ndarray,
                 lams: np.ndarray, h: float, order: int) -> np.ndarray:
    """The RK4 step matrices R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24
    of the constant system at each lambda, with p, q and c given per
    lambda ((L,) each): (L, 3B, 3B), B = order + 1, acting on the state
    with its Taylor blocks stacked under it.  hA is block-bidiagonal:
    hA of the system on the diagonal, and h c in the last row of each
    block under it, the coupling to the block before."""
    B = order + 1
    hA = np.zeros((lams.shape[0], 3 * B, 3 * B), dtype=complex)
    for i in range(0, 3 * B, 3):
        hA[:, i, i + 1] = hA[:, i + 1, i + 2] = h
        hA[:, i + 1, i] = h * p
        hA[:, i + 2, i] = h * c * lams
        hA[:, i + 2, i + 1] = h * q
        if i:
            hA[:, i + 2, i - 3] = h * c
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
                 inits: np.ndarray, order: int, backward: bool,
                 store: bool) -> np.ndarray:
    """_loop_sweep for constant sigma0 and tau1: every cell applies the
    same step matrix R, so the end states are R^M S_0 by binary powering
    and a stored trajectory T[m] = R^m S_0 is filled by doubling,
    T[j:2j] = R^j T[0:j].  Midpoint values are the node value: p and q
    are u and w at node 0, picked by _columns, with no cell table."""
    M = coeffs.grid.M
    L = lams.shape[0]
    B = order + 1
    c = _signs(variant, L)
    u, w, _ = SystemVariant.DIRECT.pqc(coeffs.sigma0.values[0],
                                       coeffs.tau1.values[0])
    p, q = np.array([u, w])[_columns(c)]
    h = -coeffs.grid.h if backward else coeffs.grid.h
    R = _step_matrix(p, q, c, lams, h, order)
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
