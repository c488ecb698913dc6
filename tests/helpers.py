"""Oracles and constructors that only the tests use.

characteristic_literal forms the characteristic values from literal 2x2
products, an independent cross-check of forward._char_arrays;
guess_seeds seeds every Newton entry from asympt.eigen_guess, the
reference for forward._seeds; both_families_roots searches both
families on every pair, the reference for the mirrored family 2 of
forward._roots; dlambda_newton_family steps lambda - Delta/dDelta from
one d/dlambda sweep per iteration, the reference for the order-2 Newton
of forward._newton_family; sequential_sweep takes the RK4 steps one
after another, the reference for quasi._loop_sweep; weyl_contour_reference
sums a contour of Weyl matrices from per-point sweeps, the reference for
the Taylor sweeps of forward._taylor_rows; WholeGridAssembly copies
every Weyl state of the main system out of the model cache and builds
its kernel factors over the whole grid, the reference for the
block-wise reads of inverse.assemble, whose tables it must equal bit for
bit; index_families gives k and eps of V^N from raveled (N, 2, 2)
tables, the reference for the columns of inverse.index_set;
differentiate is a fourth-order finite difference for checking
derivatives on the grid; pq_by_sign picks p and q for each lambda's
variant at node or midpoint samples, the reference for quasi._columns
and, at sequential_sweep's own samples, for quasi._cells;
from_callable, from_callables, dagger and gauge_shifted build grid
functions and coefficient pairs.
"""

from typing import NamedTuple

import numpy as np

from spectral3 import asympt, forward
from spectral3.errors import PoleHitError
from spectral3.forward import _EYE, Characteristic
from spectral3.grid import (CoefficientPair, GridFunction, _values, cumulative,
                            midpoint_values)
from spectral3.inverse import _KERNEL_SWITCH
from spectral3.quasi import SystemVariant, _rk4_steps, _signs, _sweep


def characteristic_literal(coeffs: CoefficientPair, lams, fams,
                           variant: SystemVariant = SystemVariant.DIRECT,
                           with_dlambda: bool = False) -> Characteristic:
    """forward._char_arrays from literal 2x2 products.

    One sweep of the variant, minors formed from the fundamental values
    at x = 1.  Subject to cancellation at large |lambda|; serves as an
    independent cross-check of _char_arrays, whose record it returns.
    With variant = STAR this yields the star determinants Delta*.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    first = np.broadcast_to(np.asarray(fams) == 1, lams.shape)
    res = _sweep(coeffs, variant, lams, _EYE, with_dlambda=with_dlambda)
    Y, dY = res if with_dlambda else (res, None)
    y0, y1 = Y[:, 0, :], Y[:, 1, :]

    def minor(a, b):
        return y0[:, a] * y1[:, b] - y0[:, b] * y1[:, a]

    ddelta = None
    if with_dlambda:
        z0, z1 = dY[:, 0, :], dY[:, 1, :]
        ddelta = np.where(first, -(z0[:, 1] * y1[:, 2] + y0[:, 1] * z1[:, 2]
                                   - z0[:, 2] * y1[:, 1] - y0[:, 2] * z1[:, 1]),
                          z0[:, 2])
    return Characteristic(np.where(first, -minor(1, 2), y0[:, 2]),
                          np.where(first, -minor(0, 2), y0[:, 1]),
                          np.where(first, minor(0, 1), y0[:, 0]), ddelta)


def guess_seeds(coeffs: CoefficientPair, ns, ks, theta) -> np.ndarray:
    """forward._seeds without the model: asympt.eigen_guess for every
    entry, the reference the model seeds are checked against."""
    return asympt.eigen_guess(ns, ks, theta)


def both_families_roots(coeffs: CoefficientPair, n_max: int, theta):
    """forward._roots with no mirror: one Newton search over both
    families, seeded by forward._seeds, on every pair."""
    ns = np.tile(np.arange(1, n_max + 1), 2)
    ks = np.repeat([1, 2], n_max)
    return forward._newton_family(coeffs, ks, ns,
                                  forward._seeds(coeffs, ns, ks, theta),
                                  theta)


def dlambda_newton_family(coeffs: CoefficientPair, k, ns, guesses, theta):
    """forward._newton_family with plain Newton steps: each iteration
    evaluates the active entries in one mixed d/dlambda sweep and steps
    lambda - Delta/dDelta; an entry with |Delta| <= forward._newton_tol
    stops at the lambda it has just evaluated, so the record returned
    is that evaluation's.  Failures are raised as forward raises them."""
    ns = np.asarray(ns, dtype=int)
    ks = np.broadcast_to(np.asarray(k, dtype=int), ns.shape)
    lam = np.asarray(guesses, dtype=complex).copy()
    last = Characteristic(*(np.empty_like(lam) for _ in Characteristic._fields))
    active = np.ones(lam.shape[0], dtype=bool)
    max_iter = forward._NEWTON_MAX_ITER
    vanished = np.full(lam.shape[0], max_iter)
    for it in range(max_iter):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        a = forward._char_arrays(coeffs, lam[idx], ks[idx], with_dlambda=True)
        for dst, values in zip(last, a):
            dst[idx] = values
        conv = np.abs(a.delta) <= forward._newton_tol(a.ddelta, lam[idx])
        small = (np.abs(a.ddelta) < forward._DERIV_FLOOR) & ~conv
        vanished[idx[small]] = it
        step = np.where(conv | small, 0.0,
                        a.delta / np.where(small, 1.0, a.ddelta))
        lam[idx] = lam[idx] - step
        active[idx[conv | small]] = False
    forward._raise_failures(ns, ks, lam, active, vanished, theta)
    return lam, last


def pq_by_sign(c: np.ndarray, sigma0: np.ndarray, tau1: np.ndarray) -> tuple:
    """p and q at samples of sigma0 and tau1 for each lambda's variant,
    (*samples.shape, L) each: [..., l] holds what SystemVariant.pqc
    gives the variant whose c is c[l].  The oracle's own variant rule,
    independent of quasi._columns."""
    u, w, _ = SystemVariant.DIRECT.pqc(sigma0, tau1)
    direct = c > 0
    return (np.where(direct, u[..., None], w[..., None]),
            np.where(direct, w[..., None], u[..., None]))


def sequential_sweep(coeffs: CoefficientPair, variant, lams, inits,
                     with_dlambda: int = False,
                     backward: bool = False) -> np.ndarray:
    """quasi._loop_sweep's stored trajectory (M+1, L, B, 3, K) in node
    order, B = with_dlambda + 1 Taylor blocks, from one lane per lambda
    running the M RK4 steps one after another instead of stretches side
    by side, with p and q from pq_by_sign at its own node and midpoint
    samples instead of rows gathered per step from quasi._cells, and the
    blocks turned from mu = c lambda to lambda by its own negation.  No
    finite-value check."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    inits = np.asarray(inits, dtype=complex)
    M = coeffs.grid.M
    L, K = lams.shape[0], inits.shape[-1]
    B = int(with_dlambda) + 1
    c = _signs(variant, L)
    sn, tn = coeffs.sigma0.values, coeffs.tau1.values
    sm, tm = midpoint_values(coeffs.sigma0), midpoint_values(coeffs.tau1)
    h = coeffs.grid.h
    if backward:
        sn, tn, sm, tm, h = sn[::-1], tn[::-1], sm[::-1], tm[::-1], -h
    S = np.zeros((3, B, K, L), dtype=complex)
    S[:, 0] = np.transpose(np.broadcast_to(inits, (L, 3, K)), (1, 2, 0))
    # in sweep order, written through its (3, B, K, L) view
    traj = np.empty((M + 1, L, B, 3, K), dtype=complex)
    rows = np.transpose(traj, (0, 3, 2, 4, 1))
    rows[0] = S
    (Pn, Qn), (Pm, Qm) = pq_by_sign(c, sn, tn), pq_by_sign(c, sm, tm)
    pq = zip(zip(Pn, Qn), zip(Pm, Qm), zip(Pn[1:], Qn[1:]))
    for i in _rk4_steps(S, c * lams, h, pq):
        rows[i + 1] = S
    # the steps carry block j in mu = c lambda, c^j times the lambda block
    star = c < 0
    traj[:, star, 1::2] = -traj[:, star, 1::2]
    return traj[::-1] if backward else traj


def weyl_contour_reference(coeffs: CoefficientPair, center: complex,
                           variant: SystemVariant = SystemVariant.DIRECT):
    """(A_{-1}, A_0) of forward.laurent_coefficients over
    forward.weyl_matrix at its default radius, with every contour point
    swept on its own lane: one plain sweep per family, the dual sweep
    for family 1 and the variant's own for family 2, whose top rows at
    x = 1 give the Weyl functions as in forward._char_arrays."""
    P = forward._CONTOUR_POINTS
    radius = 1e-3 * (1.0 + abs(center))
    phase = np.exp(2j * np.pi * np.arange(P) / P)
    z = center + radius * phase
    y1, y2 = (_sweep(coeffs, np.full(P, c), z, _EYE)[:, 0]
              for c in (-variant.value, variant.value))
    m = np.broadcast_to(_EYE, (P, 3, 3)).copy()
    m[:, 1, 0] = -y1[:, 1] / y1[:, 2]
    m[:, 2, 0] = y1[:, 0] / y1[:, 2]
    m[:, 2, 1] = -y2[:, 1] / y2[:, 2]
    return (radius / P * (m * phase[:, None, None]).sum(axis=0),
            m.mean(axis=0))


class WholeGridStars(NamedTuple):
    """Combined star states Z_v over the whole grid; see
    inverse.StarStates."""

    Z: np.ndarray            # (L, M+1, 3)
    lam: np.ndarray          # (L,)
    pole: np.ndarray         # (L,)  coefficient of Phi*_2 in Z_v
    regularized: np.ndarray  # (L,)  bool


class WholeGridKernel(NamedTuple):
    """Kernel factors over the whole grid; see inverse.KernelFactors."""

    Yb: np.ndarray     # (M+1, W, 3)  (y^[2], -y', y) at every node
    Zt: np.ndarray     # (M+1, 3, L)  (z, z', z^[2]) at every node
    recip: np.ndarray  # (W, L)
    ws: np.ndarray     # (P,)
    vs: np.ndarray     # (P,)
    vals: np.ndarray   # (M+1, P)


def whole_grid_states(cache, variant, ks, lams) -> np.ndarray:
    """Phi_{ks[i]}(., lams[i]) of the variant copied out of the cache,
    (L, M+1, 3): one cache request per k."""
    out = np.empty((len(lams), cache.grid.M + 1, 3), dtype=complex)
    for k in np.unique(ks):
        out[ks == k] = cache.rows(variant, int(k), lams[ks == k]).take()
    return out


def index_families(N):
    """k and eps of V^N in the index_set order, as the (N, 2, 2) tables
    [n-1, k-1, eps] raveled: the reference for the columns of
    inverse.index_set."""
    k = np.broadcast_to(np.array([1, 2])[:, None], (N, 2, 2)).ravel()
    eps = np.broadcast_to(np.array([0, 1]), (N, 2, 2)).ravel()
    return k, eps


def whole_grid_star_states(cache, data, N) -> WholeGridStars:
    """Z_v for v in V^N in the index_set order, from the entries n <= N
    of data and of the model, held over the whole grid."""
    lam = np.stack([data.lambdas[:N], cache.model_data.lambdas[:N]], axis=2)
    beta = np.stack([data.betas[:N], cache.model_data.betas[:N]], axis=2)
    k, _ = index_families(N)
    lam, beta = lam.ravel(), beta.ravel()
    Z = (np.where(k == 1, -beta, beta)[:, None, None]
         * whole_grid_states(cache, SystemVariant.STAR, 4 - k, lam))
    K = [n for n in data.K if n <= N]
    regularized = np.isin(np.arange(4 * N), 4 * np.array(K, dtype=int) - 2)
    if K:
        gamma = np.array([data.gamma[n] for n in K])
        Z[regularized] -= gamma[:, None, None] * cache.rows(
            SystemVariant.STAR, 3, lam[regularized]).take()
    return WholeGridStars(Z, lam, np.where(k == 2, beta, 0.0), regularized)


def whole_grid_kernel_factors(stars: WholeGridStars, Y, mu,
                              j) -> WholeGridKernel:
    """The factors of the kernels D(x; Z_v, Y_w) over the whole grid,
    from direct states Y (W, M+1, 3) = Phi_{j_w}(., mu_w); the near pairs
    in integral form, as in inverse._kernel_factors."""
    lam = stars.lam
    j = np.broadcast_to(j, mu.shape)
    diff = mu[:, None] - lam[None, :]
    scale = 1.0 + np.maximum(np.abs(mu)[:, None], np.abs(lam)[None, :])
    near = ~(np.abs(diff) > _KERNEL_SWITCH * scale)
    recip = np.zeros_like(diff)
    np.divide(1.0, diff, out=recip, where=~near)
    ws, vs = np.nonzero(near)
    vals = cumulative(np.transpose(stars.Z[vs, :, 0] * Y[ws, :, 0]))
    pole = (j[ws] == 2) & (stars.pole[vs] != 0)
    hit = pole & (lam[vs] == mu[ws])
    bad = np.flatnonzero(hit & ~stars.regularized[vs])
    if bad.size:
        raise PoleHitError(
            "kernel (2,2) evaluated on its pole lambda = mu = %s"
            % (lam[vs[bad[0]]],))
    add = pole & ~hit
    vals[:, add] += stars.pole[vs[add]] / (lam[vs[add]] - mu[ws[add]])
    return WholeGridKernel(
        Yb=np.transpose(Y[:, :, ::-1] * np.array([1.0, -1.0, 1.0]),
                        (1, 0, 2)),
        Zt=np.transpose(stars.Z, (1, 2, 0)),
        recip=recip, ws=ws, vs=vs, vals=vals)


def whole_grid_bracket(f: WholeGridKernel, nodes=slice(None), rows=None,
                       cols=None) -> np.ndarray:
    """D(x_m; Z_v, Y_w) as out[m, w, v] for the nodes of the slice, times
    cols[..., v] / rows[..., w] when given, from whole-grid factors."""
    Yb, Zt, vals = f.Yb[nodes], f.Zt[nodes], f.vals[nodes]
    if cols is not None:
        Yb = Yb / rows[..., :, None]
        Zt = Zt * cols[..., None, :]
        vals = vals * (cols[..., f.vs] / rows[..., f.ws])
    out = np.matmul(Yb, Zt)
    out *= f.recip
    out[:, f.ws, f.vs] = vals
    return out


class WholeGridAssembly:
    """The tables of inverse.assemble(data, cache, N) with every state
    copied out of the cache and held over the whole grid: star states Z,
    direct states Y and their kernel factors."""

    def __init__(self, data, cache, N):
        data = data.truncate(N)
        k, eps = index_families(N)
        self.stars = whole_grid_star_states(cache, data, N)
        j = k + 1
        self.Y = whole_grid_states(cache, SystemVariant.DIRECT, j,
                                   self.stars.lam)
        self.kernel = whole_grid_kernel_factors(self.stars, self.Y,
                                                self.stars.lam, j)
        self.signs = np.where(eps == 0, 1.0, -1.0)

    def node_matrices(self, nodes=slice(None), w=None) -> np.ndarray:
        """inverse.MainAssembly.node_matrices from whole-grid factors."""
        if w is None:
            w = np.ones(len(self.signs))
        A = whole_grid_bracket(self.kernel, nodes, rows=w,
                               cols=-self.signs * w)
        idx = np.arange(len(self.signs))
        A[:, idx, idx] += 1.0
        return A


def differentiate(f):
    """Fourth-order finite-difference derivative on the grid, of a
    GridFunction or of an array of nodal values."""
    v = _values(f)
    M = v.shape[0] - 1
    if M < 4:
        raise ValueError("differentiate needs at least 5 nodes")
    h = 1.0 / M
    out = np.empty(M + 1, dtype=complex)
    out[2:-2] = (v[0:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    out[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
    out[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * h)
    out[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * h)
    out[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * h)
    return GridFunction(f.grid, out) if isinstance(f, GridFunction) else out


def from_callable(grid, fn) -> GridFunction:
    """The function of x sampled at the grid nodes."""
    return GridFunction(grid, np.asarray([fn(x) for x in grid.nodes],
                                         dtype=complex))


def from_callables(grid, tau1, sigma0) -> CoefficientPair:
    """The pair sampled from two functions of x at the grid nodes."""
    return CoefficientPair(from_callable(grid, tau1),
                           from_callable(grid, sigma0))


def dagger(pair: CoefficientPair) -> CoefficientPair:
    """The conjugate-flipped pair (conj tau1, -conj sigma0), whose DIRECT
    system is the conjugate-flipped system of the pair."""
    return CoefficientPair(
        GridFunction(pair.grid, np.conj(pair.tau1.values)),
        GridFunction(pair.grid, -np.conj(pair.sigma0.values)))


def gauge_shifted(pair: CoefficientPair, c: complex) -> CoefficientPair:
    """The pair with sigma0 shifted by a constant; tau0 = sigma0' is
    unchanged."""
    return CoefficientPair(pair.tau1.copy(), pair.sigma0 + c)
