"""Truncated main equation of the inverse problem and the
reconstruction of the coefficients from spectral data.

The pipeline is: build_model (model.py) -> assemble -> solve_phi ->
reconstruct -> verify_weyl (or verify_spectral on the pair).  The unknowns are the functions
phi_v(x) indexed by v = (n, k, eps) with n <= N, eps = 0 marking the
given data and eps = 1 the model data; for each grid node the system

    phi_{v0} - sum_v (-1)^eps(v) G_{v,v0} phi_v = tilde_phi_{v0}

is solved for phi with one LU factorization per node; the differentiated
system has the same matrix, so phi' = A^-1 tilde_phi' + s phi with the
scalar s = sum_v (-1)^eps(v) eta_v phi_v.  The Weyl states stay in the
model cache's arrays, their only copy: assemble records which array and
row hold each index's direct and star state, with beta_v and the gamma_n
of K, and keeps only the small kernel tables (1 / (mu - lambda) and the
near-pair values).  solve_phi reads the states one block of nodes at a
time, builds that block's node matrices and right-hand sides from them,
and so never holds the (M+1, 4N, 4N) stack of all matrices nor a second
copy of a state table.  Only the LAPACK calls run node by node; the work
around them runs over blocks of nodes.  Every kernel G_{v,v0}, eta_v and
Phi^N value comes from
one combined star state per index, Z_v = (-1)^k beta_v Phi*_{4-k}(.,
lambda_v) (with -gamma_n Phi*_3 added on the coinciding set K), paired
with a direct Weyl state by one kernel routine: the Lagrange bracket over
mu - lambda for all pairs at once, or its integral form near coinciding
arguments, which reads eta and component 0 of the direct states.  Each
variant's states come from one cache request, with one family per index.

Conditioning note: phi_v and the kernel columns grow or decay like
exp(rate x) with rate the relevant real part of the cube roots of
lambda_v.  On the eigenvalue rays the growth of the unknown cancels the
decay of its kernel column exactly, so a diagonal similarity with
weights exp(rate_v x) makes the scaled matrix entries O(1); the LU and
the condition estimate run on the scaled matrix.  The weights act on the
O(4N) kernel factors of each node, before their product, so the scaled
matrix is built directly and never rescaled entry by entry.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import NamedTuple

import numpy as np

from .asympt import root_rates
from .errors import PoleHitError, SingularSystemError
from .forward import SpectralData, compute_spectral_data
from .grid import CoefficientPair, Grid, GridFunction, cumulative, l2_norm, \
    w2m1_distance
from .model import (ModelCache, StateRows, build_model, distance_d,
                    spectral_gaps, xi_sequence)
from .quasi import SystemVariant

__all__ = [
    "index_set",
    "MainAssembly",
    "assemble",
    "solve_phi",
    "ReconstructionResult",
    "reconstruct",
    "run_inverse",
    "verify_spectral",
    "verify_weyl",
    "stability_experiment",
]

# Bracket -> integral kernel form switch when lambda and mu nearly agree.
_KERNEL_SWITCH = 1e-6

_RCOND_FLOOR = 1e-13

# Nodes per block of the node solve.  A block's node matrices are built
# already scaled from weighted kernel factors into one buffer of
# 8 x (4N)^2 complex entries (1.2 MB at N = 24), allocated once per
# solve_phi, and factorized one at a time; with one LU factor they are
# the only copies of the matrices the solve holds.  16 nodes were no
# faster and raised the inverse peak RSS by 3.4 MB.
_NODE_BLOCK = 8

# Nodes per block of the sums over v, s in solve_phi and the three series
# of reconstruct, a multiple of _NODE_BLOCK: a block's eta and eta' are
# (4N, 64, 2) complex entries (196 KB at N = 24), an eighth of the
# whole-grid table.  Each block reads them from the model cache's arrays,
# about 35 us a read at N = 8, so blocks of _NODE_BLOCK nodes would cost
# about 2 ms more per inverse run.
_SUM_BLOCK = 64

# Breach threshold of the verify_weyl checks.
_WEYL_TOL = 1e-6

# Breach threshold of both relative gaps of verify_spectral.
_SPECTRAL_RTOL = 1e-3


def _node_blocks(start: int, stop: int, size: int) -> list:
    """The slices of size nodes covering the nodes start to stop - 1, the
    last one ragged."""
    return [slice(i, min(i + size, stop)) for i in range(start, stop, size)]


def _sum_v(terms: np.ndarray) -> np.ndarray:
    """The sum over v of (..., 4N, nodes) terms, added in index order in
    place of the terms.

    accumulate adds row after row for any number of nodes, as sum(axis=0)
    does over the whole grid; sum(axis=0) of a one-node block, such as
    the last of M + 1 = 513 nodes, would add pairwise instead."""
    return np.add.accumulate(terms, axis=-2, out=terms)[..., -1, :]


def index_set(N: int) -> np.ndarray:
    """V^N as (4N, 3) int rows (n, k, eps) in the fixed order: ascending
    n, then k, then eps."""
    return np.array([(n, k, e) for n in range(1, N + 1) for k in (1, 2)
                     for e in (0, 1)], dtype=int).reshape(-1, 3)


# ---------------------------------------------------------------------------
# Two-point kernels


class StarStates(NamedTuple):
    """Combined star states Z_v of the indices of V^N, left in the model
    cache's arrays and formed on request for a slice of nodes.

    Z_v = coef_v Phi*_{4-k}(., lam_v), with coef_v = -beta_v for k = 1
    and beta_v for k = 2; on the coinciding set K the term
    -gamma_n Phi*_3(., lam_v) is added and the (2, 2) pole is
    regularized.  eta_v = Z_v[:, 0] and eta_v' = Z_v[:, 1].
    """

    states: StateRows        # Phi*_{4-k}(., lam_v)
    coef: np.ndarray         # (L,)
    lam: np.ndarray          # (L,)
    pole: np.ndarray         # (L,)  coefficient of Phi*_2 in Z_v
    regularized: np.ndarray  # (L,)  bool
    gamma: np.ndarray        # (R,)  gamma_n of the regularized rows
    gamma_states: StateRows  # Phi*_3(., lam_v) of the regularized rows

    def take(self, nodes: slice = slice(None), comps=slice(None)) -> np.ndarray:
        """Z_v at the nodes of the slice, (L, nodes, 3), or (L, nodes)
        for one component."""
        Z = self.states.take(nodes, comps)
        lead = (slice(None),) + (None,) * (Z.ndim - 1)
        # the products are written in place, so that their operand order
        # does not depend on the size of the read
        np.multiply(self.coef[lead], Z, out=Z)
        if self.gamma.size:
            G = self.gamma_states.take(nodes, comps)
            np.multiply(self.gamma[lead], G, out=G)
            Z[self.regularized] -= G
        return Z


def _star_states(cache: ModelCache, data: SpectralData,
                 V: np.ndarray) -> StarStates:
    """Z_v for the rows v of V, lam_v and beta_v read from data where
    eps = 0 and from the model where eps = 1."""
    n, k, eps = V.T
    at, given = (n - 1, k - 1), eps == 0
    lam = np.where(given, data.lambdas[at], cache.model_data.lambdas[at])
    beta = np.where(given, data.betas[at], cache.model_data.betas[at])
    states = cache.rows(SystemVariant.STAR, 4 - k, lam)
    # the given data's family 2 rows on K
    regularized = (k == 2) & given & np.isin(n, data.K)
    gamma = [data.gamma[m] for m in n[regularized].tolist()]
    return StarStates(states, np.where(k == 1, -beta, beta), lam,
                      np.where(k == 2, beta, 0.0), regularized,
                      np.array(gamma, dtype=complex),
                      cache.rows(SystemVariant.STAR, 3, lam[regularized]))


class KernelFactors(NamedTuple):
    """The node-wise factors of the two-point kernels D(x; Z_v, Y_w),
    from which _bracket builds out[m, w, v] for any slice of nodes."""

    Y: StateRows        # (W,) direct states Y_w
    stars: StarStates   # (L,) star states Z_v
    recip: np.ndarray   # (W, L)  1 / (mu_w - lam_v), or 0 on the near pairs
    ws: np.ndarray      # (P,)  near pairs (w, v)
    vs: np.ndarray      # (P,)
    vals: np.ndarray    # (M+1, P)  their integral-form values


def _kernel_factors(stars: StarStates, eta: np.ndarray, Y: StateRows,
                    mu: np.ndarray, j) -> KernelFactors:
    """Factors of the two-point kernels D(x; Z_v, Y_w) for every pair.

    Y holds direct states Phi_{j_w}(., mu_w), and eta the (L, M+1)
    values eta_v = Z_v[:, 0] of the stars.  Bracket form
    (Z^[2] Y - Z' Y' + Z Y^[2]) / (mu_w - lam_v); pairs with nearly equal
    arguments take the integral form cumulative(eta_v Y_w[:, 0]) instead,
    plus the explicit pole pole_v / (lam_v - mu_w) when j_w = 2.
    Evaluating that pole at lam_v = mu_w raises unless row v is
    regularized.
    """
    lam = stars.lam
    j = np.broadcast_to(j, mu.shape)
    diff = mu[:, None] - lam[None, :]
    scale = 1.0 + np.maximum(np.abs(mu)[:, None], np.abs(lam)[None, :])
    near = ~(np.abs(diff) > _KERNEL_SWITCH * scale)
    recip = np.zeros_like(diff)
    np.divide(1.0, diff, out=recip, where=~near)

    ws, vs = np.nonzero(near)
    vals = eta[vs]
    vals *= Y.take(comps=0)[ws]
    vals = cumulative(np.transpose(vals))
    pole = (j[ws] == 2) & (stars.pole[vs] != 0)
    hit = pole & (lam[vs] == mu[ws])
    bad = np.flatnonzero(hit & ~stars.regularized[vs])
    if bad.size:
        raise PoleHitError(
            "kernel (2,2) evaluated on its pole lambda = mu = %s"
            % (lam[vs[bad[0]]],))
    add = pole & ~hit
    vals[:, add] += stars.pole[vs[add]] / (lam[vs[add]] - mu[ws[add]])
    return KernelFactors(Y=Y, stars=stars, recip=recip, ws=ws, vs=vs,
                         vals=vals)


# (y^[2], -y', y): the components of Y in reverse order, signed
_REVERSE = slice(None, None, -1)
_BRACKET_SIGNS = np.array([1.0, -1.0, 1.0])


def _bracket(f: KernelFactors, nodes: slice = slice(None), rows=None,
             cols=None, out=None) -> np.ndarray:
    """D(x_m; Z_v, Y_w) as out[m, w, v] for the nodes m of the slice,
    times cols[m, v] / rows[m, w] when these (nodes or 1, W or L) tables
    are given: one batched product over the nodes, times 1 / (mu - lam),
    with the near pairs overwritten by their integral form.  The slice's
    Y and Z factors are read from the model cache's arrays, O(W + L)
    entries per node, and rows and cols scale them, never the (W, L)
    product.  A near-pair value is multiplied by the ratio cols / rows
    itself, which is exact where the two agree, as on the diagonal of a
    similarity.  The product is written into out, a C-contiguous
    (nodes, W, L) complex array, when one is given."""
    Yb = f.Y.take(nodes, _REVERSE)    # (W, nodes, 3)
    Yb *= _BRACKET_SIGNS
    Zt = f.stars.take(nodes)          # (L, nodes, 3)
    vals = f.vals[nodes]
    if cols is not None:
        Yb /= rows.T[:, :, None]
        Zt *= cols.T[:, :, None]
        vals = vals * (cols[..., f.vs] / rows[..., f.ws])
    out = np.matmul(np.transpose(Yb, (1, 0, 2)), np.transpose(Zt, (1, 2, 0)),
                    out=out)
    out *= f.recip
    out[:, f.ws, f.vs] = vals
    return out


# ---------------------------------------------------------------------------
# Assembly of the truncated system


@dataclass
class MainAssembly:
    """Tables of the truncated main system, with the star states and the
    model cache they were built from.

    The Weyl states stay in the model cache's arrays: the kernel factors
    and the star states record where each index's states sit, and the
    tables over the grid are formed from them on each access, for a
    slice of nodes (tilde_states, node_matrices, stars.take) or for all
    of them (A).  solve_phi and reconstruct read eta and eta' one block
    of nodes at a time, from stars.take; the whole-grid eta and deta,
    which only verify_weyl reads, are formed once, on first access, and
    kept read-only.
    """

    cache: ModelCache
    grid: Grid
    N: int
    V: np.ndarray           # (4N, 3)  the rows (n, k, eps) of index_set
    data: SpectralData      # the given data truncated to n <= N
    stars: StarStates
    kernel: KernelFactors   # of D(x; Z_v, tilde phi_v0)
    signs: np.ndarray       # (4N,)  (-1)^eps
    rates: np.ndarray       # (4N,)  equilibration exponents

    def tilde_states(self, nodes: slice = slice(None)) -> tuple:
        """(tilde_phi, tilde_phi') at the nodes of the slice, two
        (4N, nodes) views of one new array."""
        tilde = self.kernel.Y.take(nodes, slice(0, 2))
        return tilde[:, :, 0], tilde[:, :, 1]

    @cached_property
    def _eta_deta(self) -> np.ndarray:
        """eta and deta, (4N, M+1, 2), from one read of the star states."""
        Z = self.stars.take(comps=slice(0, 2))
        Z.flags.writeable = False
        return Z

    @property
    def eta(self) -> np.ndarray:
        """(4N, M+1), read-only"""
        return self._eta_deta[:, :, 0]

    @property
    def deta(self) -> np.ndarray:
        """(4N, M+1), read-only"""
        return self._eta_deta[:, :, 1]

    def node_matrices(self, nodes: slice = slice(None),
                      w: np.ndarray | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
        """A[m, v0, v] = delta - (-1)^eps(v) D(x_m; Z_v, tilde phi_v0)
        for the nodes m of the slice, (nodes, 4N, 4N), written into out
        when it is given.  Given weights w (nodes, 4N), the equilibrated
        w_v A[m, v0, v] / w_v0 instead: the weights and signs scale the
        kernel factors before their product."""
        if w is None:
            w = np.ones((1, len(self.V)))
        A = _bracket(self.kernel, nodes, rows=w, cols=-self.signs * w,
                     out=out)
        idx = np.arange(len(self.V))
        A[:, idx, idx] += 1.0
        return A

    @property
    def A(self) -> np.ndarray:
        """All node matrices, (M+1, 4N, 4N); built anew on each access."""
        return self.node_matrices()


def assemble(data: SpectralData, cache: ModelCache, N: int) -> MainAssembly:
    """Record where the states of the truncated main system sit in the
    model cache, and build its kernel factors and tables; the node
    matrices are built from them block by block in solve_phi."""
    data_N = data.truncate(N)
    V = index_set(N)
    stars = _star_states(cache, data_N, V)
    _, k, eps = V.T
    j = k + 1
    Y = cache.rows(SystemVariant.DIRECT, j, stars.lam)
    rates = root_rates(stars.lam)[np.arange(len(V)), j - 1]
    return MainAssembly(cache=cache, grid=cache.grid, N=N, V=V, data=data_N,
                        stars=stars,
                        kernel=_kernel_factors(stars, stars.take(comps=0), Y,
                                               stars.lam, j),
                        signs=(-1.0) ** eps, rates=rates)


# ---------------------------------------------------------------------------
# Node-wise solve


@cache
def _lapack_routines():
    """zgetrf, zgecon and zgetrs, the node solve's LAPACK routines.

    They are read from scipy's compiled LAPACK wrappers, the extension
    scipy.linalg._flapack, loaded on its own so that scipy/linalg/
    __init__.py never runs: importing scipy.linalg to reach them would
    load about 310 more modules, taking about 27 MB of resident memory
    and 0.15 s of start-up, where the extension alone takes about 2.5 MB
    and 0.02 s.
    The extension enters sys.modules as it loads, so a later import of
    scipy.linalg reuses it and its routines.  Where that private module
    lives is scipy's own business; if it is not found, the public
    get_lapack_funcs gives the same routines.  Loaded on the first solve
    only, so runs that never solve the main system load no LAPACK.
    """
    import scipy

    name = "scipy.linalg._flapack"
    spec = PathFinder.find_spec(
        name, [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
    if spec is None:
        from scipy.linalg import get_lapack_funcs
        return tuple(get_lapack_funcs(("getrf", "gecon", "getrs"),
                                      dtype=np.complex128))
    flapack = module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.zgetrf, flapack.zgecon, flapack.zgetrs


def solve_phi(assembly: MainAssembly):
    """Solve for phi and phi' at every node; returns (phi, dphi, diag).

    At node x_m the scaled matrix Ahat = A(x_m) (w_v / w_v0), with
    w = exp(rates x_m), is LU-factorized once; its reciprocal condition
    number (1-norm) must stay above _RCOND_FLOOR.  The factors solve
    Ahat xhat = tilde_phi / w and Ahat yhat = tilde_phi' / w, one column
    each; phi = w xhat and, as the differentiated system A phi' =
    tilde_phi' + tilde_phi s with s = sum_v (-1)^eps(v) eta_v phi_v has
    the same matrix, phi' = w yhat + s phi.  diag holds the smallest
    rcond, the first node where it occurs, its inverse, and the largest
    relative residual of the phi solve.

    The nodes run in blocks of _NODE_BLOCK, and each block forms its own
    w, tilde_phi / w and tilde_phi' / w from the states in the model
    cache: assembly.node_matrices builds the block's Ahat already scaled,
    the weights, signs and 1 / (mu - lam) applied to the kernel factors,
    into one matrix buffer that every block reuses, so one block of
    matrices and one LU factorization exist at a time.  The 1-norms, into
    one reused buffer, and the LAPACK calls run node by node, the
    residuals as array operations on a block.  Once a span of _SUM_BLOCK
    nodes is solved, s and s phi are formed there, from the span's own
    read of eta.  xhat and yhat are written straight into phi and phi',
    the only (4N, M+1) tables the solve holds.
    """
    grid = assembly.grid
    M = grid.M
    size = len(assembly.V)
    # the solutions xhat and yhat go straight into the outputs, node-major
    # views of phi and dphi, and are scaled by w block by block
    phi = np.empty((size, M + 1), dtype=complex)
    dphi = np.empty_like(phi)
    xhat, yhat = phi.T, dphi.T
    getrf, gecon, getrs = _lapack_routines()
    rcond_min, rcond_node = np.inf, -1
    residual_max = 0.0
    x = grid.nodes[:, None]
    signs = assembly.signs[:, None]
    matrices = np.empty((_NODE_BLOCK, size, size), dtype=complex)
    moduli = np.empty((size, size))
    for span in _node_blocks(0, M + 1, _SUM_BLOCK):
        for block in _node_blocks(span.start, span.stop, _NODE_BLOCK):
            # node-major (nodes, 4N) rows, contiguous along v
            w = np.exp(x[block] * assembly.rates)
            tilde_phi, tilde_dphi = assembly.tilde_states(block)
            b1 = np.divide(tilde_phi.T, w, order="C")
            b2 = np.divide(tilde_dphi.T, w, order="C")
            Ahat = assembly.node_matrices(block, w,
                                          matrices[:block.stop - block.start])
            for i, m in enumerate(range(block.start, block.stop)):
                # column sums over the non-contiguous axis add sequentially
                anorm = np.abs(Ahat[i], out=moduli).sum(axis=0).max()
                lu, piv, _ = getrf(Ahat[i])
                rcond = float(gecon(lu, anorm)[0])
                if not math.isfinite(rcond) or rcond < _RCOND_FLOOR:
                    raise SingularSystemError(m, rcond)
                if rcond < rcond_min:
                    rcond_min, rcond_node = rcond, m
                # one column per getrs: a two-column call took 35x as long
                xhat[m] = getrs(lu, piv, b1[i])[0]
                yhat[m] = getrs(lu, piv, b2[i])[0]
            xb = np.ascontiguousarray(xhat[block])
            # einsum, not matmul: a stacked matrix-vector matmul calls
            # BLAS gemv, which OpenBLAS splits over two threads from
            # (4N)^2 = 4096 on, and those calls stall whenever another
            # process holds a core
            Ax = np.einsum("mij,mj->mi", Ahat, xb)
            res = (np.abs(Ax - b1).max(axis=1)
                   / (1.0 + np.abs(b1).max(axis=1)))
            residual_max = max(residual_max, float(res.max()))
            xhat[block] *= w
            yhat[block] *= w
        # s at the span's nodes, from its own read of eta
        s = assembly.stars.take(span, comps=0)
        np.multiply(signs, s, out=s)
        s *= phi[:, span]
        dphi[:, span] += _sum_v(s) * phi[:, span]
    diag = {"rcond_min": rcond_min, "rcond_node": rcond_node,
            "cond_max": 1.0 / rcond_min, "residual_max": residual_max}
    return phi, dphi, diag


# ---------------------------------------------------------------------------
# Reconstruction


@dataclass
class ReconstructionResult:
    """Recovered coefficients, the solved phi tables and their assembly.

    tau0N is carried distributionally through sigma0N (its derivative);
    consumers work with sigma0N directly.
    """

    tau1N: GridFunction
    sigma0N: GridFunction
    phi: np.ndarray
    dphi: np.ndarray
    assembly: MainAssembly
    diagnostics: dict = field(default_factory=dict)

    @property
    def coeffs(self) -> CoefficientPair:
        return CoefficientPair(self.tau1N, self.sigma0N)


def reconstruct(assembly: MainAssembly, phi: np.ndarray, dphi: np.ndarray,
                solve_diag: dict | None = None) -> ReconstructionResult:
    """Recover (tau1, sigma0) from the phi tables solved on the assembly.

    The three series are summed over V^N in the fixed index_set order,
    one block of _SUM_BLOCK nodes at a time, each from its own read of
    eta and eta' (one star-state read of two components).
    """
    cache, grid, N = assembly.cache, assembly.grid, assembly.N
    signs = assembly.signs[:, None]
    sums = np.empty((3, grid.M + 1), dtype=complex)
    for block in _node_blocks(0, grid.M + 1, _SUM_BLOCK):
        Z = assembly.stars.take(block, comps=slice(0, 2))
        eta, deta = Z[:, :, 0], Z[:, :, 1]
        p, dp = phi[:, block], dphi[:, block]
        deriv = dp * eta
        sums[:, block] = _sum_v(
            signs * np.stack([deriv + p * deta, deriv, p * eta]))
    sum_full, sum_deriv, sum_plain = sums

    tau1N = cache.coeffs.tau1.values - 1.5 * sum_full
    hat = -1.5 * sum_full
    sigma0N = (cache.coeffs.sigma0.values - hat - 3.0 * sum_deriv
               - 2.0 * cumulative(GridFunction(grid, hat * sum_plain)).values)

    xi = xi_sequence(assembly.data, cache.model_data, N)
    diag = {
        "xi": [float(t) for t in xi],
        "d": distance_d(assembly.data, cache.model_data, N),
        "xi_weighted": float(np.sum((np.arange(1, N + 1) * xi) ** 2)),
    }
    if solve_diag:
        diag.update(solve_diag)
    return ReconstructionResult(GridFunction(grid, tau1N),
                                GridFunction(grid, sigma0N),
                                phi, dphi, assembly, diag)


def run_inverse(data: SpectralData, grid: Grid, N: int,
                cache: ModelCache | None = None) -> ReconstructionResult:
    """Convenience driver: model -> assemble -> solve -> reconstruct."""
    if cache is None:
        cache = build_model(data, grid, N)
    assembly = assemble(data, cache, N)
    phi, dphi, diag = solve_phi(assembly)
    return reconstruct(assembly, phi, dphi, solve_diag=diag)


# ---------------------------------------------------------------------------
# Verification


def verify_spectral(coeffs: CoefficientPair, data: SpectralData,
                    N: int) -> dict:
    """Rerun the forward map on a reconstructed pair and compare
    eigenvalues and weight numbers, n <= N against the data and the rest
    against the model build_model makes for the data, with breaches at
    _SPECTRAL_RTOL."""
    model_data = build_model(data, coeffs.tau1.grid, N).model_data
    n_max = model_data.n_max
    rec = compute_spectral_data(coeffs, n_max)
    # n <= N against the data, the model's indices past N against it
    dl, db = spectral_gaps(rec, data, N, relative=True)
    tl, tb = spectral_gaps(rec, model_data, n_max, relative=True)
    dl, db = np.vstack([dl, tl[N:]]), np.vstack([db, tb[N:]])
    entries = [{"n": n, "k": k, "lambda_rel": float(dl[n - 1, k - 1]),
                "beta_rel": float(db[n - 1, k - 1]),
                "reference": "data" if n <= N else "model"}
               for n in range(1, n_max + 1) for k in (1, 2)]
    lam_max, beta_max = float(dl[:N].max()), float(db[:N].max())
    report = {
        "mode": "spectral",
        "lambda_rel_max": lam_max,
        "beta_rel_max": beta_max,
        "tail_lambda_rel_max": float(dl[N:].max()),
        "K_match": ([n for n in rec.K if n <= N]
                    == [n for n in data.K if n <= N]),
        "entries": entries,
        "breaches": [e for e in entries
                     if e["reference"] == "data"
                     and max(e["lambda_rel"], e["beta_rel"])
                     > _SPECTRAL_RTOL],
    }
    report["pass"] = bool(lam_max <= _SPECTRAL_RTOL
                          and beta_max <= _SPECTRAL_RTOL
                          and report["K_match"])
    return report


def _phiN_tables(result: ReconstructionResult, k0: int, lams):
    """(Phi^N_{k0}, (Phi^N_{k0})') nodal values at each lambda of lams,
    two (W, M+1) arrays, from the phi tables and the assembly of the
    reconstruction.  The kernels D(x; Z_v, Phi_{k0}) are built and
    contracted with phi one block of _NODE_BLOCK nodes at a time, so the
    (M+1, W, 4N) stack is never held."""
    a = result.assembly
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    tilde = a.cache.rows(SystemVariant.DIRECT, k0, lams)
    f = _kernel_factors(a.stars, a.eta, tilde, lams, k0)
    signs = a.signs[:, None]
    sphi, sdphi = signs * result.phi, signs * result.dphi
    s = (sphi * a.eta).sum(axis=0)
    vals, dvals = tilde.take(comps=0), tilde.take(comps=1)
    # the last term of Phi^N', formed before vals is summed into
    tail = vals * s
    for block in _node_blocks(0, a.grid.M + 1, _NODE_BLOCK):
        P = _bracket(f, block)                # (nodes, W, 4N)
        vals[:, block] += np.einsum("vm,mwv->wm", sphi[:, block], P)
        dvals[:, block] += np.einsum("vm,mwv->wm", sdphi[:, block], P)
    dvals += tail
    return vals, dvals


def verify_weyl(result: ReconstructionResult) -> dict:
    """Check the Weyl solutions Phi^N of a reconstruction against
    _WEYL_TOL: interpolation of phi_v at the lam_v, and boundary and
    normalization conditions.  Three tables: Phi^N_2 and Phi^N_3, each at
    its 2N lam_v and a probe lambda away from both spectra, and Phi^N_1 at
    the probe.  Coinciding pairs are not supported."""
    a = result.assembly
    if a.data.K:
        raise ValueError("weyl verification requires data without "
                         "coinciding eigenvalue pairs")
    n, k, eps = a.V.T
    j = k + 1
    lam_probe = 0.7j * abs(a.cache.model_data.lam(1, 1))
    checks: dict = {"mode": "weyl"}
    breaches = []
    interp = np.empty(len(a.V))
    probe = {}
    for k0 in (2, 3):
        rows = j == k0
        vals, dvals = _phiN_tables(result, k0,
                                   np.append(a.stars.lam[rows], lam_probe))
        probe[k0] = vals[-1], dvals[-1]
        # Interpolation: Phi^N_{k+1}(x, lam_v) == phi_v(x).
        vals, phi = vals[:-1], result.phi[rows]
        interp[rows] = (np.abs(vals - phi).max(axis=1)
                        / (1.0 + np.abs(phi).max(axis=1)))
        # Boundary conditions at x = 1: Phi^N_2 vanishes there on the
        # first data spectrum (the eps = 0 rows), Phi^N_3 on the second.
        vals = vals[eps[rows] == 0]
        rel = np.abs(vals[:, -1]) / (1.0 + np.abs(vals).max(axis=1))
        check = "phi%d_terminal" % k0
        breaches += [{"check": check, "n": m, "value": r}
                     for m, r in zip(n[rows & (eps == 0)].tolist(), rel)
                     if r > _WEYL_TOL]
        checks[check + "_max"] = rel.max()

    breaches += [{"check": "interpolation", "v": tuple(v), "value": r}
                 for v, r in zip(a.V.tolist(), interp) if r > _WEYL_TOL]
    checks["interpolation_max"] = interp.max()

    # Initial normalization and the first Weyl solution at the probe,
    # away from both spectra.
    (v2, d2), (v3, d3) = probe[2], probe[3]
    checks["phi2_origin"] = abs(v2[0])
    checks["phi2_origin_slope"] = abs(d2[0] - 1.0)
    checks["phi3_origin"] = abs(v3[0])
    checks["phi3_origin_slope"] = abs(d3[0])
    (v1,), (d1,) = _phiN_tables(result, 1, lam_probe)
    checks["phi1_terminal"] = abs(v1[-1]) / (1.0 + np.abs(v1).max())
    checks["phi1_terminal_slope"] = abs(d1[-1]) / (1.0 + np.abs(d1).max())
    for key in ("phi2_origin", "phi2_origin_slope", "phi3_origin",
                "phi3_origin_slope", "phi1_terminal",
                "phi1_terminal_slope"):
        if checks[key] > _WEYL_TOL:
            breaches.append({"check": key, "value": checks[key]})
    checks["breaches"] = breaches
    checks["pass"] = not breaches
    return checks


# ---------------------------------------------------------------------------
# Stability experiment


def _perturb(data: SpectralData, entries, delta: float) -> SpectralData:
    tables = np.stack([data.lambdas, data.betas])
    at = [(("lambda", "beta").index(which), n - 1, k - 1)
          for n, k, which in entries]
    np.add.at(tables, tuple(np.array(at, dtype=int).reshape(-1, 3).T), delta)
    return SpectralData(data.theta, *tables, data.K, data.gamma)


def stability_experiment(data: SpectralData, grid: Grid, N: int,
                         entries=((1, 1, "beta"),), deltas=None) -> list:
    """Reconstruction error versus data perturbation size.

    Perturbs the chosen (lambda, beta) entries by delta for the halving
    ladder 1e-2, 5e-3, 2.5e-3, 1.25e-3 (or an explicit deltas list of
    finite steps, zero and negative ones included), reconstructs each,
    and tabulates the data distance d, the coefficient distances against
    the unperturbed reconstruction, and their ratios (empirical stability
    constants).
    """
    data_N = data.truncate(N)
    if data_N.K:
        raise ValueError("stability experiment requires data with no "
                         "coinciding eigenvalue pairs at n <= N=%d" % N)
    for n, k, which in entries:
        if which not in ("lambda", "beta"):
            raise ValueError("perturbation field must be 'lambda' or 'beta'")
        if not 1 <= n <= N or k not in (1, 2):
            raise ValueError("perturbation entry (n=%s, k=%s) is outside "
                             "1 <= n <= N=%d, k in {1, 2}" % (n, k, N))
    if deltas is None:
        deltas = [1e-2 / 2 ** j for j in range(4)]
    else:
        deltas = [float(d) for d in deltas]
        if not np.isfinite(deltas).all():
            raise ValueError("perturbation sizes must be finite, got %s"
                             % deltas)
    cache = build_model(data, grid, N)

    base = run_inverse(data_N, grid, N, cache=cache)
    rows = [{"delta": 0.0, "d": 0.0, "tau1_l2": 0.0, "sigma0_w2m1": 0.0,
             "tau1_ratio": None, "sigma0_ratio": None, "status": "ok"}]

    def job(delta: float) -> dict:
        pert = _perturb(data_N, entries, delta)
        dd = distance_d(pert, data_N, N)
        try:
            res = run_inverse(pert, grid, N, cache=cache)
        except SingularSystemError as exc:
            return {"delta": delta, "d": dd,
                    "tau1_l2": None, "sigma0_w2m1": None,
                    "tau1_ratio": None, "sigma0_ratio": None,
                    "status": "singular(node=%d, rcond=%.3g)"
                              % (exc.node, exc.rcond)}
        t_err = l2_norm(res.tau1N - base.tau1N)
        s_err = w2m1_distance(res.sigma0N, base.sigma0N)
        return {"delta": delta, "d": dd, "tau1_l2": t_err,
                "sigma0_w2m1": s_err,
                "tau1_ratio": t_err / dd if dd else None,
                "sigma0_ratio": s_err / dd if dd else None,
                "status": "ok"}

    rows.extend(job(d) for d in deltas)
    return rows
