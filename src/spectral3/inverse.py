"""Truncated main equation of the inverse problem and the
reconstruction of the coefficients from spectral data.

The pipeline is: build_model (model.py) -> assemble -> solve_phi ->
reconstruct -> verify_weyl (or verify_spectral on the pair).  The unknowns are the functions
phi_v(x) indexed by v = (n, k, eps) with n <= N, eps = 0 marking the
given data and eps = 1 the model data; for each grid node the system

    phi_{v0} - sum_v (-1)^eps(v) G_{v,v0} phi_v = tilde_phi_{v0}

is solved for phi with one LU factorization per node; the same factors
solve the differentiated system for phi'.  assemble keeps only the small
kernel factors; solve_phi builds the node matrices from them one block of
nodes at a time, so the (M+1, 4N, 4N) stack of all of them is never held.
Only the LAPACK calls run node by node; the work around them runs over
blocks of nodes.  Every kernel G_{v,v0}, eta_v and Phi^N value comes from
one combined star state per index, Z_v = (-1)^k beta_v Phi*_{4-k}(.,
lambda_v) (with -gamma_n Phi*_3 added on the coinciding set K), paired
with a direct Weyl state by one kernel routine: the Lagrange bracket over
mu - lambda for all pairs at once, or its integral form near coinciding
arguments.

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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .asympt import root_rates
from .errors import PoleHitError, SingularSystemError
from .forward import SpectralData, compute_spectral_data
from .grid import CoefficientPair, Grid, GridFunction, cumulative, l2_norm, \
    w2m1_distance
from .model import (ModelCache, build_model, distance_d, spectral_gaps,
                    xi_sequence)
from .quasi import SystemVariant

__all__ = [
    "IndexV",
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

# Nodes per block of solve_phi.  A block's node matrices are built
# already scaled from weighted kernel factors and factorized, 2 x 8 x
# (4N)^2 complex entries (2.4 MB at N = 24); they are the only copy of
# the matrices the solve holds.  16 nodes were no faster and raised the
# inverse peak RSS by 3.4 MB.
_NODE_BLOCK = 8

# Breach threshold of the verify_weyl checks.
_WEYL_TOL = 1e-6


class IndexV(NamedTuple):
    n: int
    k: int
    eps: int


def index_set(N: int) -> list:
    """V^N in the fixed order: ascending n, then k, then eps."""
    return [IndexV(n, k, e)
            for n in range(1, N + 1) for k in (1, 2) for e in (0, 1)]


# ---------------------------------------------------------------------------
# Two-point kernels


class StarStates(NamedTuple):
    """Combined star states Z_v of the indices of V^N.

    Z_v = -beta_v Phi*_3(., lam_v) for k = 1 and beta_v Phi*_2(., lam_v)
    for k = 2; on the coinciding set K the term -gamma_n Phi*_3 is added
    and the (2, 2) pole is regularized.  eta_v = Z_v[:, 0] and
    eta_v' = Z_v[:, 1].
    """

    Z: np.ndarray            # (L, M+1, 3)
    lam: np.ndarray          # (L,)
    pole: np.ndarray         # (L,)  coefficient of Phi*_2 in Z_v
    regularized: np.ndarray  # (L,)  bool


def _states_at(cache: ModelCache, variant: SystemVariant, ks: np.ndarray,
               lams: np.ndarray) -> np.ndarray:
    """Phi_{ks[i]}(., lams[i]) of the variant: one cache request per k."""
    out = np.empty((len(lams), cache.grid.M + 1, 3), dtype=complex)
    for k in np.unique(ks):
        out[ks == k] = cache.states(variant, int(k), lams[ks == k])
    return out


def _star_states(cache: ModelCache, data: SpectralData, N: int) -> StarStates:
    """Z_v for v in V^N in the index_set order, from the entries n <= N
    of data and of the model."""
    # (N, 2, 2) tables [n-1, k-1, eps], raveled in the index_set order
    lam = np.stack([data.lambdas[:N], cache.model_data.lambdas[:N]], axis=2)
    beta = np.stack([data.betas[:N], cache.model_data.betas[:N]], axis=2)
    k = np.broadcast_to(np.array([1, 2])[:, None], lam.shape).ravel()
    lam, beta = lam.ravel(), beta.ravel()
    Z = (np.where(k == 1, -beta, beta)[:, None, None]
         * _states_at(cache, SystemVariant.STAR, 4 - k, lam))
    # the given data's family 2 rows on K: v = (n, 2, 0) sits at 4n - 2
    K = [n for n in data.K if n <= N]
    regularized = np.isin(np.arange(4 * N), 4 * np.array(K, dtype=int) - 2)
    if K:
        gamma = np.array([data.gamma[n] for n in K])
        Z[regularized] -= gamma[:, None, None] * cache.states(
            SystemVariant.STAR, 3, lam[regularized])
    return StarStates(Z, lam, np.where(k == 2, beta, 0.0), regularized)


class KernelFactors(NamedTuple):
    """The node-wise factors of the two-point kernels D(x; Z_v, Y_w),
    from which _bracket builds out[m, w, v] for any slice of nodes."""

    Yb: np.ndarray    # (M+1, W, 3)  (y^[2], -y', y) at every node
    Zt: np.ndarray    # (M+1, 3, L)  (z, z', z^[2]) at every node
    recip: np.ndarray  # (W, L)  1 / (mu_w - lam_v), or 0 on the near pairs
    ws: np.ndarray    # (P,)  near pairs (w, v)
    vs: np.ndarray    # (P,)
    vals: np.ndarray  # (M+1, P)  their integral-form values


def _kernel_factors(stars: StarStates, Y: np.ndarray, mu: np.ndarray,
                    j) -> KernelFactors:
    """Factors of the two-point kernels D(x; Z_v, Y_w) for every pair.

    Y (W, M+1, 3) holds direct states Phi_{j_w}(., mu_w).  Bracket form
    (Z^[2] Y - Z' Y' + Z Y^[2]) / (mu_w - lam_v); pairs with nearly equal
    arguments take the integral form cumulative(Z Y) instead, plus the
    explicit pole pole_v / (lam_v - mu_w) when j_w = 2.  Evaluating that
    pole at lam_v = mu_w raises unless row v is regularized.
    """
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
    return KernelFactors(
        Yb=np.transpose(Y[:, :, ::-1] * np.array([1.0, -1.0, 1.0]),
                        (1, 0, 2)),
        Zt=np.transpose(stars.Z, (1, 2, 0)),
        recip=recip, ws=ws, vs=vs, vals=vals)


def _bracket(f: KernelFactors, nodes: slice = slice(None), rows=None,
             cols=None) -> np.ndarray:
    """D(x_m; Z_v, Y_w) as out[m, w, v] for the nodes m of the slice,
    times cols[..., v] / rows[..., w] when these are given: one batched
    product over the nodes, times 1 / (mu - lam), with the near pairs
    overwritten by their integral form.  rows and cols scale the Yb and
    Zt factors of the slice, O(W + L) entries per node, never the (W, L)
    product.  A near-pair value is multiplied by the ratio cols / rows
    itself, which is exact where the two agree, as on the diagonal of a
    similarity."""
    Yb, Zt, vals = f.Yb[nodes], f.Zt[nodes], f.vals[nodes]
    if cols is not None:
        Yb = Yb / rows[..., :, None]
        Zt = Zt * cols[..., None, :]
        vals = vals * (cols[..., f.vs] / rows[..., f.ws])
    out = np.matmul(Yb, Zt)
    out *= f.recip
    out[:, f.ws, f.vs] = vals
    return out


# ---------------------------------------------------------------------------
# Assembly of the truncated system


@dataclass
class MainAssembly:
    """Tables of the truncated main system, with the star states and the
    model cache they were built from.

    The node matrices A[m, v0, v] are not stored: node_matrices builds
    them for a slice of nodes from the kernel factors, and A builds all
    M+1 of them on request.
    """

    cache: ModelCache
    grid: Grid
    N: int
    V: list
    data: SpectralData      # the given data truncated to n <= N
    stars: StarStates
    kernel: KernelFactors   # of D(x; Z_v, tilde phi_v0)
    tilde_phi: np.ndarray   # (4N, M+1)
    tilde_dphi: np.ndarray  # (4N, M+1)
    signs: np.ndarray       # (4N,)  (-1)^eps
    rates: np.ndarray       # (4N,)  equilibration exponents

    @property
    def eta(self) -> np.ndarray:
        return self.stars.Z[:, :, 0]

    @property
    def deta(self) -> np.ndarray:
        return self.stars.Z[:, :, 1]

    def node_matrices(self, nodes: slice = slice(None),
                      w: np.ndarray | None = None) -> np.ndarray:
        """A[m, v0, v] = delta - (-1)^eps(v) D(x_m; Z_v, tilde phi_v0)
        for the nodes m of the slice, (nodes, 4N, 4N).  Given weights w
        (nodes, 4N), the equilibrated w_v A[m, v0, v] / w_v0 instead: the
        weights and signs scale the kernel factors before their
        product."""
        if w is None:
            w = np.ones(len(self.V))
        A = _bracket(self.kernel, nodes, rows=w, cols=-self.signs * w)
        idx = np.arange(len(self.V))
        A[:, idx, idx] += 1.0
        return A

    @property
    def A(self) -> np.ndarray:
        """All node matrices, (M+1, 4N, 4N); built anew on each access."""
        return self.node_matrices()


def _signs(V: list) -> np.ndarray:
    return np.array([1.0 if v.eps == 0 else -1.0 for v in V])


def assemble(data: SpectralData, cache: ModelCache, N: int) -> MainAssembly:
    """Build the states, kernel factors and tables of the truncated main
    system on the grid of the model cache; the node matrices are built
    from them block by block in solve_phi."""
    data_N = data.truncate(N)
    V = index_set(N)
    stars = _star_states(cache, data_N, N)
    j = np.array([v.k + 1 for v in V])
    Y = _states_at(cache, SystemVariant.DIRECT, j, stars.lam)
    rates = root_rates(stars.lam)[np.arange(len(V)), j - 1]
    return MainAssembly(cache=cache, grid=cache.grid, N=N, V=V, data=data_N,
                        stars=stars,
                        kernel=_kernel_factors(stars, Y, stars.lam, j),
                        tilde_phi=Y[:, :, 0], tilde_dphi=Y[:, :, 1],
                        signs=_signs(V), rates=rates)


# ---------------------------------------------------------------------------
# Node-wise solve


def solve_phi(assembly: MainAssembly):
    """Solve for phi and phi' at every node; returns (phi, dphi, diag).

    At node x_m the scaled matrix Ahat = A(x_m) (w_v / w_v0), with
    w = exp(rates x_m), is LU-factorized once; its reciprocal condition
    number (1-norm) must stay above _RCOND_FLOOR.  The same factors solve
    Ahat xhat = tilde_phi / w, giving phi = w xhat, and then the
    differentiated system A phi' = tilde_phi' + tilde_phi s with
    s = sum_v (-1)^eps(v) eta_v phi_v.  diag holds the smallest rcond, the
    first node where it occurs, its inverse, and the largest relative
    residual of the phi solve.

    w, tilde_phi / w and tilde_phi' / w are (M+1, 4N) arrays over the
    whole grid, and the solutions xhat are written into two more.  The
    nodes run in blocks of _NODE_BLOCK: assembly.node_matrices builds
    each block's Ahat already scaled, the weights, signs and 1 / (mu -
    lam) applied to the kernel factors, so no more than one block of
    matrices exists at a time; norms, residuals and the right-hand sides
    of phi' are array operations on a block; only the LAPACK
    getrf/gecon/getrs calls run node by node.
    """
    grid = assembly.grid
    M = grid.M
    size = len(assembly.V)
    # node-major (M+1, 4N) rows, contiguous along v
    w = np.exp(grid.nodes[:, None] * assembly.rates)
    b1 = np.divide(assembly.tilde_phi.T, w, order="C")
    b2 = np.divide(assembly.tilde_dphi.T, w, order="C")
    # the solutions xhat and x2 go straight into the outputs, node-major
    # views of phi and dphi, which are scaled by w once all are solved
    phi = np.empty((size, M + 1), dtype=complex)
    dphi = np.empty_like(phi)
    xhat, x2 = phi.T, dphi.T
    # imported in its only caller, so that runs which never solve the main
    # system skip loading scipy.linalg (about 27 MB and 0.3 s)
    from scipy.linalg import get_lapack_funcs
    getrf, gecon, getrs = get_lapack_funcs(("getrf", "gecon", "getrs"),
                                           (b1,))
    rcond_min, rcond_node = np.inf, -1
    residual_max = 0.0
    for start in range(0, M + 1, _NODE_BLOCK):
        block = slice(start, min(start + _NODE_BLOCK, M + 1))
        Ahat = assembly.node_matrices(block, w[block])
        # column sums over the non-contiguous axis add sequentially, in the
        # order of a single matrix's sum(axis=0)
        anorm = np.abs(Ahat).sum(axis=1).max(axis=1)
        factors = []
        for i, m in enumerate(range(block.start, block.stop)):
            lu, piv, _ = getrf(Ahat[i])
            rcond = float(gecon(lu, anorm[i])[0])
            if not np.isfinite(rcond) or rcond < _RCOND_FLOOR:
                raise SingularSystemError(m, rcond)
            if rcond < rcond_min:
                rcond_min, rcond_node = rcond, m
            xhat[m] = getrs(lu, piv, b1[m])[0]
            factors.append((lu, piv))
        xb = np.ascontiguousarray(xhat[block])
        # einsum, not matmul: a stacked matrix-vector matmul calls BLAS
        # gemv, which OpenBLAS splits over two threads from (4N)^2 = 4096
        # on, and those calls stall whenever another process holds a core
        Ax = np.einsum("mij,mj->mi", Ahat, xb)
        res = (np.abs(Ax - b1[block]).max(axis=1)
               / (1.0 + np.abs(b1[block]).max(axis=1)))
        residual_max = max(residual_max, float(res.max()))

        # a contiguous row sums pairwise, in the order of one node's 1-D sum
        eta = np.ascontiguousarray(assembly.eta[:, block].T)
        s = (assembly.signs * eta * (w[block] * xb)).sum(axis=1)
        rhs = b2[block] + b1[block] * s[:, None]
        for i, (lu, piv) in enumerate(factors):
            x2[start + i] = getrs(lu, piv, rhs[i])[0]
        del Ahat, factors  # before the next block's are built
    phi *= w.T
    dphi *= w.T
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

    The three series are summed over V^N in the fixed IndexV order.
    """
    cache, grid, N = assembly.cache, assembly.grid, assembly.N
    eta, deta = assembly.eta, assembly.deta
    signs = assembly.signs[:, None]
    sum_full = (signs * (dphi * eta + phi * deta)).sum(axis=0)
    sum_deriv = (signs * (dphi * eta)).sum(axis=0)
    sum_plain = (signs * (phi * eta)).sum(axis=0)

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


def verify_spectral(coeffs: CoefficientPair, data: SpectralData, N: int,
                    rtol: float = 1e-3) -> dict:
    """Rerun the forward map on a reconstructed pair and compare
    eigenvalues and weight numbers, n <= N against the data and the next
    four indices against the model build_model makes for the data.  rtol,
    the breach threshold of both relative gaps, must be finite and
    positive."""
    if not 0.0 < rtol < np.inf:
        raise ValueError("verify tolerance must be a finite number > 0, "
                         "got %r" % (rtol,))
    model_data = build_model(data, coeffs.tau1.grid, N).model_data
    rec = compute_spectral_data(coeffs, N + 4)
    # n <= N against the data, the next four indices against the model
    dl, db = spectral_gaps(rec, data, N, relative=True)
    tl, tb = spectral_gaps(rec, model_data, N + 4, relative=True)
    dl, db = np.vstack([dl, tl[N:]]), np.vstack([db, tb[N:]])
    entries = [{"n": n, "k": k, "lambda_rel": float(dl[n - 1, k - 1]),
                "beta_rel": float(db[n - 1, k - 1]),
                "reference": "data" if n <= N else "model"}
               for n in range(1, N + 5) for k in (1, 2)]
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
                     and max(e["lambda_rel"], e["beta_rel"]) > rtol],
    }
    report["pass"] = bool(lam_max <= rtol and beta_max <= rtol
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
    tilde = a.cache.states(SystemVariant.DIRECT, k0, lams)
    f = _kernel_factors(a.stars, tilde, lams, k0)
    signs = a.signs[:, None]
    sphi, sdphi = signs * result.phi, signs * result.dphi
    vals, dvals = tilde[:, :, 0].copy(), tilde[:, :, 1].copy()
    M = a.grid.M
    for start in range(0, M + 1, _NODE_BLOCK):
        block = slice(start, min(start + _NODE_BLOCK, M + 1))
        P = _bracket(f, block)                # (nodes, W, 4N)
        vals[:, block] += np.einsum("vm,mwv->wm", sphi[:, block], P)
        dvals[:, block] += np.einsum("vm,mwv->wm", sdphi[:, block], P)
    dvals += tilde[:, :, 0] * (sphi * a.eta).sum(axis=0)
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
    j = np.array([v.k + 1 for v in a.V])
    eps0 = np.array([v.eps == 0 for v in a.V])
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
        vals = vals[eps0[rows]]
        rel = np.abs(vals[:, -1]) / (1.0 + np.abs(vals).max(axis=1))
        check = "phi%d_terminal" % k0
        breaches += [{"check": check, "n": n, "value": r}
                     for n, r in enumerate(rel, start=1) if r > _WEYL_TOL]
        checks[check + "_max"] = rel.max()

    breaches += [{"check": "interpolation", "v": tuple(v), "value": r}
                 for v, r in zip(a.V, interp) if r > _WEYL_TOL]
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
