"""Truncated main equation of the inverse problem and the
reconstruction of the coefficients from spectral data.

The pipeline is: build_model (model.py) -> assemble -> solve_phi ->
reconstruct -> verify_reconstruction.  The unknowns are the functions
phi_v(x) indexed by v = (n, k, eps) with n <= N, eps = 0 marking the
given data and eps = 1 the model data; for each grid node the system

    phi_{v0} - sum_v (-1)^eps(v) G_{v,v0} phi_v = tilde_phi_{v0}

is solved by one LU factorization, reused for the x-derivatives via the
differentiated system.  Every kernel G_{v,v0}, eta_v and Phi^N value comes
from one combined star state per index, Z_v = (-1)^k beta_v
Phi*_{4-k}(., lambda_v) (with -gamma_n Phi*_3 added on the coinciding
set K), paired with a direct Weyl state by one kernel routine: the
Lagrange bracket over mu - lambda for all pairs at once, or its integral
form near coinciding arguments.

Conditioning note: phi_v and the kernel columns grow or decay like
exp(rate x) with rate the relevant real part of the cube roots of
lambda_v.  On the eigenvalue rays the growth of the unknown cancels the
decay of its kernel column exactly, so a diagonal similarity with
weights exp(rate_v x) makes the scaled matrix entries O(1); the LU and
the condition estimate run on the scaled matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .asympt import root_rates
from .errors import PoleHitError, SingularSystemError
from .forward import SpectralData, compute_spectral_data
from .grid import CoefficientPair, Grid, GridFunction, cumulative, l2_norm, \
    w2m1_distance
from .model import ModelCache, build_model, distance_d, xi_sequence
from .quasi import SystemVariant

__all__ = [
    "IndexV",
    "index_set",
    "kernel_D",
    "MainAssembly",
    "assemble",
    "solve_phi",
    "ReconstructionResult",
    "reconstruct",
    "run_inverse",
    "verify_reconstruction",
    "stability_experiment",
]

# Bracket -> integral kernel form switch when lambda and mu nearly agree.
_KERNEL_SWITCH = 1e-6

_RCOND_FLOOR = 1e-13

# Breach threshold of the verify_reconstruction(mode="weyl") checks.
_WEYL_TOL = 1e-6

_VALID_KJ = {(2, 2), (2, 3), (3, 2), (3, 3)}


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
    V = index_set(N)
    src = [data if v.eps == 0 else cache.model_data for v in V]
    lam = np.array([d.lam(v.n, v.k) for d, v in zip(src, V)])
    beta = np.array([d.beta(v.n, v.k) for d, v in zip(src, V)])
    k = np.array([v.k for v in V])
    Z = (np.where(k == 1, -beta, beta)[:, None, None]
         * _states_at(cache, SystemVariant.STAR, 4 - k, lam))
    regularized = np.array([v.eps == 0 and v.k == 2 and v.n in data.K
                            for v in V])
    if regularized.any():
        gamma = np.array([data.gamma[v.n] for v, r in zip(V, regularized) if r])
        Z[regularized] -= gamma[:, None, None] * cache.states(
            SystemVariant.STAR, 3, lam[regularized])
    return StarStates(Z, lam, np.where(k == 2, beta, 0.0), regularized)


def _kernel(grid: Grid, stars: StarStates, Y: np.ndarray, mu: np.ndarray,
            j) -> np.ndarray:
    """Two-point kernels D(x; Z_v, Y_w) for every pair: out[m, w, v].

    Y (W, M+1, 3) holds direct states Phi_{j_w}(., mu_w).  Bracket form
    (Z^[2] Y - Z' Y' + Z Y^[2]) / (mu_w - lam_v), one batched product
    over the nodes; pairs with nearly equal arguments take the integral
    form cumulative(Z Y) instead, plus the explicit pole
    pole_v / (lam_v - mu_w) when j_w = 2.  Evaluating that pole at
    lam_v = mu_w raises unless row v is regularized.
    """
    lam = stars.lam
    j = np.broadcast_to(j, mu.shape)
    diff = mu[:, None] - lam[None, :]
    scale = 1.0 + np.maximum(np.abs(mu)[:, None], np.abs(lam)[None, :])
    near = ~(np.abs(diff) > _KERNEL_SWITCH * scale)

    # (y^[2], -y', y) against (z, z', z^[2]) at every node
    Yb = np.transpose(Y[:, :, ::-1] * np.array([1.0, -1.0, 1.0]), (1, 0, 2))
    out = np.matmul(Yb, np.transpose(stars.Z, (1, 2, 0)))
    out /= np.where(near, 1.0, diff)

    for w, v in zip(*np.nonzero(near)):
        zy = stars.Z[v, :, 0] * Y[w, :, 0]
        vals = cumulative(GridFunction(grid, zy)).values
        if j[w] == 2 and stars.pole[v] != 0:
            if lam[v] != mu[w]:
                vals = vals + stars.pole[v] / (lam[v] - mu[w])
            elif not stars.regularized[v]:
                raise PoleHitError(
                    "kernel (2,2) evaluated on its pole lambda = mu = %s"
                    % (lam[v],))
        out[:, w, v] = vals
    return out


def kernel_D(cache: ModelCache, kj, lam: complex, mu: complex,
             regularized: bool = False) -> GridFunction:
    """Nodal values of D_{k,j}(x, lambda, mu) for (k, j) in {2,3} x {2,3}
    on the grid of the model cache.

    The pairing of Phi*_k(., lambda) with Phi_j(., mu); see _kernel.  The
    pole 1/(lambda - mu) of D_{2,2} may be regularized at an exact
    coincidence.
    """
    k, j = int(kj[0]), int(kj[1])
    if (k, j) not in _VALID_KJ:
        raise ValueError("kernel indices %r not supported" % (kj,))
    lam, mu = np.array([lam], dtype=complex), np.array([mu], dtype=complex)
    star = StarStates(cache.states(SystemVariant.STAR, k, lam), lam,
                      np.array([1.0 if k == 2 else 0.0]),
                      np.array([regularized]))
    D = _kernel(cache.grid, star, cache.states(SystemVariant.DIRECT, j, mu),
                mu, j)
    return GridFunction(cache.grid, D[:, 0, 0])


# ---------------------------------------------------------------------------
# Assembly of the truncated system


@dataclass
class MainAssembly:
    """Node-wise matrices and tables of the truncated main system, with
    the star states and the model cache they were built from."""

    cache: ModelCache
    grid: Grid
    N: int
    V: list
    data: SpectralData      # the given data truncated to n <= N
    stars: StarStates
    A: np.ndarray           # (M+1, 4N, 4N): A[m, v0, v]
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

    def gprime(self, i_v: int, i_v0: int) -> np.ndarray:
        """G'_{v,v0} = eta_v * tilde_phi_{v0} (nodal values)."""
        return self.eta[i_v] * self.tilde_phi[i_v0]


def _signs(V: list) -> np.ndarray:
    return np.array([1.0 if v.eps == 0 else -1.0 for v in V])


def assemble(data: SpectralData, cache: ModelCache, N: int) -> MainAssembly:
    """Build the node-wise matrices of the truncated main system on the
    grid of the model cache."""
    data_N = data.truncate(N)
    V = index_set(N)
    stars = _star_states(cache, data_N, N)
    j = np.array([v.k + 1 for v in V])
    Y = _states_at(cache, SystemVariant.DIRECT, j, stars.lam)
    signs = _signs(V)
    rates = np.array([root_rates(l)[v.k] for v, l in zip(V, stars.lam)])

    # A[m, v0, v] = delta - (-1)^eps(v) D(x_m; Z_v, tilde phi_v0)
    A = _kernel(cache.grid, stars, Y, stars.lam, j)
    A *= -signs
    idx = np.arange(len(V))
    A[:, idx, idx] += 1.0
    return MainAssembly(cache=cache, grid=cache.grid, N=N, V=V, data=data_N,
                        stars=stars, A=A, tilde_phi=Y[:, :, 0],
                        tilde_dphi=Y[:, :, 1], signs=signs, rates=rates)


# ---------------------------------------------------------------------------
# Node-wise solve


def solve_phi(assembly: MainAssembly):
    """Solve for phi and phi' at every node; returns (phi, dphi, diag).

    The derivative table solves A phi' = tilde_phi' + B phi with
    B[v0][v] = (-1)^eps(v) eta_v tilde_phi_{v0}, i.e. a rank-one
    correction, using the factorization of the same node matrix.
    """
    grid = assembly.grid
    M = grid.M
    size = len(assembly.V)
    phi = np.empty((size, M + 1), dtype=complex)
    dphi = np.empty_like(phi)
    gecon = get_lapack_funcs(("gecon",), (assembly.A,))[0]
    rcond_min = np.inf
    residual_max = 0.0
    for m in range(M + 1):
        x = grid.nodes[m]
        w = np.exp(assembly.rates * x)
        Ahat = assembly.A[m] * (w[None, :] / w[:, None])
        anorm = float(np.abs(Ahat).sum(axis=0).max())
        lu = lu_factor(Ahat, check_finite=False)
        rcond = float(gecon(lu[0], anorm)[0])
        if not np.isfinite(rcond) or rcond < _RCOND_FLOOR:
            raise SingularSystemError(m, rcond)
        rcond_min = min(rcond_min, rcond)

        b1 = assembly.tilde_phi[:, m] / w
        xhat = lu_solve(lu, b1, check_finite=False)
        phi[:, m] = w * xhat
        res = float(np.abs(Ahat @ xhat - b1).max() / (1.0 + np.abs(b1).max()))
        residual_max = max(residual_max, res)

        s = np.sum(assembly.signs * assembly.eta[:, m] * phi[:, m])
        b2 = (assembly.tilde_dphi[:, m] + assembly.tilde_phi[:, m] * s) / w
        dphi[:, m] = w * lu_solve(lu, b2, check_finite=False)
    diag = {"rcond_min": rcond_min, "cond_max": 1.0 / rcond_min,
            "residual_max": residual_max}
    return phi, dphi, diag


# ---------------------------------------------------------------------------
# Reconstruction


@dataclass
class ReconstructionResult:
    """Recovered coefficients and the solved phi tables.

    tau0N is carried distributionally through sigma0N (its derivative);
    consumers work with sigma0N directly.
    """

    tau1N: GridFunction
    sigma0N: GridFunction
    phi: np.ndarray
    dphi: np.ndarray
    V: list
    diagnostics: dict = field(default_factory=dict)
    cache: ModelCache | None = None

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
                                phi, dphi, assembly.V, diag, cache)


def run_inverse(data: SpectralData, grid: Grid, N: int,
                theta_shift: complex = 0.0,
                cache: ModelCache | None = None) -> ReconstructionResult:
    """Convenience driver: model -> assemble -> solve -> reconstruct."""
    if cache is None:
        cache = build_model(data, grid, N, theta_shift=theta_shift)
    assembly = assemble(data, cache, N)
    phi, dphi, diag = solve_phi(assembly)
    return reconstruct(assembly, phi, dphi, solve_diag=diag)


# ---------------------------------------------------------------------------
# Verification


def _phiN_tables(result: ReconstructionResult, cache: ModelCache,
                 stars: StarStates, k0: int, lams):
    """(Phi^N_{k0}, (Phi^N_{k0})') nodal values at each lambda of lams,
    two (W, M+1) arrays, from the star states of the reconstruction."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    tilde = cache.states(SystemVariant.DIRECT, k0, lams)
    P = _kernel(cache.grid, stars, tilde, lams, k0)     # (M+1, W, 4N)
    signs = _signs(result.V)[:, None]
    vals = tilde[:, :, 0] + np.einsum("vm,mwv->wm", signs * result.phi, P)
    dvals = (tilde[:, :, 1] + np.einsum("vm,mwv->wm", signs * result.dphi, P)
             + tilde[:, :, 0] * (signs * result.phi * stars.Z[:, :, 0]).sum(
                 axis=0))
    return vals, dvals


def verify_reconstruction(result: ReconstructionResult, data: SpectralData,
                          N: int, mode: str = "spectral",
                          rtol: float = 1e-3) -> dict:
    """Check a reconstruction against its input data.

    mode="spectral" reruns the forward map on the recovered pair and
    compares eigenvalues and weight numbers, n <= N against the data
    and the next few indices against the model.  mode="weyl" builds the
    functions Phi^N from the phi tables and checks their boundary,
    normalization, and interpolation properties against _WEYL_TOL
    (coinciding pairs are not supported there).  The model comes from
    result.cache, or is built when the result carries none.
    """
    if N > data.n_max:
        raise ValueError("N=%d exceeds the data range n_max=%d" % (N, data.n_max))
    cache = result.cache or build_model(data, result.tau1N.grid, N)
    if mode == "spectral":
        rec = compute_spectral_data(result.coeffs, N + 4)
        entries = []
        lam_max = beta_max = tail_max = 0.0
        for n in range(1, N + 5):
            for k in (1, 2):
                ref = data if n <= N else cache.model_data
                dl = (abs(rec.lam(n, k) - ref.lam(n, k))
                      / (1.0 + abs(ref.lam(n, k))))
                db = (abs(rec.beta(n, k) - ref.beta(n, k))
                      / (1.0 + abs(ref.beta(n, k))))
                entries.append({"n": n, "k": k, "lambda_rel": dl,
                                "beta_rel": db,
                                "reference": "data" if n <= N else "model"})
                if n <= N:
                    lam_max = max(lam_max, dl)
                    beta_max = max(beta_max, db)
                else:
                    tail_max = max(tail_max, dl)
        report = {
            "mode": "spectral",
            "lambda_rel_max": lam_max,
            "beta_rel_max": beta_max,
            "tail_lambda_rel_max": tail_max,
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

    if mode == "weyl":
        if any(n <= N for n in data.K):
            raise ValueError("mode='weyl' requires data without coinciding "
                             "eigenvalue pairs")
        stars = _star_states(cache, data, cache.N)
        checks: dict = {"mode": "weyl"}
        breaches = []
        # Boundary conditions at x = 1: Phi^N_2 vanishes there on the
        # first data spectrum, Phi^N_3 on the second.
        for k0, lams in ((2, data.lam1[:N]), (3, data.lam2[:N])):
            check = "phi%d_terminal" % k0
            vals, _ = _phiN_tables(result, cache, stars, k0, lams)
            rel = np.abs(vals[:, -1]) / (1.0 + np.abs(vals).max(axis=1))
            for n, r in enumerate(rel, start=1):
                if r > _WEYL_TOL:
                    breaches.append({"check": check, "n": n, "value": r})
            checks[check + "_max"] = rel.max()

        # Interpolation: Phi^N_{k+1}(x, lam_v) == phi_v(x).
        rel = np.empty(len(result.V))
        j = np.array([v.k + 1 for v in result.V])
        for k0 in (2, 3):
            vals, _ = _phiN_tables(result, cache, stars, k0,
                                   stars.lam[j == k0])
            phi = result.phi[j == k0]
            rel[j == k0] = (np.abs(vals - phi).max(axis=1)
                            / (1.0 + np.abs(phi).max(axis=1)))
        for v, r in zip(result.V, rel):
            if r > _WEYL_TOL:
                breaches.append({"check": "interpolation", "v": tuple(v),
                                 "value": r})
        checks["interpolation_max"] = rel.max()

        # Initial normalization and the first Weyl solution at a probe
        # lambda away from both spectra.
        lam_probe = 0.7j * abs(cache.model_data.lam(1, 1))
        (v2,), (d2,) = _phiN_tables(result, cache, stars, 2, lam_probe)
        (v3,), (d3,) = _phiN_tables(result, cache, stars, 3, lam_probe)
        checks["phi2_origin"] = abs(v2[0])
        checks["phi2_origin_slope"] = abs(d2[0] - 1.0)
        checks["phi3_origin"] = abs(v3[0])
        checks["phi3_origin_slope"] = abs(d3[0])
        (v1,), (d1,) = _phiN_tables(result, cache, stars, 1, lam_probe)
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

    raise ValueError("mode must be 'spectral' or 'weyl'")


# ---------------------------------------------------------------------------
# Stability experiment


def _perturb(data: SpectralData, entries, delta: float) -> SpectralData:
    out = data.copy()
    for n, k, which in entries:
        arr = {("lambda", 1): out.lam1, ("lambda", 2): out.lam2,
               ("beta", 1): out.beta1, ("beta", 2): out.beta2}[(which, k)]
        arr[n - 1] = arr[n - 1] + delta
    return out


def stability_experiment(data: SpectralData, grid: Grid, N: int,
                         entries=((1, 1, "beta"),), deltas=None) -> list:
    """Reconstruction error versus data perturbation size.

    Perturbs the chosen (lambda, beta) entries by delta for the halving
    ladder 1e-2, 5e-3, 2.5e-3, 1.25e-3 (or an explicit deltas list),
    reconstructs each, and tabulates the data distance d, the
    coefficient distances against the unperturbed reconstruction, and
    their ratios (empirical stability constants).
    """
    if data.K:
        raise ValueError("stability experiment requires data with no "
                         "coinciding eigenvalue pairs")
    for n, k, which in entries:
        if which not in ("lambda", "beta"):
            raise ValueError("perturbation field must be 'lambda' or 'beta'")
        if not 1 <= n <= N or k not in (1, 2):
            raise ValueError("perturbation entry (n=%s, k=%s) is outside "
                             "1 <= n <= N=%d, k in {1, 2}" % (n, k, N))
    cache = build_model(data, grid, N)
    if deltas is None:
        deltas = [1e-2 / 2 ** j for j in range(4)]
    else:
        deltas = [float(d) for d in deltas]

    data_N = data.truncate(N)
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
