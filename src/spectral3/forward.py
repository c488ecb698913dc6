"""Forward spectral map: characteristic functions, eigenvalues, weight
numbers, Weyl matrices and solutions.  The spectral data are one
(n_max, 2) table per quantity (SpectralData), [n-1, k-1] holding family
k, into which compute_spectral_data reshapes Newton's family-major roots.

Two numerical routes matter here.

Characteristic determinants.  Both families are read alike: with k the
family of a lambda, Delta_{k,k} vanishes on the spectrum of family k,
the Weyl function is M_{k+1,k} = -Delta_{k+1,k}/Delta_{k,k}, and the
weight number beta_{n,k} = Delta_{k+1,k}/dDelta_{k,k} at lambda_{n,k}
is minus its residue there.  The Characteristic record holds per lambda

    field        k = 1                k = 2
    delta        Delta_{1,1}          Delta_{2,2} = C_3(1)
    numer        Delta_{2,1}          Delta_{3,2} = C_2(1)
    gamma_numer  Delta_{3,1}          C_1(1)
    ddelta       dDelta_{1,1}/dlam    dDelta_{2,2}/dlam

and gamma_n of a coinciding pair is gamma_numer/ddelta of the family
whose weight number vanishes.  The minors Delta_{j,1} formed literally
from products of fundamental values cancel catastrophically once
|lambda|^(1/3) is large (products grow like e^(3 rho x) while the minor
itself stays of size e^(rho x)).  The 2x2 minors of DIRECT solutions,
however, satisfy the STAR system themselves, so a STAR sweep with
identity initial data reads all Delta_{j,1} off directly as its top
row, with no products formed.  Its lambdas ride in the same sweep as
the family 2 ones, each with its own variant.  The literal formulas are
kept in characteristic_literal as an independent cross-check for
moderate |lambda|.

Weyl solutions.  Phi_k decays toward x = 1 for some lambda and then no
forward integration can recover it; the integration direction is chosen
per lambda from the middle exponent of r^3 = c lambda: non-positive
real part means the solution is recovered stably backward from its
terminal data, positive means forward.  Phi_1 is always integrated
backward (it spans the solutions with y(1) = y'(1) = 0), Phi_3 = C_3
always forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import asympt
from .errors import (
    BasinEscapeError,
    DerivativeVanishesError,
    GammaZeroError,
    NearPoleError,
    NoConvergenceError,
    Spectral3Error,
)
from .grid import CoefficientPair, integrate
from .quasi import SystemVariant, _sweep
from .serialize import (complex_pair, dumps17, json_int, pair_complex,
                        read_json)

__all__ = [
    "SpectralData",
    "characteristic_literal",
    "detect_K",
    "compute_spectral_data",
    "weyl_matrix",
    "weyl_batch",
    "weight_matrix",
    "laurent_coefficients",
    "save_spectral_data",
    "load_spectral_data",
]

_EYE = np.eye(3, dtype=complex)

_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-12
_DERIV_FLOOR = 1e-14
_BETA_SNAP = 1e-5
_POLE_TOL = 1e-10
_CONTOUR_POINTS = 64

# Integration direction switch for Phi_2: backward when the middle
# exponent does not grow.
_ROUTE_EPS = 1e-12


class Characteristic(NamedTuple):
    """Characteristic values at L lambdas, each read in its own family k
    (the table in the module docstring): (L,) arrays, ddelta None
    without d/dlambda."""

    delta: np.ndarray                  # Delta_{k,k}
    numer: np.ndarray                  # Delta_{k+1,k}
    gamma_numer: np.ndarray            # Delta_{3,1} or C_1(1)
    ddelta: np.ndarray | None = None   # dDelta_{k,k}/dlambda

    def take(self, idx) -> "Characteristic":
        return Characteristic(*(None if v is None else v[idx] for v in self))


def _char_arrays(coeffs: CoefficientPair, lams, fams,
                 variant: SystemVariant = SystemVariant.DIRECT,
                 with_dlambda=False) -> Characteristic:
    """Characteristic values of the variant for a batch of lambdas.

    fams is the family k of each lambda (an (L,) array) or one family
    for all.  One sweep of L lambdas reads the top row (y_1, y_2, y_3)
    of the fundamental matrix at x = 1, each lambda in its own variant:

        k = 1: the dual sweep, carrying the wedge minors of the
               variant's solutions: Delta_{1,1} = -y_3,
               Delta_{2,1} = -y_2, Delta_{3,1} = y_1
        k = 2: the variant's own sweep: C_3(1), C_2(1), C_1(1)

    with ddelta, when with_dlambda, the lambda-derivative of delta.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    first = np.broadcast_to(np.asarray(fams) == 1, lams.shape)
    c = np.where(first, -variant.value, variant.value)
    res = _sweep(coeffs, c, lams, _EYE, with_dlambda=with_dlambda)
    Y, dY = res if with_dlambda else (res, None)

    def signed(v):
        return np.where(first, -v, v)

    return Characteristic(signed(Y[:, 0, 2]), signed(Y[:, 0, 1]), Y[:, 0, 0],
                          signed(dY[:, 0, 2]) if with_dlambda else None)


def characteristic_literal(coeffs: CoefficientPair, lams, fams,
                           variant: SystemVariant = SystemVariant.DIRECT,
                           with_dlambda: bool = False) -> Characteristic:
    """_char_arrays from literal 2x2 products.

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


# ---------------------------------------------------------------------------
# Eigenvalue search


def _newton_tol(dd: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return _NEWTON_TOL * (1.0 + np.abs(dd) * np.abs(lam) ** (2.0 / 3.0))


def _newton_family(coeffs: CoefficientPair, k, ns, guesses,
                   theta: complex) -> tuple:
    """Batched Newton on Delta_{k,k} for entries of either family.

    k is the family of each entry (an array like ns) or one family for
    all.  Each iteration evaluates every active entry's own family in
    one mixed d/dlambda sweep (_char_arrays with a per-lambda family).
    Returns the roots and the Characteristic record at them, from each
    entry's last evaluation: an entry stops at the lambda it has just
    evaluated, since a converged entry takes step 0, so the weight
    numbers need no further sweep.

    A failing entry leaves the active set while the others run on.  The
    failures are then raised family by family, 1 before 2, in the order
    of a search of that family alone: DerivativeVanishesError of the
    earliest iteration (lowest position first), then NoConvergenceError
    of the first entry left unconverged, then BasinEscapeError of the
    first root with another index.
    """
    ns = np.asarray(ns, dtype=int)
    ks = np.broadcast_to(np.asarray(k, dtype=int), ns.shape)
    lam = np.asarray(guesses, dtype=complex).copy()
    last = Characteristic(*(np.empty_like(lam) for _ in Characteristic._fields))
    active = np.ones(lam.shape[0], dtype=bool)
    # the iteration at which an entry's derivative vanished
    vanished = np.full(lam.shape[0], _NEWTON_MAX_ITER)
    for it in range(_NEWTON_MAX_ITER):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        a = _char_arrays(coeffs, lam[idx], ks[idx], with_dlambda=True)
        for dst, values in zip(last, a):
            dst[idx] = values
        conv = np.abs(a.delta) <= _newton_tol(a.ddelta, lam[idx])
        small = (np.abs(a.ddelta) < _DERIV_FLOOR) & ~conv
        vanished[idx[small]] = it
        step = np.where(conv | small, 0.0,
                        a.delta / np.where(small, 1.0, a.ddelta))
        lam[idx] = lam[idx] - step
        active[idx[conv | small]] = False
    # the index each root numbers as, read below only for a family whose
    # entries all converged (the others hold a stand-in lambda of 1)
    ok = ~active & (vanished == _NEWTON_MAX_ITER)
    n_found = asympt.invert_index(np.where(ok, lam, 1.0), ks, theta)
    for fam in (1, 2):
        mine = np.flatnonzero(ks == fam)
        if not mine.size:
            continue
        j = mine[np.argmin(vanished[mine])]
        if vanished[j] < _NEWTON_MAX_ITER:
            raise DerivativeVanishesError(int(ns[j]), fam, complex(lam[j]))
        left = mine[active[mine]]
        if left.size:
            raise NoConvergenceError(int(ns[left[0]]), fam,
                                     complex(lam[left[0]]), _NEWTON_MAX_ITER)
        escaped = mine[n_found[mine] != ns[mine]]
        if escaped.size:
            j = escaped[0]
            raise BasinEscapeError(int(ns[j]), fam, complex(lam[j]),
                                   int(n_found[j]))
    return lam, last


def _gamma(lam_n: complex, g: np.ndarray, beta: np.ndarray) -> complex:
    """Additional weight number gamma_n of a coinciding eigenvalue pair:
    of g = (Delta_{3,1}/dDelta_{1,1}, C_1(1)/dDelta_{2,2}) at lambda_n,
    the one of the family whose weight number in beta = (beta_{n,1},
    beta_{n,2}) vanishes.  When both vanish the two must agree; this is
    asserted.
    """
    zero = np.asarray(beta) == 0
    if not zero.any():
        raise GammaZeroError(
            "gamma requested at lambda=%s where neither weight number vanishes"
            % (lam_n,))
    g1, g2 = map(complex, g)
    if zero.all() and abs(g1 - g2) > 1e-6 * (1.0 + abs(g1)):
        raise Spectral3Error(
            "the two gamma definitions disagree at lambda=%s: %s vs %s"
            % (lam_n, g1, g2))
    gamma = g1 if zero[0] else g2
    if abs(gamma) <= 1e-12 * (1.0 + abs(lam_n)):
        raise GammaZeroError("gamma vanished at lambda=%s" % (lam_n,))
    return gamma


def detect_K(lambdas, tol: float = asympt.COINCIDE_TOL):
    """Pair the two columns of an (N, 2) eigenvalue table and find the
    coinciding indices.

    Greedy nearest matching of lambda_{n,1} against the unused entries
    of the second family; a match that asympt.coincide accepts at tol
    pins the reordering n = p.  Returns (K, perm) with perm the
    permutation to apply to the second family's column.
    """
    first, second = np.asarray(lambdas, dtype=complex).T
    N = first.shape[0]
    used = np.zeros(N, dtype=bool)
    match = -np.ones(N, dtype=int)
    K: list[int] = []
    for i in range(N):
        gaps = np.abs(second - first[i])
        gaps[used] = np.inf
        j = int(np.argmin(gaps))
        if asympt.coincide(first[i], second[j], tol):
            match[i] = j
            used[j] = True
            K.append(i + 1)
    # the unmatched positions take the unused entries in ascending order
    perm = match.copy()
    perm[match < 0] = np.flatnonzero(~used)
    return K, perm


def compute_spectral_data(coeffs: CoefficientPair, n_max: int,
                          pair_tol: float = asympt.COINCIDE_TOL) -> "SpectralData":
    """The full forward map: coefficients -> spectral data up to n_max.

    n_max must be at least 1, and pair_tol, the relative tolerance of
    asympt.coincide that pairs the two families, finite and
    non-negative."""
    if not 0.0 <= pair_tol < np.inf:
        raise ValueError("pair tolerance must be a finite number >= 0, "
                         "got %r" % (pair_tol,))
    if n_max < 1:
        raise ValueError("n_max must be at least 1, got %d" % n_max)
    theta = integrate(coeffs.tau1)
    ns = np.tile(np.arange(1, n_max + 1), 2)
    ks = np.repeat([1, 2], n_max)
    lam, a = _newton_family(coeffs, ks, ns,
                            asympt.eigen_guess(ns, ks, theta), theta)

    # (n_max, 2) tables of the roots and their record from Newton's
    # family-major arrays; family 2 is then put in the order of family 1
    lambdas, *a = (np.ascontiguousarray(v.reshape(2, n_max).T)
                   for v in (lam, *a))
    K, perm = detect_K(lambdas, pair_tol)
    for v in (lambdas, *a):
        v[:, 1] = v[perm, 1]
    a = Characteristic(*a)
    if K:
        # On K lambda_{n,2} is set to lambda_{n,1}: family 2 is swept there.
        i = np.array(K) - 1
        lambdas[i, 1] = lambdas[i, 0]
        for v, vK in zip(a, _char_arrays(coeffs, lambdas[i, 0], 2,
                                         with_dlambda=True)):
            v[i, 1] = vK
    betas = a.numer / a.ddelta

    # Exactly one weight number vanishes on each coinciding pair (both in
    # the symmetric case); snap the numerically-zero one to exact zero.
    for n in K:
        scale = _BETA_SNAP * (1.0 + 3.0 * abs(lambdas[n - 1, 0]))
        small = np.abs(betas[n - 1]) <= scale
        if not small.any():
            raise Spectral3Error(
                "coinciding pair n=%d has no vanishing weight number "
                "(|beta|=%g, %g)" % (n, *np.abs(betas[n - 1])))
        betas[n - 1, small] = 0.0

    # On K both families sit at the same lambda, so the record already
    # holds both gamma definitions there.
    g = a.gamma_numer / a.ddelta
    gamma = {n: _gamma(complex(lambdas[n - 1, 0]), g[n - 1], betas[n - 1])
             for n in K}
    return SpectralData(theta=complex(theta), lambdas=lambdas, betas=betas,
                        K=list(K), gamma=gamma)


# ---------------------------------------------------------------------------
# Spectral data container


def _checked_K(K, gamma: dict, n_max: int) -> list:
    """The coinciding-index set K, sorted, after checking that its
    indices and the keys of gamma are integers (Python or numpy, not
    bool), lie in 1..n_max, do not repeat, and are the same set.
    Shared by SpectralData and selfadjoint.HalfData."""
    for n in (*K, *gamma):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError("K indices and gamma keys must be integers, "
                             "got %r" % (n,))
    K = sorted(int(n) for n in K)
    if any(not 1 <= n <= n_max for n in K):
        raise ValueError("K indices %s are not all in 1..n_max=%d"
                         % (K, n_max))
    for a, b in zip(K, K[1:]):
        if a == b:
            raise ValueError("K lists n=%d more than once" % a)
    if set(gamma) != set(K):
        raise ValueError("gamma must be given exactly on K")
    return K


@dataclass
class SpectralData:
    """Eigenvalues and weight numbers of the two boundary problems.

    lambdas and betas are (n_max, 2) tables with [n-1, k-1] holding
    family k; K lists the indices with coinciding eigenvalues
    lambda_{n,1} = lambda_{n,2} (stored identically in both columns),
    each carrying the extra weight gamma_n.
    """

    theta: complex
    lambdas: np.ndarray
    betas: np.ndarray
    K: list = field(default_factory=list)
    gamma: dict = field(default_factory=dict)

    def __post_init__(self):
        # copies, so the caller's tables are neither shared nor changed
        self.lambdas = np.array(self.lambdas, dtype=complex)
        self.betas = np.array(self.betas, dtype=complex)
        shape = self.lambdas.shape
        if shape[1:] != (2,) or self.betas.shape != shape:
            raise ValueError("lambdas and betas must be (n_max, 2) tables, "
                             "got %s and %s" % (shape, self.betas.shape))
        self.K = _checked_K(self.K, self.gamma, self.n_max)
        self.gamma = {int(n): complex(g) for n, g in self.gamma.items()}
        # Coinciding pairs are stored with bitwise-equal eigenvalues so
        # the kernel branch selection is deterministic.
        for n in self.K:
            a, b = self.lambdas[n - 1]
            if abs(a - b) > 1e-6 * (1.0 + abs(a)):
                raise ValueError("n=%d is marked coinciding but the "
                                 "eigenvalues differ by %g" % (n, abs(a - b)))
            self.lambdas[n - 1, 1] = a

    @property
    def n_max(self) -> int:
        return self.lambdas.shape[0]

    def lam(self, n: int, k: int) -> complex:
        self._check_index(n, k)
        return complex(self.lambdas[n - 1, k - 1])

    def beta(self, n: int, k: int) -> complex:
        self._check_index(n, k)
        return complex(self.betas[n - 1, k - 1])

    def _check_index(self, n: int, k: int) -> None:
        if not (1 <= n <= self.n_max) or k not in (1, 2):
            raise IndexError("no entry (n=%s, k=%s)" % (n, k))

    def copy(self) -> "SpectralData":
        return SpectralData(self.theta, self.lambdas, self.betas, self.K,
                            self.gamma)

    def truncate(self, N: int) -> "SpectralData":
        """The entries n <= N, for a truncation order 1 <= N <= n_max."""
        if N < 1:
            raise ValueError("truncation order N must be at least 1, got %d"
                             % N)
        if N > self.n_max:
            raise ValueError("N=%d exceeds the data range n_max=%d"
                             % (N, self.n_max))
        K = [n for n in self.K if n <= N]
        return SpectralData(self.theta, self.lambdas[:N], self.betas[:N], K,
                            {n: self.gamma[n] for n in K})


def save_spectral_data(path, data: SpectralData, diagnostics=None) -> None:
    """Write data as spectral-data JSON, with a "diagnostics" object when
    one is given (load_spectral_data does not read it back)."""
    obj = {
        "theta": complex_pair(data.theta),
        "n_max": data.n_max,
        "entries": [
            {"n": n, "k": k,
             "lambda": complex_pair(data.lambdas[n - 1, k - 1]),
             "beta": complex_pair(data.betas[n - 1, k - 1])}
            for n in range(1, data.n_max + 1) for k in (1, 2)
        ],
        "K": [{"n": n, "gamma": complex_pair(data.gamma[n])} for n in data.K],
    }
    if diagnostics is not None:
        obj["diagnostics"] = diagnostics
    with open(path, "w") as fh:
        fh.write(dumps17(obj))


def load_spectral_data(path) -> SpectralData:
    """Read a spectral-data JSON file; a value of the wrong JSON type or
    a file of the wrong shape raises ValueError (serialize's readers)."""
    with read_json(path) as obj:
        n_max = json_int(obj["n_max"], "n_max")
        if n_max < 0:
            raise ValueError("n_max must be >= 0, got %d" % n_max)
        lambdas = np.zeros((n_max, 2), dtype=complex)
        betas = np.zeros((n_max, 2), dtype=complex)
        seen = np.zeros((n_max, 2), dtype=bool)
        for ent in obj["entries"]:
            n, k = json_int(ent["n"], "n"), json_int(ent["k"], "k")
            if not (1 <= n <= n_max) or k not in (1, 2):
                raise ValueError("entry (n=%s, k=%s) out of range" % (n, k))
            if seen[n - 1, k - 1]:
                raise ValueError("entry (n=%s, k=%s) is repeated" % (n, k))
            lambdas[n - 1, k - 1] = pair_complex(ent["lambda"])
            betas[n - 1, k - 1] = pair_complex(ent["beta"])
            seen[n - 1, k - 1] = True
        if not seen.all():
            raise ValueError(
                "spectral-data file must cover n = 1..n_max for k = 1, 2")
        K = obj.get("K", [])
        return SpectralData(theta=pair_complex(obj["theta"]),
                            lambdas=lambdas, betas=betas,
                            K=[json_int(e["n"], "K n") for e in K],
                            gamma={json_int(e["n"], "K n"):
                                   pair_complex(e["gamma"]) for e in K})


# ---------------------------------------------------------------------------
# Weyl matrices and solutions


def _pole_guard(num: np.ndarray, den: np.ndarray, lams: np.ndarray,
                label: str) -> None:
    # |Delta/dDelta| estimates the distance to the nearest root.
    near = np.abs(num) <= _POLE_TOL * (1.0 + np.abs(lams)) * np.abs(den)
    if near.any():
        lam = complex(lams[int(np.flatnonzero(near)[0])])
        raise NearPoleError(
            "lambda=%s is numerically at a zero of %s" % (lam, label))


def weyl_matrix(coeffs: CoefficientPair, lams,
                variant: SystemVariant = SystemVariant.DIRECT) -> np.ndarray:
    """Lower unitriangular matrices of the Weyl functions.

    lams is a scalar, giving (3, 3), or a 1-D array of L points, giving
    (L, 3, 3) from one sweep of 2L, both families at every point.
    Raises NearPoleError naming the first lambda at a pole.
    """
    z = np.atleast_1d(np.asarray(lams, dtype=complex))
    L = z.shape[0]
    a = _char_arrays(coeffs, np.tile(z, 2), np.repeat([1, 2], L), variant,
                     with_dlambda=True)
    a1, a2 = a.take(slice(L)), a.take(slice(L, None))
    _pole_guard(a1.delta, a1.ddelta, z, "Delta_{1,1}")
    _pole_guard(a2.delta, a2.ddelta, z, "Delta_{2,2}")
    m = np.broadcast_to(_EYE, (L, 3, 3)).copy()
    m[:, 1, 0] = -a1.numer / a1.delta
    m[:, 2, 0] = -a1.gamma_numer / a1.delta
    m[:, 2, 1] = -a2.numer / a2.delta
    return m[0] if np.ndim(lams) == 0 else m


_E2 = np.array([[0.0], [1.0], [0.0]], dtype=complex)
_E3 = np.array([[0.0], [0.0], [1.0]], dtype=complex)
_E23 = np.hstack([_E2, _E3])


def weyl_batch(coeffs: CoefficientPair, lams, variant: SystemVariant,
               k: int) -> np.ndarray:
    """Phi_k trajectories (L, M+1, 3) for a batch of lambdas, k in
    {1, 2, 3}.

    Phi_3 is the third fundamental solution; Phi_1 is the backward
    solution from (0, 0, 1) at x = 1, normalized to y(0) = 1; Phi_2 is
    integrated backward from terminal data where it does not grow
    (middle exponent non-positive) and forward as C_2 + M_{3,2} C_3
    otherwise.  Characteristic family k is swept for Phi_1 and Phi_2
    (the pole guard, and M_{3,2} = -Delta_{3,2}/Delta_{2,2}); Phi_3
    needs none.
    """
    if k not in (1, 2, 3):
        raise ValueError("no Weyl solution Phi_%s" % k)
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    if k == 3:
        full = _sweep(coeffs, variant, lams, _E3, store=True)
        return np.transpose(full[:, :, :, 0], (1, 0, 2))
    a = _char_arrays(coeffs, lams, k, variant, with_dlambda=True)
    _pole_guard(a.delta, a.ddelta, lams, "the k=%d characteristic" % k)
    if k == 1:
        u = _sweep(coeffs, variant, lams, _E3, backward=True,
                   store=True)[:, :, :, 0]
        return np.transpose(u / u[0, :, :1], (1, 0, 2))
    phi2 = np.empty((lams.shape[0], coeffs.grid.M + 1, 3), dtype=complex)
    # the middle exponent of r^3 = c lambda, c the lambda sign of the system
    back = asympt.root_rates(variant.value * lams)[:, 1] <= _ROUTE_EPS
    if back.any():
        basis = _sweep(coeffs, variant, lams[back], _E23,
                       backward=True, store=True)
        # (M+1, Lb, 3, 2); match (y, y') at x = 0 to (0, 1)
        A = basis[0][:, :2, :]
        rhs = np.broadcast_to(np.array([0.0, 1.0], dtype=complex),
                              (int(back.sum()), 2))
        coef = np.linalg.solve(A, rhs[..., None])[..., 0]
        phi2[back] = np.transpose(
            np.einsum("mlik,lk->mli", basis, coef), (1, 0, 2))
    if (~back).any():
        init = np.zeros((int((~back).sum()), 3, 1), dtype=complex)
        init[:, 1, 0] = 1.0
        init[:, 2, 0] = -a.numer[~back] / a.delta[~back]   # M_{3,2}
        full = _sweep(coeffs, variant, lams[~back], init, store=True)
        phi2[~back] = np.transpose(full[:, :, :, 0], (1, 0, 2))
    return phi2


# ---------------------------------------------------------------------------
# Weight matrices


def weight_matrix(data: SpectralData, n: int, k: int) -> np.ndarray:
    """Closed-form weight matrix at lambda_{n,k} from stored data: both
    families' entries on K, family k's elsewhere."""
    data._check_index(n, k)
    out = np.zeros((3, 3), dtype=complex)
    on_K = n in data.K
    if on_K or k == 1:
        out[1, 0] = -data.betas[n - 1, 0]
    if on_K or k == 2:
        out[2, 1] = -data.betas[n - 1, 1]
    if on_K:
        out[2, 0] = -data.gamma[n]
    return out


def laurent_coefficients(fn, center: complex, radius: float | None = None):
    """(A_{-1}, A_0) of a meromorphic function by circle quadrature.

    fn is called once with the array of the _CONTOUR_POINTS = 64
    contour points and must return an array with a leading axis of that
    length (scalar or matrix values per point).  Trapezoid quadrature on
    a circle is spectrally accurate, so 64 points are ample for a simple
    pole well inside the circle.
    """
    if radius is None:
        radius = 1e-3 * (1.0 + abs(center))
    npts = _CONTOUR_POINTS
    th = 2.0 * np.pi * np.arange(npts) / npts
    zs = center + radius * np.exp(1j * th)
    stack = np.asarray(fn(zs), dtype=complex)
    if stack.ndim == 0 or stack.shape[0] != npts:
        raise ValueError(
            "contour callback must return a leading axis of length %d, "
            "got shape %s" % (npts, stack.shape))
    phase = np.exp(1j * th).reshape((npts,) + (1,) * (stack.ndim - 1))
    a_m1 = radius / npts * (stack * phase).sum(axis=0)
    a_0 = stack.mean(axis=0)
    return a_m1, a_0
