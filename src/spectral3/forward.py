"""Forward spectral map: characteristic functions, eigenvalues, weight
numbers, Weyl matrices and solutions.

Two numerical routes matter here.

Characteristic determinants.  The minors Delta_{j,1} formed literally
from products of fundamental values cancel catastrophically once
|lambda|^(1/3) is large (products grow like e^(3 rho x) while the minor
itself stays of size e^(rho x)).  The 2x2 minors of DIRECT solutions,
however, satisfy the STAR system themselves, so a second sweep with
identity initial data reads all Delta_{j,1} off directly as first
components, with no products formed.  The literal formulas are kept in
characteristic_literal as an independent cross-check for moderate
|lambda|.

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
from .grid import CoefficientPair, Grid, integrate
from .quasi import SystemVariant, _sweep
from .serialize import complex_pair, dumps17, pair_complex

__all__ = [
    "CharacteristicValues",
    "SpectralDatum",
    "SpectralData",
    "WeylTable",
    "characteristic",
    "characteristic_literal",
    "find_eigenvalue",
    "weight_beta",
    "weight_gamma",
    "detect_K",
    "compute_spectral_data",
    "weyl_matrix",
    "weyl_solutions",
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
_PAIR_TOL = 1e-8
_BETA_SNAP = 1e-5
_POLE_TOL = 1e-10
_CONTOUR_POINTS = 64

# Integration direction switch for Phi_2: backward when the middle
# exponent does not grow.
_ROUTE_EPS = 1e-12


@dataclass
class CharacteristicValues:
    """Values of the five characteristic determinants at one lambda.

    d11 = Delta_{1,1}, d21 = Delta_{2,1}, d31 = Delta_{3,1},
    d22 = Delta_{2,2} = C_3(1), d32 = Delta_{3,2} = C_2(1); c11 = C_1(1)
    completes the top row of the fundamental matrix.  ddot11 and ddot22
    are the lambda-derivatives of the two diagonal determinants when
    requested.
    """

    d11: complex
    d21: complex
    d31: complex
    d22: complex
    d32: complex
    c11: complex
    ddot11: complex | None = None
    ddot22: complex | None = None


def _char_arrays(coeffs: CoefficientPair, lams,
                 variant: SystemVariant = SystemVariant.DIRECT,
                 with_dlambda=False, families=(1, 2)) -> dict:
    """Characteristic values of the variant for a batch of lambdas.

    Family 2 (d22, d32, c11, ddot22) is the top fundamental row of the
    variant's own sweep.  Family 1 (d11, d21, d31, ddot11) is the top row
    of the dual sweep, which carries the wedge minors of the variant's
    solutions.  Only the requested families are swept.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    out: dict = {"lams": lams}
    for k in families:
        v = variant if k == 2 else SystemVariant(-variant.value)
        res = _sweep(coeffs, v, lams, _EYE, with_dlambda=with_dlambda)
        Y, dY = res if with_dlambda else (res, None)
        if k == 1:
            out["d11"], out["d21"] = -Y[:, 0, 2], -Y[:, 0, 1]
            out["d31"] = Y[:, 0, 0]
            if with_dlambda:
                out["ddot11"] = -dY[:, 0, 2]
        else:
            out["d22"], out["d32"] = Y[:, 0, 2], Y[:, 0, 1]
            out["c11"] = Y[:, 0, 0]
            if with_dlambda:
                out["ddot22"] = dY[:, 0, 2]
    return out


def characteristic(coeffs: CoefficientPair, lam: complex,
                   with_dlambda: bool = False) -> CharacteristicValues:
    """All five characteristic determinants at lambda (stable route)."""
    a = _char_arrays(coeffs, [lam], with_dlambda=with_dlambda)
    return CharacteristicValues(
        d11=complex(a["d11"][0]), d21=complex(a["d21"][0]),
        d31=complex(a["d31"][0]), d22=complex(a["d22"][0]),
        d32=complex(a["d32"][0]), c11=complex(a["c11"][0]),
        ddot11=complex(a["ddot11"][0]) if with_dlambda else None,
        ddot22=complex(a["ddot22"][0]) if with_dlambda else None,
    )


def characteristic_literal(coeffs: CoefficientPair, lam: complex,
                           with_dlambda: bool = False,
                           variant: SystemVariant = SystemVariant.DIRECT
                           ) -> CharacteristicValues:
    """Characteristic determinants from literal 2x2 products.

    One sweep of the requested variant, minors formed from the
    fundamental values at x = 1.  Subject to cancellation at large
    |lambda|; serves as an independent cross-check of characteristic().
    With variant = STAR this yields the star determinants Delta*.
    """
    res = _sweep(coeffs, variant, np.array([lam], dtype=complex), _EYE,
                 with_dlambda=with_dlambda)
    Y, dY = res if with_dlambda else (res, None)
    y0, y1 = Y[0, 0, :], Y[0, 1, :]

    def minor(a, b):
        return y0[a] * y1[b] - y0[b] * y1[a]

    vals = CharacteristicValues(
        d11=complex(-minor(1, 2)),
        d21=complex(-minor(0, 2)),
        d31=complex(minor(0, 1)),
        d22=complex(y0[2]),
        d32=complex(y0[1]),
        c11=complex(y0[0]),
    )
    if with_dlambda:
        z0, z1 = dY[0, 0, :], dY[0, 1, :]

        def dminor(a, b):
            return (z0[a] * y1[b] + y0[a] * z1[b]
                    - z0[b] * y1[a] - y0[b] * z1[a])

        vals.ddot11 = complex(-dminor(1, 2))
        vals.ddot22 = complex(z0[2])
    return vals


# ---------------------------------------------------------------------------
# Eigenvalue search


def _newton_tol(dd: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return _NEWTON_TOL * (1.0 + np.abs(dd) * np.abs(lam) ** (2.0 / 3.0))


def _newton_family(coeffs: CoefficientPair, k: int, ns, guesses,
                   theta: complex) -> np.ndarray:
    """Batched Newton on Delta_{k,k} for one family of indices.

    Each iteration sweeps family k alone over the active set.
    """
    ns = np.asarray(ns, dtype=int)
    lam = np.asarray(guesses, dtype=complex).copy()
    key, dkey = ("d11", "ddot11") if k == 1 else ("d22", "ddot22")
    active = np.ones(lam.shape[0], dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        if not active.any():
            break
        a = _char_arrays(coeffs, lam[active], with_dlambda=True,
                         families=(k,))
        delta, ddelta = a[key], a[dkey]
        idx = np.flatnonzero(active)
        conv = np.abs(delta) <= _newton_tol(ddelta, lam[active])
        small = (np.abs(ddelta) < _DERIV_FLOOR) & ~conv
        if small.any():
            j = idx[int(np.flatnonzero(small)[0])]
            raise DerivativeVanishesError(int(ns[j]), k, complex(lam[j]))
        step = np.where(conv, 0.0, delta / ddelta)
        lam[idx] = lam[idx] - step
        active[idx[conv]] = False
    if active.any():
        j = int(np.flatnonzero(active)[0])
        raise NoConvergenceError(int(ns[j]), k, complex(lam[j]),
                                 _NEWTON_MAX_ITER)
    for j, n in enumerate(ns):
        n_found = asympt.invert_index(lam[j], k, theta)
        if n_found != int(n):
            raise BasinEscapeError(int(n), k, complex(lam[j]), n_found)
    return lam


def find_eigenvalue(coeffs: CoefficientPair, n: int, k: int,
                    guess: complex | None = None,
                    theta: complex | None = None) -> complex:
    """Newton search for lambda_{n,k} from an asymptotic (or given) seed."""
    if theta is None:
        theta = integrate(coeffs.tau1)
    if guess is None:
        guess = asympt.eigen_guess(n, k, theta)
    lam = _newton_family(coeffs, k, [n], [guess], theta)
    return complex(lam[0])


def weight_beta(coeffs: CoefficientPair, lam: complex, k: int) -> complex:
    """beta = Delta_{k+1,k}(lambda) / (d/dlambda) Delta_{k,k}(lambda)."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    a = _char_arrays(coeffs, [lam], with_dlambda=True, families=(k,))
    num, den = ("d21", "ddot11") if k == 1 else ("d32", "ddot22")
    return complex(a[num][0]) / complex(a[den][0])


def weight_gamma(coeffs: CoefficientPair, lam_n: complex,
                 beta1: complex, beta2: complex) -> complex:
    """Additional weight number for a coinciding eigenvalue pair.

    Defined through whichever weight number vanishes: via
    Delta_{3,1}/dDelta_{1,1} when beta_{n,1} = 0, via
    C_1(1)/dDelta_{2,2} when beta_{n,2} = 0.  When both vanish the two
    expressions must agree; this is asserted.
    """
    c = characteristic(coeffs, lam_n, with_dlambda=True)
    return _gamma(lam_n, c.d31 / c.ddot11, c.c11 / c.ddot22, beta1, beta2)


def _gamma(lam_n: complex, g1: complex, g2: complex,
           beta1: complex, beta2: complex) -> complex:
    """gamma_n from its two definitions g1 = Delta_{3,1}/dDelta_{1,1}
    and g2 = C_1(1)/dDelta_{2,2} at lambda_n (see weight_gamma)."""
    if beta1 == 0 and beta2 == 0:
        if abs(g1 - g2) > 1e-6 * (1.0 + abs(g1)):
            raise Spectral3Error(
                "the two gamma definitions disagree at lambda=%s: %s vs %s"
                % (lam_n, g1, g2))
        gamma = g1
    elif beta1 == 0:
        gamma = g1
    elif beta2 == 0:
        gamma = g2
    else:
        raise GammaZeroError(
            "gamma requested at lambda=%s where neither weight number vanishes"
            % (lam_n,))
    if abs(gamma) <= 1e-12 * (1.0 + abs(lam_n)):
        raise GammaZeroError("gamma vanished at lambda=%s" % (lam_n,))
    return complex(gamma)


def detect_K(lam1, lam2, tol: float = _PAIR_TOL):
    """Pair the two spectra and find coinciding indices.

    Greedy nearest matching of lambda_{n,1} against the unused entries
    of the second family; a match within tol*(1+|lambda|) pins the
    reordering n = p.  Returns (K, perm) with perm the permutation to
    apply to the second family's arrays.
    """
    lam1 = np.asarray(lam1, dtype=complex)
    lam2 = np.asarray(lam2, dtype=complex)
    N = lam1.shape[0]
    used = np.zeros(N, dtype=bool)
    match = -np.ones(N, dtype=int)
    K: list[int] = []
    for i in range(N):
        gaps = np.abs(lam2 - lam1[i])
        gaps[used] = np.inf
        j = int(np.argmin(gaps))
        if gaps[j] <= tol * (1.0 + abs(lam1[i])):
            match[i] = j
            used[j] = True
            K.append(i + 1)
    free = [j for j in range(N) if not used[j]]
    perm = np.empty(N, dtype=int)
    for i in range(N):
        perm[i] = match[i] if match[i] >= 0 else free.pop(0)
    return K, perm


def compute_spectral_data(coeffs: CoefficientPair, n_max: int,
                          pair_tol: float = _PAIR_TOL) -> "SpectralData":
    """The full forward map: coefficients -> spectral data up to n_max."""
    theta = integrate(coeffs.tau1)
    ns = np.arange(1, n_max + 1)
    g1 = np.array([asympt.eigen_guess(n, 1, theta) for n in ns])
    g2 = np.array([asympt.eigen_guess(n, 2, theta) for n in ns])
    lam1 = _newton_family(coeffs, 1, ns, g1, theta)
    lam2 = _newton_family(coeffs, 2, ns, g2, theta)

    K, perm = detect_K(lam1, lam2, pair_tol)
    lam2 = lam2[perm]
    for n in K:
        lam2[n - 1] = lam1[n - 1]

    a1 = _char_arrays(coeffs, lam1, with_dlambda=True, families=(1,))
    a2 = _char_arrays(coeffs, lam2, with_dlambda=True, families=(2,))
    beta1 = a1["d21"] / a1["ddot11"]
    beta2 = a2["d32"] / a2["ddot22"]

    # Exactly one weight number vanishes on each coinciding pair (both in
    # the symmetric case); snap the numerically-zero one to exact zero.
    for n in K:
        scale = _BETA_SNAP * (1.0 + 3.0 * abs(lam1[n - 1]))
        b1, b2 = beta1[n - 1], beta2[n - 1]
        if abs(b1) > scale and abs(b2) > scale:
            raise Spectral3Error(
                "coinciding pair n=%d has no vanishing weight number "
                "(|beta|=%g, %g)" % (n, abs(b1), abs(b2)))
        if abs(b1) <= scale:
            beta1[n - 1] = 0.0
        if abs(b2) <= scale:
            beta2[n - 1] = 0.0

    # On K both families sit at the same lambda, so the two weight
    # batches already hold both gamma definitions there.
    gamma = {n: _gamma(complex(lam1[n - 1]),
                       complex(a1["d31"][n - 1] / a1["ddot11"][n - 1]),
                       complex(a2["c11"][n - 1] / a2["ddot22"][n - 1]),
                       complex(beta1[n - 1]), complex(beta2[n - 1]))
             for n in K}
    return SpectralData(theta=complex(theta), n_max=n_max,
                        lam1=lam1, lam2=lam2, beta1=beta1, beta2=beta2,
                        K=list(K), gamma=gamma)


# ---------------------------------------------------------------------------
# Spectral data container


@dataclass
class SpectralDatum:
    n: int
    k: int
    lam: complex
    beta: complex


@dataclass
class SpectralData:
    """Eigenvalues and weight numbers of the two boundary problems.

    Arrays are indexed by n-1; K lists the indices with coinciding
    eigenvalues lambda_{n,1} = lambda_{n,2} (stored identically in both
    arrays), each carrying the extra weight gamma_n.
    """

    theta: complex
    n_max: int
    lam1: np.ndarray
    lam2: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    K: list = field(default_factory=list)
    gamma: dict = field(default_factory=dict)
    diagnostics: dict | None = None

    def __post_init__(self):
        for name in ("lam1", "lam2", "beta1", "beta2"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != (self.n_max,):
                raise ValueError("%s must have length n_max=%d" % (name, self.n_max))
            setattr(self, name, arr)
        self.K = sorted(int(n) for n in self.K)
        if any(not 1 <= n <= self.n_max for n in self.K):
            raise ValueError("K indices %s are not all in 1..n_max=%d"
                             % (self.K, self.n_max))
        for a, b in zip(self.K, self.K[1:]):
            if a == b:
                raise ValueError("K lists n=%d more than once" % a)
        self.gamma = {int(n): complex(g) for n, g in self.gamma.items()}
        if set(self.gamma) != set(self.K):
            raise ValueError("gamma must be given exactly on K")
        # Coinciding pairs are stored with bitwise-equal eigenvalues so
        # the kernel branch selection is deterministic.
        for n in self.K:
            gap = abs(self.lam1[n - 1] - self.lam2[n - 1])
            if gap > 1e-6 * (1.0 + abs(self.lam1[n - 1])):
                raise ValueError(
                    "n=%d is marked coinciding but the eigenvalues differ "
                    "by %g" % (n, gap))
            self.lam2[n - 1] = self.lam1[n - 1]

    def lam(self, n: int, k: int) -> complex:
        self._check_index(n, k)
        return complex((self.lam1 if k == 1 else self.lam2)[n - 1])

    def beta(self, n: int, k: int) -> complex:
        self._check_index(n, k)
        return complex((self.beta1 if k == 1 else self.beta2)[n - 1])

    def entry(self, n: int, k: int) -> SpectralDatum:
        return SpectralDatum(n, k, self.lam(n, k), self.beta(n, k))

    @property
    def entries(self) -> list:
        return [self.entry(n, k)
                for n in range(1, self.n_max + 1) for k in (1, 2)]

    def _check_index(self, n: int, k: int) -> None:
        if not (1 <= n <= self.n_max) or k not in (1, 2):
            raise IndexError("no entry (n=%s, k=%s)" % (n, k))

    def copy(self) -> "SpectralData":
        return SpectralData(self.theta, self.n_max,
                            self.lam1.copy(), self.lam2.copy(),
                            self.beta1.copy(), self.beta2.copy(),
                            list(self.K), dict(self.gamma),
                            None if self.diagnostics is None
                            else dict(self.diagnostics))

    def truncate(self, N: int) -> "SpectralData":
        if N > self.n_max:
            raise ValueError("cannot truncate to N=%d > n_max=%d" % (N, self.n_max))
        K = [n for n in self.K if n <= N]
        return SpectralData(self.theta, N,
                            self.lam1[:N].copy(), self.lam2[:N].copy(),
                            self.beta1[:N].copy(), self.beta2[:N].copy(),
                            K, {n: self.gamma[n] for n in K})


def save_spectral_data(path, data: SpectralData) -> None:
    obj = {
        "theta": complex_pair(data.theta),
        "n_max": data.n_max,
        "entries": [
            {"n": d.n, "k": d.k,
             "lambda": complex_pair(d.lam), "beta": complex_pair(d.beta)}
            for d in data.entries
        ],
        "K": [{"n": n, "gamma": complex_pair(data.gamma[n])} for n in data.K],
    }
    if data.diagnostics is not None:
        obj["diagnostics"] = data.diagnostics
    with open(path, "w") as fh:
        fh.write(dumps17(obj))


def load_spectral_data(path) -> SpectralData:
    import json

    with open(path) as fh:
        obj = json.load(fh)
    n_max = int(obj["n_max"])
    lam = {1: np.zeros(n_max, dtype=complex), 2: np.zeros(n_max, dtype=complex)}
    beta = {1: np.zeros(n_max, dtype=complex), 2: np.zeros(n_max, dtype=complex)}
    seen = set()
    for ent in obj["entries"]:
        n, k = int(ent["n"]), int(ent["k"])
        if not (1 <= n <= n_max) or k not in (1, 2):
            raise ValueError("entry (n=%s, k=%s) out of range" % (n, k))
        lam[k][n - 1] = pair_complex(ent["lambda"])
        beta[k][n - 1] = pair_complex(ent["beta"])
        seen.add((n, k))
    if len(seen) != 2 * n_max:
        raise ValueError("spectral-data file must cover n = 1..n_max for k = 1, 2")
    K = [int(e["n"]) for e in obj.get("K", [])]
    gamma = {int(e["n"]): pair_complex(e["gamma"]) for e in obj.get("K", [])}
    return SpectralData(theta=pair_complex(obj["theta"]), n_max=n_max,
                        lam1=lam[1], lam2=lam[2], beta1=beta[1], beta2=beta[2],
                        K=K, gamma=gamma, diagnostics=obj.get("diagnostics"))


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


def _weyl_from_arrays(a: dict) -> np.ndarray:
    """(L, 3, 3) Weyl matrices from characteristic arrays of both
    families with d/dlambda."""
    _pole_guard(a["d11"], a["ddot11"], a["lams"], "Delta_{1,1}")
    _pole_guard(a["d22"], a["ddot22"], a["lams"], "Delta_{2,2}")
    out = np.broadcast_to(_EYE, (a["lams"].shape[0], 3, 3)).copy()
    out[:, 1, 0] = -a["d21"] / a["d11"]
    out[:, 2, 0] = -a["d31"] / a["d11"]
    out[:, 2, 1] = -a["d32"] / a["d22"]
    return out


def weyl_matrix(coeffs: CoefficientPair, lams,
                variant: SystemVariant = SystemVariant.DIRECT) -> np.ndarray:
    """Lower unitriangular matrices of the Weyl functions.

    lams is a scalar, giving (3, 3), or a 1-D array of L points, giving
    (L, 3, 3) from one sweep of each family over all of them.
    Raises NearPoleError naming the first lambda at a pole.
    """
    m = _weyl_from_arrays(_char_arrays(coeffs, lams, variant,
                                       with_dlambda=True))
    return m[0] if np.ndim(lams) == 0 else m


@dataclass
class WeylTable:
    """Quasi-derivative trajectories of the three Weyl solutions."""

    grid: Grid
    variant: SystemVariant
    lam: complex
    states: np.ndarray  # (3, M+1, 3): solution, node, quasi-derivative order
    m: np.ndarray       # the Weyl matrix used/implied

    def y(self, k: int, order: int = 0) -> np.ndarray:
        return self.states[k - 1, :, order]


_E2 = np.array([[0.0], [1.0], [0.0]], dtype=complex)
_E3 = np.array([[0.0], [0.0], [1.0]], dtype=complex)
_E23 = np.hstack([_E2, _E3])


def weyl_batch(coeffs: CoefficientPair, lams, variant: SystemVariant,
               ks=(2, 3)) -> dict:
    """Phi_k trajectories for a batch of lambdas, k in {1, 2, 3}.

    Returns {k: array (L, M+1, 3)}.  Phi_3 is the third fundamental
    solution; Phi_1 is the backward solution from (0, 0, 1) at x = 1,
    normalized to y(0) = 1; Phi_2 is integrated backward from terminal
    data where it does not grow (middle exponent non-positive) and
    forward as C_2 + M_{3,2} C_3 otherwise.  Each characteristic family
    is swept only when read: family 1 for Phi_1's pole guard, family 2
    for Phi_2; Phi_3 needs neither.
    """
    a = _char_arrays(coeffs, lams, variant, with_dlambda=True,
                     families=tuple(k for k in (1, 2) if k in ks))
    return _weyl_states(coeffs, variant, a, ks)


def _weyl_states(coeffs: CoefficientPair, variant: SystemVariant, a: dict,
                 ks) -> dict:
    """weyl_batch at the lambdas of the characteristic arrays a of the
    variant, with d/dlambda: Phi_1 reads family 1, Phi_2 family 2, Phi_3
    only a["lams"]."""
    out: dict = {}
    if 1 in ks:
        _pole_guard(a["d11"], a["ddot11"], a["lams"],
                    "the k=1 characteristic")
        u = _sweep(coeffs, variant, a["lams"], _E3, backward=True,
                   store=True)[:, :, :, 0]
        out[1] = np.transpose(u / u[0, :, :1], (1, 0, 2))
    if 2 in ks:
        out[2] = _phi2_states(coeffs, variant, a)
    if 3 in ks:
        full = _sweep(coeffs, variant, a["lams"], _E3, store=True)
        out[3] = np.transpose(full[:, :, :, 0], (1, 0, 2))
    return out


def _phi2_states(coeffs: CoefficientPair, variant: SystemVariant,
                 a: dict) -> np.ndarray:
    """Phi_2 trajectories (L, M+1, 3) at the lambdas of the family 2
    characteristic arrays a of the variant (computed with d/dlambda)."""
    lams = a["lams"]
    L = lams.shape[0]
    M = coeffs.grid.M
    _pole_guard(a["d22"], a["ddot22"], lams, "the k=2 characteristic")
    m32 = -a["d32"] / a["d22"]
    phi2 = np.empty((L, M + 1, 3), dtype=complex)
    c = variant.value  # the lambda sign of the system
    rates = np.array([asympt.root_rates(c * complex(l))[1] for l in lams])
    back = rates <= _ROUTE_EPS
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
        init[:, 2, 0] = m32[~back]
        full = _sweep(coeffs, variant, lams[~back], init, store=True)
        phi2[~back] = np.transpose(full[:, :, :, 0], (1, 0, 2))
    return phi2


def weyl_solutions(coeffs: CoefficientPair, lam: complex,
                   variant: SystemVariant = SystemVariant.DIRECT) -> WeylTable:
    """All three Weyl solutions of the variant at one lambda."""
    a = _char_arrays(coeffs, [lam], variant, with_dlambda=True)
    m = _weyl_from_arrays(a)[0]  # includes the pole guards
    phi = _weyl_states(coeffs, variant, a, (1, 2, 3))
    states = np.stack([phi[k][0] for k in (1, 2, 3)])
    return WeylTable(coeffs.grid, variant, complex(lam), states, m)


# ---------------------------------------------------------------------------
# Weight matrices


def weight_matrix(data: SpectralData, n: int, k: int) -> np.ndarray:
    """Closed-form weight matrix at lambda_{n,k} from stored data."""
    data._check_index(n, k)
    out = np.zeros((3, 3), dtype=complex)
    if n in data.K:
        out[1, 0] = -data.beta(n, 1)
        out[2, 1] = -data.beta(n, 2)
        out[2, 0] = -data.gamma[n]
    elif k == 1:
        out[1, 0] = -data.beta(n, 1)
    else:
        out[2, 1] = -data.beta(n, 2)
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
