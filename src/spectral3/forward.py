"""Forward spectral map: characteristic functions, eigenvalues, weight
numbers, Weyl matrices and solutions.  The spectral data are one
(n_max, 2) table per quantity (SpectralData), [n-1, k-1] holding family
k, into which compute_spectral_data reshapes Newton's family-major roots.

Newton seeds.  The formula of asympt.eigen_guess misses the
remainders and the RK4 error: on data/smooth.csv at M = 512 it is
5.8e-5 off lambda_{10,k}, relative.  The eigenvalues lambda~_{n,k} of
the constant model tau1 = theta, sigma0 = 0 on the same grid carry
both, up to the boundary shift

    (-1)^(k+1) (tau1(0) + tau1(1) - 2 theta) + sigma0(1) - sigma0(0),

to which lambda_{n,k} - lambda~_{n,k} tends.  They cost little, since
constant sweeps are powers of one step matrix (quasi).  So the entries
n >= 7 start from lambda~_{n,k} plus that shift (_seeds), 2.1e-8 off
lambda_{10,k} there.  Each Newton evaluation, the model's included, is
one sweep of Taylor order 2, whose quadratic in lambda is
certified before a root is read off it (_newton_family); from these
seeds most entries n >= 7 are accepted from their first evaluation
instead of their second.

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
the family 2 ones, each with its own variant.  The literal formulas
live in the tests (tests/helpers.py) as an independent cross-check for
moderate |lambda|.

Self-adjoint class.  Conjugating the STAR system at lambda gives the
DIRECT system at -conj(lambda) on the pair (conj tau1, -conj sigma0)
(quasi), and for tau1 real and sigma0 purely imaginary that pair is the
pair itself.  Family 1 is swept in STAR and family 2 in DIRECT, both
with the same RK4 operations from real identity data, and the seeds
mirror too, so family 2's search is family 1's mirrored bit for bit:
lambda, delta and numer by -conj (_mirror), gamma_numer and ddelta by
+conj.  An exact zero has no sign that mirrors (x - x rounds to +0 in
either family), and the record often holds one: delta at an accepted
root, and every zero imaginary part on a constant pair, whose values
are all real.  So every zero of the record carries the sign +, in the
search and in the mirror (_roots).  A pair exactly in the class (every
tau1 sample with imaginary part 0, every sigma0 sample with real part
0) therefore searches family 1 alone and mirrors family 2 (_roots); a
pair off the class by any amount searches both.

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
from .quasi import SystemVariant, _guard_resolution, _sweep
from .serialize import (complex_pair, dumps17, json_int, pair_complex,
                        read_json)

__all__ = [
    "SpectralData",
    "check_order",
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
# Each Newton evaluation is one sweep of this Taylor order (_newton_family).
_NEWTON_ORDER = 2
_NEWTON_TOL = 1e-12
_DERIV_FLOOR = 1e-14
_BETA_SNAP = 1e-5
_POLE_TOL = 1e-10
_CONTOUR_POINTS = 32

# The pole guard sweeps dDelta/dlambda only at the suspects, the lambdas
# with |Delta| <= _SUSPECT ||row||, ||row|| = max(|delta|, |numer|,
# |gamma_numer|), the top row of the fundamental matrix.  Its test
# |Delta| <= _POLE_TOL (1 + |lambda|) |dDelta| can pass only at a suspect
# while (1 + |lambda|) |dDelta| <= 1000 ||row||; measured, it stayed
# below 0.14 ||row|| on 1000 lambdas up to the resolution guard at
# M = 512 (zero, smooth and general pairs, both variants and families).
_SUSPECT = 1e-7

# Newton seeds of the entries n >= _MODEL_SEED_FROM come from the constant
# model (_seeds).  Measured on perfbench bank pairs 0-7 and
# data/smooth.csv at n_max 30, M = 512, with the order-2 Newton: from
# asympt.eigen_guess every n >= 7 takes 2 evaluations; from the model
# seeds all but 1 to 6 of the 24 or 48 entries n >= 7 take 1, while
# n <= 6 take 2 (3 for one entry of data/smooth.csv).
_MODEL_SEED_FROM = 7

# Integration direction switch for Phi_2: backward when the middle
# exponent does not grow.
_ROUTE_EPS = 1e-12

# A plain request whose lambdas of each family lie in a disc of radius r
# about their mean c is read off one sweep at c carrying Taylor blocks up
# to the order J of _taylor_order (_taylor_rows).  The decay model: the
# terms |T_j| r^j of the top row, relative to its largest entry, stay
# below a^j / j!, a = r / (3 max(1, |c|)^(2/3)), the series of
# e^(rho(lambda)) with d rho / d lambda = 1 / (3 rho^2), rho = lambda^(1/3).
# Measured on the zero, smooth, general and sample pairs at M = 512
# around lambda_{n,k}, n <= 30, at the contour radius 1e-3 (1 + |c|),
# they came within 2% of it at j = 1 and 2 and fell below it after; on
# constant pairs with |tau1| up to 100 and |lambda| from 0 to 3000 they
# stayed within 5x of it from j = 4 on.  J is the smallest order whose
# next term the model puts below 2^-53 / _TAYLOR_SAFETY of the row.  On
# such a contour |Delta_{k,k}| is 3e-6 to 8e-5 of the row, so the factor
# keeps the model's truncation within a few ulp of Delta itself; the
# measured next terms (7e-29, 3.5e-23 and 2.5e-24 of the row at n = 1,
# 6, 30) stay below 1.2e-17 of Delta.  The rule gives J = 6 at n = 1, 7
# at n = 6, 10 at n = 30 and 12 at the resolution guard of M = 512.  A
# disc needing more than _TAYLOR_MAX_ORDER keeps the per-point sweep.
_TAYLOR_SAFETY = 1e5
_TAYLOR_MAX_ORDER = 16


class Characteristic(NamedTuple):
    """Characteristic values at L lambdas, each read in its own family k
    (the table in the module docstring): (L,) arrays, ddelta None
    without d/dlambda.  From a sweep of Taylor order J >= 2 the first
    three fields hold instead their Taylor blocks T_0, ..., T_J about
    each lambda, as (L, J + 1) arrays, and ddelta is None."""

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

    with_dlambda is the Taylor order J of the sweep, as for
    quasi._sweep: False (0) gives the values, True (1) adds ddelta, the
    lambda-derivative of delta, and J >= 2 gives each field's Taylor
    blocks (Characteristic), which Newton sums as quadratics
    (_newton_family).  A plain request whose lambdas cluster in each
    family reads the top row off one Taylor sweep at each family's
    centre (_taylor_rows).
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    first = np.broadcast_to(np.asarray(fams) == 1, lams.shape)
    c = np.where(first, -variant.value, variant.value)
    order = int(with_dlambda)
    Y = None if order else _taylor_rows(coeffs, lams, first, c)
    if Y is None:
        res = _sweep(coeffs, c, lams, _EYE, with_dlambda=order)
        Y = np.stack([r[:, 0] for r in res], axis=-1) if order else res[:, 0]
    # the top rows' Taylor blocks, (L, 3, J + 1)
    Y = Y.reshape(lams.shape[0], 3, order + 1)

    def signed(v):
        return np.where(first[:, None], -v, v)

    blocks = Characteristic(signed(Y[:, 2]), signed(Y[:, 1]), Y[:, 0])
    if order >= 2:
        return blocks
    values = blocks.take((slice(None), 0))
    return values._replace(ddelta=blocks.delta[:, 1]) if order else values


def _taylor_order(center: complex, radius: float) -> int:
    """The Taylor order J of a sweep at center that serves a disc of
    radius about it: the smallest J with _TAYLOR_SAFETY a^(J+1)/(J+1)!
    <= 2^-53, a = radius / (3 max(1, |center|)^(2/3)), or
    _TAYLOR_MAX_ORDER + 1 when no J up to the cap qualifies."""
    a = radius / (3.0 * max(1.0, abs(center)) ** (2.0 / 3.0))
    term = 1.0
    for j in range(1, _TAYLOR_MAX_ORDER + 2):
        term *= a / j
        if _TAYLOR_SAFETY * term <= 2.0 ** -53:
            return j - 1
    return _TAYLOR_MAX_ORDER + 1


def _taylor_rows(coeffs: CoefficientPair, lams: np.ndarray,
                 first: np.ndarray, c: np.ndarray):
    """The top rows (L, 3) at x = 1 of a plain request from one sweep of
    the centre (the mean) of each family's lambdas, carrying the Taylor
    blocks T_j up to the order of the widest disc (_taylor_order), each
    row summed by Horner as sum_j T_j (lambda - centre)^j.  None, for the
    per-point sweep, when a disc needs more than _TAYLOR_MAX_ORDER or the
    Taylor sweep would carry no fewer lanes than the per-point one
    ((J + 1) x families >= L: a scalar lambda, say, or none).  The
    resolution guard is applied to every lambda, as the per-point sweep
    does.
    """
    groups = [g for g in (first, ~first) if g.any()]
    centres = np.array([lams[g].mean() for g in groups])
    order = max((_taylor_order(z, np.abs(lams[g] - z).max())
                 for g, z in zip(groups, centres)), default=0)
    if order > _TAYLOR_MAX_ORDER or (order + 1) * len(groups) >= lams.size:
        return None
    _guard_resolution(lams, coeffs.grid.M)
    blocks = _sweep(coeffs, np.array([c[g][0] for g in groups]), centres,
                    _EYE, with_dlambda=order)
    # the centre of each lambda's family
    which = np.where(first, 0, len(groups) - 1)
    delta = (lams - centres[which])[:, None]
    return _horner([b[which, 0] for b in (blocks if order else (blocks,))],
                   delta)


def _horner(blocks, delta):
    """sum_j blocks[j] delta^j by Horner, over a sequence of Taylor
    blocks T_0, ..., T_J."""
    out = blocks[-1]
    for t in reversed(blocks[:-1]):
        out = out * delta + t
    return out


# ---------------------------------------------------------------------------
# Eigenvalue search


def _newton_tol(dd: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return _NEWTON_TOL * (1.0 + np.abs(dd) * np.abs(lam) ** (2.0 / 3.0))


def _quadratic(T: np.ndarray, d: np.ndarray) -> tuple:
    """P(d) and P'(d) of P(d) = T_0 + T_1 d + T_2 d^2, T (L, 3)."""
    return _horner(T.T, d), T[:, 1] + (T[:, 2] + T[:, 2]) * d


def _small_root(T: np.ndarray) -> np.ndarray:
    """The root of P (_quadratic) nearer 0, in the stable closed form
    -2 T_0 / q, q the one of T_1 +- sqrt(T_1^2 - 4 T_0 T_2) of the larger
    modulus."""
    s = np.sqrt(T[:, 1] ** 2 - 4.0 * T[:, 0] * T[:, 2])
    plus, minus = T[:, 1] + s, T[:, 1] - s
    return -2.0 * T[:, 0] / np.where(np.abs(plus) >= np.abs(minus),
                                     plus, minus)


def _newton_family(coeffs: CoefficientPair, k, ns, guesses,
                   theta: complex) -> tuple:
    """Batched Newton on Delta_{k,k} for entries of either family.

    k is the family of each entry (an array like ns) or one family for
    all.  Each iteration evaluates every active entry's own family at
    its lambda_e in one mixed sweep of Taylor order _NEWTON_ORDER = 2
    (_char_arrays with a per-lambda family), which gives each field of
    the record as a quadratic in d = lambda - lambda_e, and Delta_{k,k}
    as P(d) = T_0 + T_1 d + T_2 d^2.  Its root d* nearer 0
    (_small_root) is accepted at lambda* = lambda_e + d* when

        |P(d*)| + _TAYLOR_SAFETY ||row|| a^3 / 6
            <= _newton_tol(P'(d*), lambda*),
        a = |d*| / (3 max(1, |lambda_e|)^(2/3)),

    ||row|| the largest of |delta|, |numer| and |gamma_numer| at
    lambda_e: the decay model above _TAYLOR_SAFETY puts the omitted
    cubic term below ||row|| a^3 / 6, and the certificate takes it with
    that model's safety factor.  An entry that fails the test steps to
    lambda* and is evaluated again.  Returns the roots and the
    Characteristic record at them: the quadratics at d* (delta, numer
    and gamma_numer by Horner, ddelta = P'(d*)), so the weight numbers
    need no further sweep.  No sweep evaluates lambda*, so the
    resolution guard is applied to every accepted root.  A constant
    pair, the inverse's model among them (model.build_model), takes the
    same search, its sweeps on the power path of quasi._sweep.

    A failing entry leaves the active set while the others run on.  The
    failures are then raised family by family, 1 before 2, in the order
    of a search of that family alone: DerivativeVanishesError of the
    earliest iteration (lowest position first), for a first-order
    coefficient |T_1| (dDelta) below _DERIV_FLOOR at an entry not
    accepted, then NoConvergenceError of the first entry left
    unaccepted, then BasinEscapeError of the first root with another
    index.
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
        at = lam[idx]
        T = _char_arrays(coeffs, at, ks[idx], with_dlambda=_NEWTON_ORDER)
        # a vanishing first-order coefficient gives a non-finite root,
        # which is not accepted
        with np.errstate(divide="ignore", invalid="ignore"):
            d = _small_root(T.delta)
            p, dp = _quadratic(T.delta, d)
            record = (p, _horner(T.numer.T, d),
                      _horner(T.gamma_numer.T, d), dp)
            star = at + d
            row = np.abs([T.delta[:, 0], T.numer[:, 0],
                          T.gamma_numer[:, 0]]).max(axis=0)
            a = (np.abs(d)
                 / (3.0 * np.maximum(1.0, np.abs(at)) ** (2.0 / 3.0)))
            conv = (np.abs(p) + _TAYLOR_SAFETY * row * a ** 3 / 6.0
                    <= _newton_tol(dp, star))
        small = (np.abs(T.delta[:, 1]) < _DERIV_FLOOR) & ~conv
        vanished[idx[small]] = it
        _guard_resolution(star[conv], coeffs.grid.M)
        # + 0.0 gives every zero of the record the sign +, which the
        # self-adjoint mirror (_roots) keeps
        for dst, values in zip(last, record):
            dst[idx[conv]] = values[conv] + 0.0
        lam[idx[~small]] = star[~small]
        active[idx[conv | small]] = False
    _raise_failures(ns, ks, lam, active, vanished, theta)
    return lam, last


def _raise_failures(ns, ks, lam, active, vanished, theta) -> None:
    """Raise the failures of a Newton search in the order of
    _newton_family's docstring: active marks the entries left
    unconverged and vanished the iteration at which an entry's
    derivative vanished (_NEWTON_MAX_ITER where it did not)."""
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


def _seeds(coeffs: CoefficientPair, ns: np.ndarray, ks: np.ndarray,
           theta: complex) -> np.ndarray:
    """Newton seeds of the entries (ns, ks): asympt.eigen_guess, and for
    n >= _MODEL_SEED_FROM of a pair that is not constant the eigenvalue
    of the model pair (CoefficientPair.model) plus the boundary shift of
    the module docstring.  The model eigenvalues come from one
    _newton_family call seeded by eigen_guess, whose order-2 sweeps
    take the power path of quasi._sweep.  A constant pair is its own
    model and keeps eigen_guess everywhere.
    """
    seeds = asympt.eigen_guess(ns, ks, theta)
    far = ns >= _MODEL_SEED_FROM
    if not far.any() or coeffs.is_constant:
        return seeds
    tau1, sigma0 = coeffs.tau1.values, coeffs.sigma0.values
    model = CoefficientPair.model(coeffs.grid, theta)
    lam, _ = _newton_family(model, ks[far], ns[far], seeds[far], theta)
    sign = np.where(ks[far] == 1, 1.0, -1.0)   # (-1)^(k+1)
    seeds[far] = (lam + sign * (tau1[0] + tau1[-1] - 2.0 * theta)
                  + sigma0[-1] - sigma0[0])
    return seeds


def _mirror(z):
    """-conj(z): lambda_{n,2} and beta_{n,2} of a self-adjoint-class
    pair from lambda_{n,1} and beta_{n,1}."""
    return -np.conj(z)


def _roots(coeffs: CoefficientPair, n_max: int, theta: complex) -> tuple:
    """Newton's roots lambda_{n,k}, n <= n_max, with the Characteristic
    record at them, as family-major (2 n_max,) arrays, seeded by _seeds.
    A pair exactly in the self-adjoint class (module docstring) searches
    family 1 alone and takes family 2 as its mirror image, with every
    zero of the record given the sign + as the search gives it."""
    ns = np.arange(1, n_max + 1)
    ks = np.ones_like(ns)
    mirrored = not (coeffs.tau1.values.imag.any()
                    or coeffs.sigma0.values.real.any())
    if not mirrored:
        ns, ks = np.tile(ns, 2), np.repeat([1, 2], n_max)
    lam, a = _newton_family(coeffs, ks, ns, _seeds(coeffs, ns, ks, theta),
                            theta)
    if mirrored:
        lam = np.concatenate([lam, _mirror(lam)])
        a = Characteristic(*(np.concatenate([v, f(v) + 0.0]) for v, f in
                             zip(a, (_mirror, _mirror, np.conj, np.conj))))
    return lam, a


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

    One Newton search over both families (_roots), seeded by _seeds:
    the entries n >= 7 of a pair that is not constant from the constant
    model's eigenvalues plus the boundary shift, the others from
    asympt.eigen_guess.  A pair exactly in the self-adjoint class
    searches family 1 alone and mirrors family 2, bit for bit (module
    docstring), so its data satisfy the symmetry exactly outside K,
    where family 2 is swept again.  The weight numbers are read off
    Newton's record at each root (_newton_family), with no further
    sweep.  n_max must be at least 1, and pair_tol, the relative
    tolerance of asympt.coincide that pairs the two families, finite
    and non-negative."""
    if not 0.0 <= pair_tol < np.inf:
        raise ValueError("pair tolerance must be a finite number >= 0, "
                         "got %r" % (pair_tol,))
    if n_max < 1:
        raise ValueError("n_max must be at least 1, got %d" % n_max)
    theta = integrate(coeffs.tau1)
    lam, a = _roots(coeffs, n_max, theta)

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


def check_order(N: int, n_max: int) -> None:
    """Refuse a truncation order N outside 1..n_max (ValueError)."""
    if N < 1:
        raise ValueError("truncation order N must be at least 1, got %d" % N)
    if N > n_max:
        raise ValueError("N=%d exceeds the data range n_max=%d" % (N, n_max))


@dataclass
class SpectralData:
    """Eigenvalues and weight numbers of the two boundary problems.

    lambdas and betas are (n_max, 2) tables with [n-1, k-1] holding
    family k; K lists the indices with coinciding eigenvalues
    lambda_{n,1} = lambda_{n,2} (stored identically in both columns),
    each carrying the extra weight gamma_n.  theta, the tables and gamma
    must be finite.
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
        # K and the keys of gamma: integers (Python or numpy, not bool)
        # in 1..n_max, without repeats, and the same set
        for n in (*self.K, *self.gamma):
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValueError("K indices and gamma keys must be integers, "
                                 "got %r" % (n,))
        self.K = sorted(int(n) for n in self.K)
        if any(not 1 <= n <= self.n_max for n in self.K):
            raise ValueError("K indices %s are not all in 1..n_max=%d"
                             % (self.K, self.n_max))
        for a, b in zip(self.K, self.K[1:]):
            if a == b:
                raise ValueError("K lists n=%d more than once" % a)
        if set(self.gamma) != set(self.K):
            raise ValueError("gamma must be given exactly on K")
        self.gamma = {int(n): complex(g) for n, g in self.gamma.items()}
        for name, v in (("theta", self.theta), ("lambdas", self.lambdas),
                        ("betas", self.betas),
                        ("gamma", list(self.gamma.values()))):
            if not np.isfinite(v).all():
                raise ValueError("%s must be finite" % name)
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
        check_order(N, self.n_max)
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


def _lambda_points(lams) -> np.ndarray:
    """lams, a scalar or a 1-D array, as a 1-D complex array; any other
    shape or a non-finite lambda is refused (ValueError) before a
    sweep."""
    z = np.asarray(lams, dtype=complex)
    if z.ndim > 1:
        raise ValueError("lambdas must be a scalar or a 1-D array, "
                         "got shape %s" % (z.shape,))
    z = np.atleast_1d(z)
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        raise ValueError("lambda must be finite, got %s at index %d"
                         % (complex(z[bad[0]]), bad[0]))
    return z


def _pole_guard(coeffs: CoefficientPair, lams: np.ndarray, fams,
                variant: SystemVariant, a: Characteristic,
                labels: dict) -> None:
    """Raise NearPoleError naming the first lambda numerically at a zero
    of its family's Delta_{k,k}: |Delta| <= _POLE_TOL (1 + |lambda|)
    |dDelta|, where |Delta/dDelta| estimates the distance to the root.

    a is the plain record at lams, fams the family of each lambda (as
    for _char_arrays) and labels[k] the name of family k's Delta in the
    message.  Only the suspects, |Delta| <= _SUSPECT ||row||, are swept
    again, in one d/dlambda sweep, and tested.
    """
    row = np.abs([a.delta, a.numer, a.gamma_numer]).max(axis=0)
    idx = np.flatnonzero(np.abs(a.delta) <= _SUSPECT * row)
    if not idx.size:
        return
    fams = np.broadcast_to(fams, lams.shape)[idx]
    d = _char_arrays(coeffs, lams[idx], fams, variant, with_dlambda=True)
    near = np.flatnonzero(np.abs(d.delta) <= _POLE_TOL
                          * (1.0 + np.abs(lams[idx])) * np.abs(d.ddelta))
    if near.size:
        j = near[0]
        raise NearPoleError("lambda=%s is numerically at a zero of %s"
                            % (complex(lams[idx[j]]), labels[int(fams[j])]))


def weyl_matrix(coeffs: CoefficientPair, lams,
                variant: SystemVariant = SystemVariant.DIRECT) -> np.ndarray:
    """Lower unitriangular matrices of the Weyl functions.

    lams is a scalar, giving (3, 3), or a 1-D array of L points, giving
    (L, 3, 3) from one plain sweep of 2L, both families at every point,
    or, for points clustered in a small disc such as a contour, one
    Taylor sweep at its centre in each family (_char_arrays); another
    shape or a non-finite lambda raises ValueError.  Raises
    NearPoleError naming the first lambda at a pole, family 1 before
    family 2, from a d/dlambda sweep of the few points near a zero of
    Delta_{k,k} (_pole_guard).
    """
    z = _lambda_points(lams)
    L = z.shape[0]
    lam2, fams = np.tile(z, 2), np.repeat([1, 2], L)
    a = _char_arrays(coeffs, lam2, fams, variant)
    _pole_guard(coeffs, lam2, fams, variant, a,
                {1: "Delta_{1,1}", 2: "Delta_{2,2}"})
    a1, a2 = a.take(slice(L)), a.take(slice(L, None))
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
    otherwise.  Characteristic family k is swept plain for Phi_1 and
    Phi_2 (the pole guard, which sweeps d/dlambda only near a zero of
    Delta_{k,k}, and M_{3,2} = -Delta_{3,2}/Delta_{2,2}); Phi_3 needs
    none.  lams is a scalar or a 1-D array of finite lambdas, and k an
    integer, not a bool (ValueError otherwise, before any sweep).
    """
    if (isinstance(k, bool) or not isinstance(k, (int, np.integer))
            or k not in (1, 2, 3)):
        raise ValueError("no Weyl solution Phi_%r: k must be the integer "
                         "1, 2 or 3" % (k,))
    lams = _lambda_points(lams)
    if k == 3:
        full = _sweep(coeffs, variant, lams, _E3, store=True)
        return np.transpose(full[:, :, :, 0], (1, 0, 2))
    a = _char_arrays(coeffs, lams, k, variant)
    _pole_guard(coeffs, lams, k, variant, a,
                {k: "the k=%d characteristic" % k})
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

    fn is called once with the array of the P = _CONTOUR_POINTS = 32
    points center + radius e^(2 pi i j/P) and must return an array with
    a leading axis of length P (scalar or matrix values per point).
    center must be a finite scalar and radius finite and positive
    (ValueError otherwise, before fn is called); radius defaults to
    1e-3 (1 + |center|).

    The P-point trapezoid rule returns each Laurent coefficient plus its
    aliases P places away, so a singularity at distance rho from center
    errs by about (r/rho)^P (Trefethen & Weideman 2014, SIAM Review).
    Around lambda_{n,k} with the default radius r/rho is about n/3000,
    at most 0.03 for the n the resolution guard admits at M = 512, and
    the aliases fall below rounding already at P = 16.  What is left is
    the rounding noise of the samples, which the sums shrink roughly
    like 1/sqrt(P).  Against a 256-point contour on a general pair
    (n <= 6, both families, M = 512) the worst relative deviation of
    A_{-1} and A_0 was 1.7e-10, 7.9e-11 and 5.3e-11 at P = 16, 32 and
    64.  At P = 32 weyl_matrix reads the P points of each family off
    one Taylor sweep at the centre (forward._taylor_rows): one sweep of
    2 lambdas carrying J + 1 blocks, J = 6 to 7 for n <= 6 and 10 at
    n = 30, instead of a plain sweep of 2P = 64.  A contour point lies
    too far from the pole for the guard's d/dlambda sweep.
    """
    if np.ndim(center) != 0:
        raise ValueError("contour center must be a scalar, got shape %s"
                         % (np.shape(center),))
    if not np.isfinite(center):
        raise ValueError("contour center must be finite, got %r" % (center,))
    if radius is None:
        radius = 1e-3 * (1.0 + abs(center))
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("contour radius must be finite and positive, "
                         "got %r" % (radius,))
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
