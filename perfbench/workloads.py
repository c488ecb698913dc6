"""The three workloads: inputs made in setup, one job per program call,
and the check of each job's output.

Every job is one call into spectral3 in this process.  A job has a `key`
naming its input, a `panel` flag (its accuracy figures are the ones
reported), `run()`, the timed call, and `check(result)`, which reads and
validates the output and returns (digest of the output bytes, accuracy
figures); a repeat of the same input must give the same digest.

Every forward input is a bank pair with a stored reference.  For inverse
and weyl, accuracy figures that vary from input to input are read from a
fixed panel input (bank pair 0), so that they do not move with the
workload seed: the inverse error is dominated by the
boundary values of tau1 and the Weyl residues sit at rounding level, so
seeded inputs alone would make them spread far beyond any useful bound.
The seeded inputs still run in the same loop and are checked the same
way.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import os

import numpy as np

import inputs

GRID = 512
FORWARD_N_MAX = 30
FORWARD_PAIRS = 8
INVERSE_N_MAX = 24
INVERSE_BIG_N = (8, 16, 24)
INVERSE_PAIRS = 3
# Seeded pairs that every set-up runs through the forward command and
# screens; more are drawn only when fewer than INVERSE_PAIRS - 1 of them
# pass (about one seed in 25).
INVERSE_CANDIDATES = 4
# Model indices beyond N that the inverse method checks against the data,
# and the relative gap below which a seeded pair is redrawn: ten times the
# 1e-8 at which the program refuses.  For these smooth pairs the closest
# approach is lambda_{24,k} to its model value, typically 1e-7 to 1e-6.
MODEL_MARGIN = 4
COLLISION_SCREEN = 1e-7
WEYL_N_MAX = 6

# Acceptance-test tolerances (test_10) for the contour checks.
RESIDUE_TOL = 1e-6
WEIGHT_TOL = 1e-5


class JobFailed(Exception):
    pass


def _cli(argv: list) -> int:
    from spectral3 import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# forward


class ForwardJob:
    def __init__(self, key, csv, out, ref_lam, ref_beta):
        self.key, self.panel = key, True
        self.csv, self.out = csv, out
        self.ref_lam, self.ref_beta = ref_lam, ref_beta

    def run(self):
        return _cli(["forward", "--coeffs", self.csv,
                     "--n-max", str(FORWARD_N_MAX), "--grid", str(GRID),
                     "--out", self.out])

    def check(self, code):
        if code != 0:
            raise JobFailed("forward exited %d" % code)
        with open(self.out, "rb") as fh:
            digest = _digest(fh.read())
        lam, beta = inputs.read_spectral_json(self.out)
        if (lam.shape != (FORWARD_N_MAX, 2) or not np.isfinite(lam).all()
                or not np.isfinite(beta).all()):
            raise JobFailed("forward output lacks entries")
        n = FORWARD_N_MAX
        lam_err = np.abs(lam - self.ref_lam[:n]) / np.abs(self.ref_lam[:n])
        beta_err = np.abs(beta - self.ref_beta[:n]) / np.abs(self.ref_beta[:n])
        return digest, {"lambda_rel_err_max": float(lam_err.max()),
                        "beta_rel_err_max": float(beta_err.max())}


def setup_forward(work: str, seed: int) -> list:
    """Eight of the 16 bank pairs, chosen and ordered by the seed: four of
    each class, alternating."""
    ref = inputs.load_reference()
    rng = np.random.default_rng(seed)
    half = FORWARD_PAIRS // 2
    sa = rng.choice(np.arange(0, inputs.BANK_SIZE, 2), half, replace=False)
    gen = rng.choice(np.arange(1, inputs.BANK_SIZE, 2), half, replace=False)
    jobs = []
    for i in np.stack([sa, gen], axis=1).ravel():
        a, b, lam, beta = ref[i]
        csv = os.path.join(work, "bank%02d.csv" % i)
        inputs.write_coeff_csv(csv, a, b, GRID)
        jobs.append(ForwardJob("bank%02d" % i, csv,
                               os.path.join(work, "bank%02d.json" % i),
                               lam, beta))
    return jobs


# ---------------------------------------------------------------------------
# inverse


class InverseJob:
    def __init__(self, key, panel, data, out, big_n, tau1, sigma0):
        self.key, self.panel = key, panel
        self.data, self.out, self.big_n = data, out, big_n
        self.tau1, self.sigma0 = tau1, sigma0

    def run(self):
        return _cli(["inverse", "--data", self.data,
                     "--big-n", str(self.big_n), "--grid", str(GRID),
                     "--out", self.out])

    def check(self, code):
        if code != 0:
            raise JobFailed("inverse exited %d" % code)
        with open(self.out, "rb") as fh:
            digest = _digest(fh.read())
        tau1, sigma0 = inputs.read_coeff_csv(self.out)
        if (tau1.shape != self.tau1.shape or not np.isfinite(tau1).all()
                or not np.isfinite(sigma0).all()):
            raise JobFailed("inverse output is not a finite M=%d table" % GRID)
        return digest, {
            "tau1_l2_max": inputs.l2_distance(tau1, self.tau1),
            "sigma0_w2m1_max": inputs.w2m1_distance(sigma0, self.sigma0)}


def _spectral_inputs(work: str, name: str, a, b, n_max: int) -> str:
    """Coefficient CSV plus the forward command's spectral-data JSON."""
    csv = os.path.join(work, name + ".csv")
    out = os.path.join(work, name + ".json")
    inputs.write_coeff_csv(csv, a, b, GRID)
    code = _cli(["forward", "--coeffs", csv, "--n-max", str(n_max),
                 "--grid", str(GRID), "--out", out])
    if code != 0:
        raise JobFailed("setup: forward on %s exited %d" % (name, code))
    return out


def _pairs(seed: int):
    """(name, panel, a, b): bank pair 0 as the accuracy panel, then
    endless pairs from the seed, each of a class (self-adjoint or
    general) the seed also draws."""
    a, b = inputs.bank()[0]
    yield "panel", True, a, b
    rng = np.random.default_rng(seed)
    for i in itertools.count():
        a, b = inputs.pair_amplitudes(rng, bool(rng.integers(2)))
        yield "seed%d.%d" % (seed, i), False, a, b


def setup_inverse(work: str, seed: int) -> list:
    """Panel pair and two seeded pairs, each at N = 8, 16, 24: nine jobs
    in three rounds over the three pairs, the N shifted by one each round,
    so every round holds each N once and every pair meets every N once.

    The inverse method refuses data with an eigenvalue on the model
    spectrum (admissibility condition 4, exit code 4).  Every pair has
    mean 0.3, so the model is tau1 = 0.3, sigma0 = 0 for all of them; a
    seeded pair whose eigenvalues come within COLLISION_SCREEN of the
    model spectrum, n <= N + MODEL_MARGIN, is skipped for the next draw.
    About one draw in four is skipped, so the first INVERSE_CANDIDATES
    seeded pairs are always run and screened, and the first that pass are
    used: set-up then does the same work whatever the seed.
    """
    zero = np.zeros(3, dtype=complex)
    model, _ = inputs.read_spectral_json(_spectral_inputs(
        work, "model", zero, zero, INVERSE_N_MAX + MODEL_MARGIN))
    model = model.ravel()[:, None]
    pairs = []
    for drawn, (name, panel, a, b) in enumerate(_pairs(seed)):
        if len(pairs) == INVERSE_PAIRS and drawn > INVERSE_CANDIDATES:
            break
        data = _spectral_inputs(work, name, a, b, INVERSE_N_MAX)
        lam = inputs.read_spectral_json(data)[0].ravel()[None, :]
        gap = np.abs(model - lam) / (1.0 + np.abs(model))
        if len(pairs) == INVERSE_PAIRS or (
                not panel and gap.min() <= COLLISION_SCREEN):
            continue
        tau1, sigma0 = inputs.sample_pair(a, b, GRID)
        pairs.append((name, panel, data, tau1, sigma0))
    jobs = []
    for r in range(len(INVERSE_BIG_N)):
        for i, (name, panel, data, tau1, sigma0) in enumerate(pairs):
            big_n = INVERSE_BIG_N[(i + r) % len(INVERSE_BIG_N)]
            key = "%s-N%d" % (name, big_n)
            jobs.append(InverseJob(key, panel, data,
                                   os.path.join(work, key + ".csv"), big_n,
                                   tau1, sigma0))
    return jobs


# ---------------------------------------------------------------------------
# weyl


class WeylJob:
    def __init__(self, key, panel, coeffs, data, n, k):
        self.key, self.panel = key, panel
        self.coeffs, self.data, self.n, self.k = coeffs, data, n, k

    def run(self):
        # Public names only, looked up at call time, so that a batched
        # contour inside laurent_coefficients/weyl_matrix shows up here.
        from spectral3 import forward
        return forward.laurent_coefficients(
            functools.partial(forward.weyl_matrix, self.coeffs),
            self.data.lam(self.n, self.k))

    def check(self, result):
        from spectral3.forward import weight_matrix
        a_m1, a_0 = (np.asarray(r, dtype=complex) for r in result)
        n, k = self.n, self.k
        beta = self.data.beta(n, k)
        residue = abs(-a_m1[k, k - 1] - beta) / (1.0 + abs(beta))
        W = weight_matrix(self.data, n, k)
        laurent = np.linalg.solve(a_0, a_m1)
        weight = (float(np.abs(laurent - W).max())
                  / (1.0 + float(np.abs(W).max())))
        if not residue <= RESIDUE_TOL:
            raise JobFailed("residue deviates by %.3g > %g" % (residue,
                                                               RESIDUE_TOL))
        if not weight <= WEIGHT_TOL:
            raise JobFailed("weight matrix deviates by %.3g > %g"
                            % (weight, WEIGHT_TOL))
        return (_digest(a_m1.tobytes() + a_0.tobytes()),
                {"residue_rel_err_max": float(residue),
                 "weight_matrix_rel_err_max": weight})


def setup_weyl(work: str, seed: int) -> list:
    """Three jobs: the panel pair at (n, k) = (1, 1), the seeded pair at a
    seeded (n, k) with n <= 6, the panel pair at (6, 2).  A job takes
    several seconds, so the list is short enough for the first pass and
    one repeat to fit in a run.  Spectral data is computed here."""
    from spectral3.forward import compute_spectral_data
    from spectral3.grid import read_coefficients

    rng = np.random.default_rng(seed + 1)
    seeded_nk = (int(rng.integers(1, WEYL_N_MAX + 1)), int(rng.integers(1, 3)))
    order = {"panel": [(1, 1), (WEYL_N_MAX, 2)], "seeded": [seeded_nk]}
    pairs = {}
    for name, panel, a, b in itertools.islice(_pairs(seed), 2):
        csv = os.path.join(work, name + ".csv")
        inputs.write_coeff_csv(csv, a, b, GRID)
        coeffs = read_coefficients(csv)
        pairs["panel" if panel else "seeded"] = (
            name, panel, coeffs, compute_spectral_data(coeffs, WEYL_N_MAX))
    jobs = []
    for which, i in (("panel", 0), ("seeded", 0), ("panel", 1)):
        name, panel, coeffs, data = pairs[which]
        n, k = order[which][i]
        jobs.append(WeylJob("%s-n%dk%d" % (name, n, k), panel, coeffs,
                            data, n, k))
    return jobs


# ---------------------------------------------------------------------------

SETUP = {"forward": setup_forward, "inverse": setup_inverse,
         "weyl": setup_weyl}

# Accuracy figure names per workload: (primary, secondary).  The
# end-to-end metrics are their correct digits, -log10(error).
ACCURACY = {
    "forward": ("lambda_rel_err_max", "beta_rel_err_max"),
    "inverse": ("tau1_l2_max", "sigma0_w2m1_max"),
    "weyl": ("residue_rel_err_max", "weight_matrix_rel_err_max"),
}
