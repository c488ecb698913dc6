"""Batch command-line surface: spectral3 forward | inverse | roundtrip |
stability | verify.

Each subcommand wraps one pipeline stage and writes plot-ready files
(CSV tables, 17-significant-digit JSON).  No interactive mode.  Exit
codes map onto the solver error taxonomy:

    0  success
    1  file or parse problem (bad CSV row, unreadable JSON, bad flags)
    2  eigenvalue search or other solver failure (index context in the
       message)
    3  singular main-equation system
    4  admissibility violation (model collides with data, or the input
       data itself fails validation and --force was not given)

Flags can also come from files: an argument @FILE expands in place to
the 'key = value' lines of FILE (see _Parser), so several files all
apply and a flag given later wins over one given earlier.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from .asympt import COINCIDE_TOL, extract_remainders, validate_condition1
from .errors import (AdmissibilityViolationError, SingularSystemError,
                     Spectral3Error)
from .forward import (SpectralData, check_order, compute_spectral_data,
                      load_spectral_data, save_spectral_data)
from .grid import (Grid, l2_norm, read_coefficients, w2m1_distance,
                   write_coefficients, CoefficientPair)
from .inverse import (run_inverse, stability_experiment, verify_spectral,
                      verify_weyl)
from .model import spectral_gaps
from .selfadjoint import check_symmetry
from .serialize import dumps17

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Helpers


def _grid(M: int) -> Grid:
    """The grid of the --grid flag, whose M must be even and >= 64."""
    if M % 2 != 0 or M < 64:
        raise ValueError("grid size must be even and at least 64, got %d" % M)
    return Grid(M)


def _load_coeffs(path, grid: Grid) -> CoefficientPair:
    """The coefficient CSV at path, read on the grid it was written on,
    whose M must equal the --grid flag's."""
    pair = read_coefficients(path)
    if pair.grid.M != grid.M:
        raise ValueError("%s holds a grid of M=%d intervals, but --grid is "
                         "%d" % (path, pair.grid.M, grid.M))
    return pair


def _write_rows(path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if row.get(h) is None
                             else ("%.17g" % row[h]
                                   if isinstance(row[h], float) else row[h])
                             for h in header])


def _parse_perturb(spec: str):
    """'beta:1,1' -> (1, 1, 'beta')."""
    try:
        which, idx = spec.split(":")
        n_s, k_s = idx.split(",")
        n, k = int(n_s), int(k_s)
    except ValueError:
        raise ValueError("bad --perturb spec %r, expected 'beta:n,k' or "
                         "'lambda:n,k'" % spec) from None
    return (n, k, which)


def _is_selfadjoint_class(coeffs: CoefficientPair) -> bool:
    t1, s0 = coeffs.tau1.values, coeffs.sigma0.values
    return (np.abs(t1.imag).max() <= 1e-12 * (1.0 + np.abs(t1).max())
            and np.abs(s0.real).max() <= 1e-12 * (1.0 + np.abs(s0).max()))


def _validate_input_data(data: SpectralData) -> dict:
    """Gate the inverse run on the structural data clauses."""
    report = validate_condition1(data)
    structural = ("distinct_within_family", "pairing", "beta_product_on_K",
                  "gamma_nonzero")
    bad = [name for name in structural
           if not report["clauses"][name]["pass"]]
    if bad:
        offenders = {name: report["clauses"][name]["offenders"]
                     for name in bad}
        raise AdmissibilityViolationError(
            0, "input spectral data failed validation: %s "
               "(rerun with --force to bypass)" % offenders)
    return report


# ---------------------------------------------------------------------------
# Subcommands


def cmd_forward(args) -> int:
    coeffs = _load_coeffs(args.coeffs, _grid(args.grid))
    data = compute_spectral_data(coeffs, args.n_max, pair_tol=args.pair_tol)
    frame = extract_remainders(data)
    diag = {
        "asymptotics": {
            "kappa_abs": np.abs(frame.kappa),
            "kappa1_abs": np.abs(frame.kappa1),
            "tail_max": frame.tail_max,
            "decay_slope": frame.decay_slope,
        },
        "validation": validate_condition1(data, frame),
    }
    if _is_selfadjoint_class(coeffs):
        diag["symmetry"] = check_symmetry(data)
    save_spectral_data(args.out, data, diag)
    print("forward: wrote %s (n_max=%d, K=%s, theta=%.6g%+.6gj)"
          % (args.out, data.n_max, data.K, data.theta.real, data.theta.imag))
    if "symmetry" in diag:
        print("forward: self-adjoint symmetry report: %s"
              % ("pass" if diag["symmetry"]["pass"] else "FAIL"))
    return 0


def cmd_inverse(args) -> int:
    grid = _grid(args.grid)
    data = load_spectral_data(args.data)
    if not args.force:
        _validate_input_data(data)
    res = run_inverse(data, grid, args.big_n)
    write_coefficients(args.out, res.coeffs)
    print("inverse: wrote %s (N=%d, d=%.6g, rcond_min=%.3g)"
          % (args.out, args.big_n, res.diagnostics.get("d", float("nan")),
             res.diagnostics.get("rcond_min", float("nan"))))
    if args.diag:
        with open(args.diag, "w") as fh:
            fh.write(dumps17(res.diagnostics))
        print("inverse: diagnostics in %s" % args.diag)
    return 0


def cmd_roundtrip(args) -> int:
    grid = _grid(args.grid)
    Ns = sorted(int(t) for t in str(args.big_n).split(","))
    for N in Ns:
        check_order(N, Ns[-1])
        if Ns.count(N) > 1:
            raise ValueError("truncation order N=%d is repeated" % N)
    coeffs = _load_coeffs(args.coeffs, grid)
    data = compute_spectral_data(coeffs, Ns[-1], pair_tol=args.pair_tol)

    def one(N: int) -> dict:
        res = run_inverse(data, grid, N)
        rec = compute_spectral_data(res.coeffs, N, pair_tol=args.pair_tol)
        lam_err, beta_err = spectral_gaps(rec, data, N, relative=True)
        return {"N": N,
                "max_rel_lambda_err": float(lam_err.max()),
                "max_rel_beta_err": float(beta_err.max()),
                "tau1_l2": l2_norm(res.tau1N - coeffs.tau1),
                "sigma0_w2m1": w2m1_distance(res.sigma0N, coeffs.sigma0)}

    rows = [one(N) for N in Ns]
    header = ["N", "max_rel_lambda_err", "max_rel_beta_err",
              "tau1_l2", "sigma0_w2m1"]
    _write_rows(args.out, header, rows)
    print("roundtrip: wrote %s" % args.out)
    for row in rows:
        print("  N=%2d  lambda %.3e  beta %.3e  tau1_L2 %.3e  sigma0_W2m1 %.3e"
              % (row["N"], row["max_rel_lambda_err"], row["max_rel_beta_err"],
                 row["tau1_l2"], row["sigma0_w2m1"]))
    return 0


def cmd_stability(args) -> int:
    grid = _grid(args.grid)
    data = load_spectral_data(args.data)
    N = args.big_n if args.big_n is not None else data.n_max
    entries = ({} if args.perturb is None else
               {"entries": tuple(_parse_perturb(s) for s in args.perturb)})
    deltas = ([float(t) for t in args.deltas.split(",")]
              if args.deltas is not None else None)
    rows = stability_experiment(data, grid, N, deltas=deltas, **entries)
    header = ["delta", "d", "tau1_l2", "sigma0_w2m1",
              "tau1_ratio", "sigma0_ratio", "status"]
    _write_rows(args.out, header, rows)
    print("stability: wrote %s (%d rows, N=%d)" % (args.out, len(rows), N))
    for row in rows[1:]:
        ratio = row["tau1_ratio"]
        print("  delta=%.3e  d=%.3e  tau1 ratio %s  [%s]"
              % (row["delta"], row["d"],
                 "%.4f" % ratio if ratio is not None else "-", row["status"]))
    return 0


def cmd_verify(args) -> int:
    grid = _grid(args.grid)
    data = load_spectral_data(args.data)
    N = args.big_n if args.big_n is not None else data.n_max
    # both modes read the entries n <= N only; a bad N is refused here,
    # before the mode's own flags are checked
    data = data.truncate(N)
    if args.mode == "spectral":
        if not args.rec:
            raise ValueError("--rec is required for mode=spectral")
        rtol = {} if args.rtol is None else {"rtol": args.rtol}
        report = verify_spectral(_load_coeffs(args.rec, grid), data, N,
                                 **rtol)
    else:
        if args.rec:   # a coefficient CSV holds no phi tables to check
            raise ValueError("--rec is not read by mode=weyl, which checks "
                             "a fresh reconstruction from --data")
        if args.rtol is not None:
            raise ValueError("--rtol is not read by mode=weyl, whose checks "
                             "have fixed tolerances")
        report = verify_weyl(run_inverse(data, grid, N))
    with open(args.out, "w") as fh:
        fh.write(dumps17(report))
    print("verify(%s): %s -> %s" % (args.mode,
                                    "pass" if report["pass"] else "FAIL",
                                    args.out))
    return 0


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    # No prefix matching, for the top-level parser and every subparser
    # (add_parser builds them from this class): '--gr', or 'gr = 128' in
    # an @FILE, is an unknown flag, not --grid.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # Bad flags are a parse problem: exit 1, matching the file-error code.
    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))

    # One line of an @FILE: 'key = value' -> ['--key', 'value'].
    def convert_arg_line_to_args(self, arg_line):
        line = arg_line.strip()
        if not line or line.startswith("#"):
            return []
        key, eq, val = (part.strip() for part in line.partition("="))
        if not (eq and key and val):
            self.error("bad line %r in an @FILE, expected key=value" % line)
        flag = "--" + key.replace("_", "-")
        if val.lower() in ("true", "false"):
            return [flag] if val.lower() == "true" else []
        return [flag, val]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=int, default=512,
                   help="number of grid intervals M (even, >= 64); a "
                        "coefficient CSV must hold this grid")


def _add_pair_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pair-tol", type=float, default=COINCIDE_TOL,
                   help="coinciding-eigenvalue detection tolerance")


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="spectral3",
                     description="Forward and inverse spectral solver for "
                                 "the third-order operator with a "
                                 "distributional coefficient.",
                     epilog="An argument @FILE after the subcommand is "
                            "replaced, in place, by the 'key = value' lines "
                            "of FILE: 'n_max = 8' reads as --n-max 8, "
                            "'force = true' as --force ('false' adds "
                            "nothing); blank and # lines are skipped.  When "
                            "a flag is given twice, the later one wins.",
                     fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", parents=[], help="coefficients -> spectral data")
    p.add_argument("--coeffs", required=True, help="coefficient CSV")
    p.add_argument("--n-max", type=int, required=True,
                   help="number of index pairs per family")
    _add_common(p)
    _add_pair_tol(p)
    p.add_argument("--out", required=True, help="output spectral-data JSON")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("inverse", help="spectral data -> coefficients")
    p.add_argument("--data", required=True, help="spectral-data JSON")
    p.add_argument("--big-n", type=int, required=True,
                   help="truncation order N of the main system")
    _add_common(p)
    p.add_argument("--out", required=True, help="output coefficient CSV")
    p.add_argument("--diag", default=None, help="diagnostics JSON path")
    p.add_argument("--force", action="store_true",
                   help="skip input-data validation")
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("roundtrip", help="forward -> inverse -> forward table")
    p.add_argument("--coeffs", required=True, help="coefficient CSV")
    p.add_argument("--big-n", required=True,
                   help="comma-separated truncation orders, e.g. 8,12,16")
    _add_common(p)
    _add_pair_tol(p)
    p.add_argument("--out", required=True, help="summary CSV")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("stability", help="perturbation ladder experiment")
    p.add_argument("--data", required=True, help="spectral-data JSON")
    p.add_argument("--perturb", action="append", default=None,
                   help="entry to perturb, e.g. beta:1,1 (repeatable)")
    p.add_argument("--deltas", default=None,
                   help="comma-separated perturbation sizes")
    p.add_argument("--big-n", type=int, default=None,
                   help="truncation order (default: data n_max)")
    _add_common(p)
    p.add_argument("--out", required=True, help="ladder CSV")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("verify", help="check a reconstruction")
    p.add_argument("--data", required=True, help="spectral-data JSON")
    p.add_argument("--rec", default=None,
                   help="reconstructed coefficient CSV (mode=spectral)")
    p.add_argument("--mode", choices=("spectral", "weyl"), default="spectral")
    p.add_argument("--big-n", type=int, default=None,
                   help="truncation order (default: data n_max)")
    p.add_argument("--rtol", type=float, default=None,
                   help="relative tolerance for mode=spectral "
                        "(default 1e-3)")
    _add_common(p)
    p.add_argument("--out", required=True, help="verification report JSON")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SingularSystemError as exc:
        print("spectral3: %s" % exc, file=sys.stderr)
        return 3
    except AdmissibilityViolationError as exc:
        print("spectral3: %s" % exc, file=sys.stderr)
        return 4
    except Spectral3Error as exc:
        print("spectral3: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print("spectral3: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
