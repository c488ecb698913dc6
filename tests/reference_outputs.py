"""The pinned CLI outputs of tests/reference/: the commands that make
them, and their regeneration.

    PYTHONPATH=src python tests/reference_outputs.py

rewrites every file of tests/reference/ from the bundled coefficient
pair data/smooth.csv, in process, at the default grid M = 512.  Forward
runs first; the commands that read spectral data then read the forward
files just written.  tests/test_reference.py reruns the same commands
into a temporary directory, on the committed forward files, and compares
the numbers file by file.  A change that moves an output past the
test's tolerance on purpose reruns this script and records the old ->
new deviation in CHANGES.md.

    PYTHONPATH=src python tests/reference_outputs.py --check

reruns the same commands as the test does and prints, file by file,
whether its bytes equal the pinned file, and for a file that differs
the largest deviation of its numbers as a fraction of the tolerance
tests/test_reference.py allows it (above 1: the test fails), with where
it sits.  It exits 1 if any file differs and never writes
tests/reference/.
"""

import contextlib
import io
import os
import sys
import tempfile

from spectral3.cli import main

TESTS = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(TESTS, "reference")
COEFFS = os.path.join(TESTS, "..", "data", "smooth.csv")

FORWARD_N_MAX = (8, 24, 30)
INVERSE_N = (8, 16, 24)     # on the n_max-24 data
VERIFY_N = 8                # on the n_max-24 data, spectral on rec_N8.csv


def forward_name(n_max: int) -> str:
    return "forward_n%d.json" % n_max


def commands(out: str, data: str) -> list:
    """The argv lists in run order: output files go to the directory
    out, spectral data and the reconstruction verified in mode=spectral
    are read from the directory data."""
    at = os.path.join
    data24 = at(data, forward_name(24))
    argvs = [["forward", "--coeffs", COEFFS, "--n-max", str(n),
              "--out", at(out, forward_name(n))] for n in FORWARD_N_MAX]
    argvs += [["inverse", "--data", data24, "--big-n", str(N),
               "--out", at(out, "rec_N%d.csv" % N),
               "--diag", at(out, "diag_N%d.json" % N)] for N in INVERSE_N]
    argvs += [
        ["stability", "--data", at(data, forward_name(8)),
         "--out", at(out, "stability_n8.csv")],
        ["roundtrip", "--coeffs", COEFFS, "--big-n", "4,8",
         "--out", at(out, "roundtrip_4_8.csv")],
        ["verify", "--data", data24, "--big-n", str(VERIFY_N),
         "--mode", "spectral", "--rec", at(data, "rec_N%d.csv" % VERIFY_N),
         "--out", at(out, "verify_spectral_N%d.json" % VERIFY_N)],
        ["verify", "--data", data24, "--big-n", str(VERIFY_N),
         "--mode", "weyl",
         "--out", at(out, "verify_weyl_N%d.json" % VERIFY_N)],
    ]
    return argvs


def run_all(out: str, data: str) -> None:
    """Run every command; each must exit 0.  Their console lines are
    dropped."""
    for argv in commands(out, data):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError("spectral3 %s exited %d" % (argv[0], code))


def check() -> int:
    """Rerun every command into a temporary directory on the pinned
    forward files and report each pinned file as identical to its rerun
    or not, with the worst fraction of its tolerance (test_reference's
    comparisons) where it differs; 1 if any differs, 0 otherwise."""
    from test_reference import worst

    def read(path):
        with open(path, "rb") as f:
            return f.read()

    names = sorted(os.listdir(REFERENCE))
    differ = 0
    with tempfile.TemporaryDirectory() as out:
        run_all(out, REFERENCE)
        for name in names:
            rerun = os.path.join(out, name)
            if not os.path.exists(rerun):
                differ += 1
                print("%-26s MISSING" % name)
                continue
            if read(rerun) == read(os.path.join(REFERENCE, name)):
                print("%-26s identical" % name)
                continue
            differ += 1
            fraction, where = worst(name, out, REFERENCE)
            print("%-26s DIFFERS  %.3g of tolerance at %s"
                  % (name, fraction, where))
    print("%d of %d pinned files differ" % (differ, len(names)))
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: python tests/reference_outputs.py [--check]")
    if sys.argv[1:]:
        sys.exit(check())
    os.makedirs(REFERENCE, exist_ok=True)
    run_all(REFERENCE, REFERENCE)
    print("wrote %d files to %s" % (len(os.listdir(REFERENCE)), REFERENCE))
