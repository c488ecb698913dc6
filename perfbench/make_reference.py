"""Generate perfbench/reference.json: lambda_{n,k} and beta_{n,k}, n <= 30,
of every bank pair at M = 2048, by the program's own forward command.

Run from the repository root:

    python3 perfbench/make_reference.py

The benchmark compares its M = 512 forward output against this file.
Keeping the reference fixed means an integrator change moves the answer
but not the yardstick.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys

import inputs

ROOT = os.path.dirname(inputs.HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spectral3 import cli

    work = os.path.join(inputs.HERE, ".work", "reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    entries = []
    for i, (a, b) in enumerate(inputs.bank()):
        csv = os.path.join(work, "pair%02d.csv" % i)
        out = os.path.join(work, "pair%02d.json" % i)
        inputs.write_coeff_csv(csv, a, b, inputs.REFERENCE_GRID)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["forward", "--coeffs", csv,
                             "--n-max", str(inputs.REFERENCE_N_MAX),
                             "--grid", str(inputs.REFERENCE_GRID),
                             "--out", out])
        if code != 0:
            print("bank pair %d: forward exited %d" % (i, code),
                  file=sys.stderr)
            return 1
        lam, beta = inputs.read_spectral_json(out)
        entries.append((a, b, lam, beta))
        print("bank pair %d of %d done" % (i + 1, inputs.BANK_SIZE),
              flush=True)
    command = ["python3", "perfbench/make_reference.py"]
    inputs.save_reference(inputs.REFERENCE_PATH, command, entries)
    shutil.rmtree(work, ignore_errors=True)
    print("wrote %s" % inputs.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
