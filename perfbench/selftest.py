"""Self-test of the benchmark: one job of each workload at its normal size,
untraced and traced, checking that the result line is well formed, that
no job failed, and that every metric BENCHMARK.json names is printed,
with its unit, both in the report and in the result.

    python3 perfbench/selftest.py

Exits 0 when every check passes.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload: str, trace: int, declared: list) -> list:
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace), "--jobs", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    where = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (where, proc.returncode, proc.stderr)]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append("%s: correct=%s attempted=%s failed=%s"
                        % (where, result["correct"], result["attempted"],
                           result["failed"]))
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        problems.append("%s: metrics differ from BENCHMARK.json: %s"
                        % (where, sorted(set(metrics)
                                         ^ {m["name"] for m in declared})))
    report = lines[:-1]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            problems.append("%s: %s unit %r, declared %r"
                            % (where, m["name"], got["unit"], m["unit"]))
        if not isinstance(got["value"], (int, float)):
            problems.append("%s: %s value %r" % (where, m["name"],
                                                 got["value"]))
        if not any(ln.split()[:1] == [m["name"]]
                   and ln.split()[-1] == m["unit"] for ln in report):
            problems.append("%s: %s not printed with its unit"
                            % (where, m["name"]))
    if trace == 0 and not any(ln.split()[:1] == ["fail_ratio"]
                              for ln in report):
        problems.append("%s: fail_ratio not printed" % where)
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            found = check_run(w["name"], trace, bench[key])
            print("%-8s trace=%d %s" % (w["name"], trace,
                                        "ok" if not found else "FAIL"),
                  flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
