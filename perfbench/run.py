"""spectral3 benchmark: one closed-loop client in this process.

    python3 perfbench/run.py --workload forward|inverse|weyl --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/.  Set-up makes the inputs from the seed (and is repeated, reporting
the median); the loop then starts the next job only when the previous
one has finished, for S seconds and at least one pass over the job list.
Every job's output is checked and repeats of an input must be
byte-identical.

--trace 0 prints the end-to-end metrics, with every time given in
reference seconds: wall time divided by the host's speed factor, which a
fixed kernel of the benchmark's own samples every 50 ms while the
program runs (see calibrate.py); the raw wall times are printed in the
report.  --trace 1
runs every job twice
in a row, untraced and then with spans recorded around every layer
boundary, and prints the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A human
report precedes it; the run record and any spans go to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import calibrate
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("forward", "inverse", "weyl")
SETUP_REPEATS = 3
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES")


def _git_commit(root: str):
    """HEAD commit read from .git without running git; None outside a
    repository (a plain source checkout)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: str, loadavg) -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "spectral3",
                                              "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {
        "commit": _git_commit(root),
        "source_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg": list(loadavg),
    }


class Outcome:
    """Job times, failures and accuracy figures of one loop."""

    def __init__(self):
        self.times: list = []         # wall seconds per job
        self.ref_times: list = []     # the same in reference seconds
        self.ref_busy = 0.0           # job + check time, reference seconds
        self.factors: list = []       # host speed factor per job
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.accuracy: dict = {}      # panel jobs: name -> max over jobs
        self.seeded: dict = {}        # seeded jobs: the same, for the report
        self.repeats = 0
        self.elapsed = 0.0
        self.log: list = []           # (job key, seconds, failed)

    def record(self, job, dt, result, error) -> None:
        self.attempted += 1
        self.times.append(dt)
        if error is None:
            try:
                digest, acc = job.check(result)
                if job.key not in self.digests:
                    self.digests[job.key] = digest
                elif self.digests[job.key] != digest:
                    raise RuntimeError("output of %s differs from its first "
                                       "run" % job.key)
                else:
                    self.repeats += 1
                dest = self.accuracy if job.panel else self.seeded
                for name, val in acc.items():
                    dest[name] = max(dest.get(name, 0.0), val)
            except Exception as exc:  # a failed check is a failed job
                error = exc
        if error is not None:
            self.failed += 1
            print("job %s failed: %s" % (job.key, error), file=sys.stderr)
        self.log.append((job.key, dt, error is not None))

    def calibrated(self, ref_dt, ref_busy, factor) -> None:
        """Add the reference times of the job just recorded."""
        self.ref_times.append(ref_dt)
        self.ref_busy += ref_busy
        self.factors.append(factor)


def closed_loop(jobs, seconds, cover_all, max_jobs, tracer=None,
                calib=None) -> list:
    """Run jobs one after another, cycling over the list, until `seconds`
    have passed (and, with cover_all, every job has run once and one has
    run twice, for the determinism check).  Returns [untraced outcome].

    With calib, an active calibrate.Sampler, every job is also recorded
    in reference seconds.

    With a tracer each job runs twice in a row, untraced and then with
    spans recorded, so both sets of times see the same inputs and the
    same machine state; returns [untraced, traced]."""
    outs = [Outcome()] + ([Outcome()] if tracer else [])
    for out in outs[1:]:
        out.digests = outs[0].digests
    kinds = len(outs)
    start = perf_counter()
    i = 0
    while True:
        n, kind = divmod(i, kinds)
        if kind == 0:
            if max_jobs and n >= max_jobs:
                break
            if (n >= 1 and perf_counter() - start >= seconds
                    and (not cover_all or n > len(jobs))):
                break
        job = jobs[n % len(jobs)]
        result = error = None
        if kind:
            spans.install(tracer)
            tracer.begin_job(n)
        mark0 = calib.mark() if calib else None
        t0 = perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # the program failed on this job
            error = exc
            traceback.print_exc(file=sys.stderr)
        finally:
            dt = perf_counter() - t0
            mark1 = calib.mark() if calib else None
            if kind:
                tracer.end_job()
                tracer.unwrap_all()
        outs[kind].record(job, dt, result, error)
        if calib:
            ref_dt, factor = calib.reference(dt, mark0, mark1)
            ref_busy, _ = calib.reference(perf_counter() - t0, mark0,
                                          calib.mark())
            outs[kind].calibrated(ref_dt, ref_busy, factor)
        i += 1
    for out in outs:
        out.elapsed = perf_counter() - start
    return outs


def tail(times: list):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the median when there are fewer than 20."""
    n = len(times)
    pct = math.floor(100.0 * (1.0 - 10.0 / n)) if n >= 20 else 50
    if pct <= 50:
        return statistics.median(times), 50
    return statistics.quantiles(times, n=100, method="inclusive")[pct - 1], pct


def _digits(err) -> float:
    """Correct digits, -log10(error); 0 when the error is unknown."""
    if err is None:
        return 0.0
    return -math.log10(max(err, 1e-20))


def end_to_end(setup_ref, out: Outcome, primary, secondary) -> dict:
    """Times in reference seconds (see calibrate.py)."""
    return {
        "setup_s": (statistics.median(setup_ref), "s"),
        "job_s_p50": (statistics.median(out.ref_times), "s"),
        "jobs_per_s": (len(out.ref_times) / out.ref_busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "acc_digits": (_digits(out.accuracy.get(primary)), "digits"),
        "acc2_digits": (_digits(out.accuracy.get(secondary)), "digits"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=0,
                   help="stop after this many jobs per loop (self-test)")
    args = p.parse_args(argv)

    load_start = os.getloadavg()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "spectral3")):
        print("perfbench: no spectral3 source under %s" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = perf_counter()
    try:
        import spectral3.cli  # noqa: F401
    except ImportError as exc:
        print("perfbench: cannot import spectral3 from %s: %s" % (src, exc),
              file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    import inputs
    import workloads

    env = provenance(ROOT, load_start)
    work = os.path.join(HERE, ".work", "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    calib = calibrate.Sampler()
    setup_times, setup_ref = [], []
    try:
        for _ in range(SETUP_REPEATS):
            with calib:
                mark0 = calib.mark()
                t = perf_counter()
                jobs = workloads.SETUP[args.workload](work, args.seed)
                setup_times.append(perf_counter() - t)
                setup_ref.append(calib.reference(setup_times[-1], mark0,
                                                 calib.mark())[0])
    except inputs.Refused as exc:
        print("perfbench: refused: %s" % exc, file=sys.stderr)
        return 2
    except workloads.JobFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "import_s": import_s, "setup_s_all": setup_times,
              "setup_ref_s_all": setup_ref,
              "jobs": [j.key for j in jobs]}
    print("perfbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env: %s" % json.dumps(env, sort_keys=True))

    if args.trace == 0:
        with calib:
            out, = closed_loop(jobs, args.seconds, cover_all=True,
                               max_jobs=args.jobs, calib=calib)
        primary, secondary = workloads.ACCURACY[args.workload]
        metrics = end_to_end(setup_ref, out, primary, secondary)
        attempted, failed = out.attempted, out.failed
        record["job_log"] = out.log
        record["job_ref_s"] = out.ref_times
        record["speed_factors"] = out.factors
        correct = (failed == 0 and primary in out.accuracy
                   and secondary in out.accuracy)
        tail_s, tail_pct = tail(out.times)
        report = [(primary, out.accuracy.get(primary), "1"),
                  (secondary, out.accuracy.get(secondary), "1"),
                  ("fail_ratio", failed / attempted, "1"),
                  ("jobs", len(out.times), "count"),
                  ("job_s_tail_p%d" % tail_pct, tail_s, "s"),
                  ("determinism_repeats", out.repeats, "count"),
                  ("import_s", import_s, "s"),
                  ("wall.setup_s", statistics.median(setup_times), "s"),
                  ("wall.job_s_p50", statistics.median(out.times), "s"),
                  ("wall.jobs_per_s", len(out.times) / out.elapsed, "1/s"),
                  ("speed_factor_p50", statistics.median(out.factors), "1"),
                  ("speed_factor_min", min(out.factors), "1"),
                  ("speed_factor_max", max(out.factors), "1")]
        for name, val in out.seeded.items():
            report.append(("seeded." + name, val, "1"))
    else:
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
        except AttributeError as exc:
            print("perfbench: a traced boundary is gone: %s" % exc,
                  file=sys.stderr)
            return 2
        finally:
            tracer.unwrap_all()
        plain, traced = closed_loop(jobs, args.seconds, cover_all=False,
                                    max_jobs=args.jobs, tracer=tracer)
        tracer.write(os.path.join(work, "spans.json"))
        missing = sorted(spans.EXPECTED[args.workload] - spans.fired(tracer))
        if missing:
            print("perfbench: expected boundaries never fired: %s"
                  % ", ".join(missing), file=sys.stderr)
            return 2
        layer = spans.layer_metrics(tracer, len(traced.times))
        p50_plain = statistics.median(plain.times)
        p50_traced = statistics.median(traced.times)
        tail_s, tail_pct = tail(plain.times)
        metrics = dict(layer)
        metrics.update({
            "job.traced_p50_s": (p50_traced, "s"),
            "job.tail_s": (tail_s, "s"),
            "job.tail_pct": (tail_pct, "%"),
            "job.samples": (len(plain.times), "count"),
            "trace.overhead_ratio": (p50_traced / p50_plain, "1"),
        })
        record["job_log"] = {"untraced": plain.log, "traced": traced.log}
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        correct = failed == 0
        report = [("untraced job_s_p50", p50_plain, "s"),
                  ("fail_ratio", failed / attempted, "1"),
                  ("self-time sum over traced job_s_p50",
                   layer["job.self_sum_s"][0] / p50_traced, "1")]

    for name, val, unit in report:
        print("  %-40s %s %s" % (name, val, unit))
    for name, (val, unit) in metrics.items():
        print("  %-40s %.6g %s" % (name, val, unit))
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": val, "unit": unit}
                          for name, (val, unit) in metrics.items()}}
    record["result"] = result
    record["report"] = report
    with open(os.path.join(work, "run.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
