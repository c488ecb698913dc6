"""Span recorder for the traced run.

Spans are recorded from the benchmark's side only: each boundary is a
module attribute that a caller looks up at call time (a name a module
imported, or one of its own functions it calls through its globals), and
the recorder swaps a timing wrapper into that namespace for the traced
part of the run.  The spectral3 source is not edited.

Each span keeps its name, the namespace it was called from, start, end,
parent span and job id; spans stay in memory and are written out when
the run ends.  Self times come from the spans: a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import os
from time import perf_counter

import numpy as np

# span fields
NAME, CALLER, T0, T1, PARENT, JOB, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._job = None
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        self._open("job.run", "bench")

    def end_job(self) -> None:
        self._close()
        self._job = None

    def _open(self, name: str, caller: str, attrs=None) -> list:
        rec = [name, caller, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self._job, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self) -> None:
        self.spans[self._stack.pop()][T1] = perf_counter()

    # -- boundaries ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, note=None, pre=None) -> None:
        """Record a span named `name` whenever `owner.attr` is called
        inside a job.

        pre(bound) runs before the call and note(bound, result) after
        it; both return attribute dicts stored on the span.  A missing
        attribute raises AttributeError, so a renamed boundary fails the
        run instead of reporting an idle layer.
        """
        fn = getattr(owner, attr)
        sig = inspect.signature(fn) if (note or pre) else None
        caller = getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]
        tracer = self

        def traced(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            attrs = pre(bound.arguments) if pre else None
            rec = tracer._open(name, caller, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if note:
                rec[ATTRS] = {**(rec[ATTRS] or {}),
                              **note(bound.arguments, out)}
            return out

        traced.__wrapped__ = fn
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> np.ndarray:
        dur = np.array([s[T1] - s[T0] for s in self.spans])
        own = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[PARENT] >= 0:
                own[s[PARENT]] -= d
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "caller", "start", "end", "parent",
                                  "job", "attrs"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# The boundaries of spectral3, by caller namespace

def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _sweep_note(a, out):
    lams = np.atleast_1d(a["lams"])
    L = int(lams.shape[0])
    K = int(np.asarray(a["inits"]).shape[-1])
    M = int(a["coeffs"].grid.M)
    mode = ("stored" if a["store"] else
            "dlam" if a["with_dlambda"] else "plain")
    return {"mode": mode, "L": L, "K": K,
            "rk4_updates": M * L * K * (2 if a["with_dlambda"] else 1)}


def _ensure_pre(a):
    table, k = a["table"], a["k"]
    lams = np.atleast_1d(np.asarray(a["lams"], dtype=complex))
    hits = sum((k, complex(l)) in table for l in lams)
    return {"requested": int(lams.shape[0]), "hits": int(hits)}


def install(tracer: Tracer) -> None:
    """Wrap every boundary the benchmark reports on."""
    from spectral3 import asympt, cli, forward, inverse, model

    t = tracer
    # cli -> the layers below it
    t.wrap(cli, "main", "cli.main")
    t.wrap(cli, "compute_spectral_data", "forward.compute_spectral_data")
    t.wrap(cli, "load_spectral_data", "forward.load_spectral_data")
    t.wrap(cli, "save_spectral_data", "forward.save_spectral_data")
    t.wrap(cli, "extract_remainders", "asympt.extract_remainders")
    t.wrap(cli, "validate_condition1", "asympt.validate_condition1")
    t.wrap(cli, "check_symmetry", "selfadjoint.check_symmetry")
    t.wrap(cli, "run_inverse", "inverse.run_inverse")
    t.wrap(cli, "read_coefficients", "grid.read_coefficients",
           note=lambda a, out: {"bytes": _size(a["path"])})
    t.wrap(cli, "write_coefficients", "grid.write_coefficients",
           note=lambda a, out: {"bytes": _size(a["path"])})
    # forward -> quasi, asympt, serialize, and its own stages
    t.wrap(forward, "_sweep", "quasi.sweep", note=_sweep_note)
    t.wrap(forward, "_newton_family", "forward.newton_family")
    t.wrap(forward, "_char_arrays", "forward.char_arrays")
    t.wrap(forward, "weyl_matrix", "forward.weyl_matrix")
    t.wrap(forward, "laurent_coefficients", "forward.laurent_coefficients")
    t.wrap(forward, "dumps17", "serialize.dumps17",
           note=lambda a, out: {"bytes": len(out)})
    t.wrap(asympt, "eigen_guess", "asympt.eigen_guess")
    t.wrap(asympt, "invert_index", "asympt.invert_index")
    # model -> forward
    t.wrap(model, "compute_spectral_data", "forward.compute_spectral_data")
    t.wrap(model, "weyl_batch", "forward.weyl_batch",
           note=lambda a, out: {"L": int(np.atleast_1d(a["lams"]).shape[0])})
    t.wrap(model.ModelCache, "_ensure", "model.ensure", pre=_ensure_pre)
    # inverse -> model and its own stages
    t.wrap(inverse, "build_model", "model.build_model")
    t.wrap(inverse, "assemble", "inverse.assemble",
           note=lambda a, out: {"size": int(len(out.V)),
                                "matrix_bytes": int(out.A.nbytes)})
    t.wrap(inverse, "solve_phi", "inverse.solve_phi",
           note=lambda a, out: {"nodes": int(out[0].shape[1]),
                                "rcond_min": float(out[2]["rcond_min"]),
                                "residual_max": float(out[2]["residual_max"])})
    t.wrap(inverse, "reconstruct", "inverse.reconstruct")


# Spans each workload must fire at least once in a traced run.
EXPECTED = {
    "forward": {"cli.main", "forward.compute_spectral_data",
                "forward.newton_family", "forward.char_arrays", "quasi.sweep",
                "forward.save_spectral_data", "serialize.dumps17",
                "asympt.eigen_guess", "asympt.invert_index",
                "asympt.extract_remainders", "asympt.validate_condition1",
                "selfadjoint.check_symmetry", "grid.read_coefficients"},
    "inverse": {"cli.main", "forward.load_spectral_data",
                "asympt.validate_condition1", "inverse.run_inverse",
                "model.build_model", "forward.compute_spectral_data",
                "forward.newton_family", "forward.char_arrays", "quasi.sweep",
                "forward.weyl_batch", "model.ensure", "inverse.assemble",
                "inverse.solve_phi", "inverse.reconstruct",
                "grid.write_coefficients"},
    "weyl": {"forward.laurent_coefficients", "forward.weyl_matrix",
             "quasi.sweep"},
}

LAYERS = ("quasi", "forward", "asympt", "selfadjoint", "model", "inverse",
          "serialize", "grid", "cli", "job")


def layer_metrics(tracer: Tracer, njobs: int) -> dict:
    """Per-layer metrics, times and counts given per job."""
    spans = tracer.spans
    own = tracer.self_times()
    per = 1.0 / max(njobs, 1)

    def dur(s):
        return s[T1] - s[T0]

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None

    def total(name, pred=lambda s: True):
        return sum(dur(s) for s in spans if s[NAME] == name and pred(s))

    def count(name, pred=lambda s: True):
        return sum(1 for s in spans if s[NAME] == name and pred(s))

    def attr_sum(name, key):
        return sum(s[ATTRS][key] for s in spans if s[NAME] == name)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, o in zip(spans, own):
        layer_self[s[NAME].split(".", 1)[0]] += o

    sweeps = [s for s in spans if s[NAME] == "quasi.sweep"]
    by_mode = {m: sum(dur(s) for s in sweeps if s[ATTRS]["mode"] == m)
               for m in ("plain", "dlam", "stored")}
    solves = [s[ATTRS] for s in spans if s[NAME] == "inverse.solve_phi"]
    ensures = [s[ATTRS] for s in spans if s[NAME] == "model.ensure"]
    requested = sum(e["requested"] for e in ensures)

    m = {
        "quasi.sweeps": (len(sweeps) * per, "count/job"),
        "quasi.sweep_s": (sum(dur(s) for s in sweeps) * per, "s/job"),
        "quasi.sweep_s.plain": (by_mode["plain"] * per, "s/job"),
        "quasi.sweep_s.dlam": (by_mode["dlam"] * per, "s/job"),
        "quasi.sweep_s.stored": (by_mode["stored"] * per, "s/job"),
        "quasi.lams_per_sweep": (sum(s[ATTRS]["L"] for s in sweeps)
                                 / max(len(sweeps), 1), "lam/sweep"),
        "quasi.rk4_updates": (attr_sum("quasi.sweep", "rk4_updates") * per,
                              "count/job"),
        "forward.self_s": (layer_self["forward"] * per, "s/job"),
        "forward.newton_s": (total("forward.newton_family") * per, "s/job"),
        "forward.newton_iters": (
            count("forward.char_arrays",
                  lambda s: parent_name(s) == "forward.newton_family") * per,
            "count/job"),
        "forward.weights_s": (
            total("forward.char_arrays",
                  lambda s: parent_name(s) == "forward.compute_spectral_data")
            * per, "s/job"),
        "forward.weyl_matrix_calls": (count("forward.weyl_matrix") * per,
                                      "count/job"),
        "forward.weyl_matrix_s": (total("forward.weyl_matrix") * per, "s/job"),
        "forward.weyl_batch_s": (total("forward.weyl_batch") * per, "s/job"),
        "forward.weyl_batch_lams": (attr_sum("forward.weyl_batch", "L") * per,
                                    "count/job"),
        "asympt.busy_s": (layer_self["asympt"] * per, "s/job"),
        "selfadjoint.busy_s": (layer_self["selfadjoint"] * per, "s/job"),
        "model.self_s": (layer_self["model"] * per, "s/job"),
        "model.build_s": (total("model.build_model") * per, "s/job"),
        "model.spectral_s": (
            total("forward.compute_spectral_data",
                  lambda s: s[CALLER] == "model") * per, "s/job"),
        "model.ensure_s": (total("model.ensure") * per, "s/job"),
        "model.cache_hit_ratio": (
            sum(e["hits"] for e in ensures) / requested if requested else 0.0,
            "1"),
        "inverse.self_s": (layer_self["inverse"] * per, "s/job"),
        "inverse.assemble_s": (total("inverse.assemble") * per, "s/job"),
        "inverse.kernel_evals": (
            sum(s[ATTRS]["size"] ** 2 for s in spans
                if s[NAME] == "inverse.assemble") * per, "count/job"),
        "inverse.solve_s": (total("inverse.solve_phi") * per, "s/job"),
        "inverse.solve_nodes": (sum(a["nodes"] for a in solves) * per,
                                "count/job"),
        "inverse.matrix_bytes": (attr_sum("inverse.assemble", "matrix_bytes")
                                 * per, "B/job"),
        "inverse.rcond_min": (min((a["rcond_min"] for a in solves),
                                  default=0.0), "1"),
        "inverse.residual_max": (max((a["residual_max"] for a in solves),
                                     default=0.0), "1"),
        "inverse.reconstruct_s": (total("inverse.reconstruct") * per, "s/job"),
        "serialize.busy_s": (layer_self["serialize"] * per, "s/job"),
        "serialize.bytes_out": (attr_sum("serialize.dumps17", "bytes") * per,
                                "B/job"),
        "grid.io_s": (layer_self["grid"] * per, "s/job"),
        "grid.io_bytes": (
            (attr_sum("grid.read_coefficients", "bytes")
             + attr_sum("grid.write_coefficients", "bytes")) * per, "B/job"),
        "cli.self_s": (layer_self["cli"] * per, "s/job"),
        "job.self_s": (layer_self["job"] * per, "s/job"),
        "job.self_sum_s": (sum(layer_self.values()) * per, "s/job"),
    }
    return m


def fired(tracer: Tracer) -> set:
    return {s[NAME] for s in tracer.spans}
