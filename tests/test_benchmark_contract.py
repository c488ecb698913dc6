"""The benchmark's boundary contract: every span that perfbench/spans.py
expects a traced run to fire must fire on a tiny forward + inverse CLI
pair and one Weyl contour, and the names perfbench/workloads.py calls
outside spans must answer, so a rename of a wrapped name, of an
argument a span reads or of a directly called name fails here before a
benchmark run does.  perfbench is only read."""

import importlib.util
import os
from functools import partial

import numpy as np

from spectral3.grid import Grid, write_coefficients

from helpers import from_callables

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_expected_span_fires(tmp_path):
    spans = _load_spans()
    # Wrapped names are looked up through the modules at call time.
    from spectral3 import cli, forward

    # the pair of data/smooth.csv, sampled on the 128-node grid
    coeffs = from_callables(Grid(128),
                            lambda x: np.cos(2.0 * np.pi * x) + 0.3,
                            lambda x: 0.3j * np.sin(np.pi * x))
    sample = str(tmp_path / "smooth128.csv")
    write_coefficients(sample, coeffs)
    data, rec = str(tmp_path / "smooth.json"), str(tmp_path / "rec.csv")
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        tracer.begin_job(0)
        try:
            assert cli.main(["forward", "--coeffs", sample, "--grid", "128",
                             "--n-max", "6", "--out", data]) == 0
            assert cli.main(["inverse", "--data", data, "--grid", "128",
                             "--big-n", "2", "--out", rec]) == 0
            loaded = forward.load_spectral_data(data)
            forward.laurent_coefficients(
                partial(forward.weyl_matrix, coeffs), loaded.lam(1, 1))
        finally:
            tracer.end_job()
    finally:
        tracer.unwrap_all()
    expected = set().union(*spans.EXPECTED.values())
    assert sorted(expected - spans.fired(tracer)) == []
    # the Weyl workload's check reads these outside any span
    beta = loaded.beta(1, 1)
    assert forward.weight_matrix(loaded, 1, 1)[1, 0] == -beta
