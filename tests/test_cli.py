import csv
import json

import numpy as np
import pytest

from spectral3.cli import _build_parser, main
from spectral3.forward import load_spectral_data, save_spectral_data
from spectral3.grid import read_coefficients, write_coefficients


@pytest.fixture(scope="module")
def zero_csv(tmp_path_factory, zero_coeffs):
    path = tmp_path_factory.mktemp("cli") / "zero.csv"
    write_coefficients(path, zero_coeffs)
    return str(path)


@pytest.fixture(scope="module")
def smooth_json(tmp_path_factory, smooth_data8):
    path = tmp_path_factory.mktemp("cli") / "smooth8.json"
    save_spectral_data(path, smooth_data8.truncate(4))
    return str(path)


def test_forward_zero_coefficients(tmp_path, zero_csv, capsys):
    out = str(tmp_path / "data.json")
    rc = main(["forward", "--coeffs", zero_csv, "--n-max", "8",
               "--grid", "512", "--out", out])
    assert rc == 0
    obj = json.loads(open(out).read())
    assert obj["n_max"] == 8
    assert len(obj["entries"]) == 16
    assert obj["K"] == []
    assert "diagnostics" in obj
    # zero coefficients are in the self-adjoint class
    assert obj["diagnostics"]["symmetry"]["pass"] is True
    printed = capsys.readouterr().out
    assert "self-adjoint symmetry report: pass" in printed


def test_forward_rejects_malformed_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,tau1_re,tau1_im,sigma0_re,sigma0_im\n"
                   "0,1,0,0,0\n"
                   "0.5,nope,0,0,0\n"
                   "1,1,0,0,0\n")
    rc = main(["forward", "--coeffs", str(bad), "--n-max", "2",
               "--out", str(tmp_path / "o.json")])
    assert rc == 1
    assert "row 3" in capsys.readouterr().err


def test_inverse_pipeline(tmp_path, smooth_json):
    rec = str(tmp_path / "rec.csv")
    diag = str(tmp_path / "diag.json")
    rc = main(["inverse", "--data", smooth_json, "--big-n", "4",
               "--out", rec, "--diag", diag])
    assert rc == 0
    pair = read_coefficients(rec)
    assert pair.grid.M == 512
    assert np.isfinite(pair.tau1.values).all()
    report = json.loads(open(diag).read())
    assert "d" in report and "rcond_min" in report and "xi" in report
    assert len(report["xi"]) == 4


def test_inverse_rejects_duplicate_eigenvalues(tmp_path, smooth_data8,
                                               capsys):
    d = smooth_data8.truncate(4).copy()
    d.lambdas[1, 0] = d.lambdas[0, 0]
    path = tmp_path / "dup.json"
    save_spectral_data(path, d)
    rc = main(["inverse", "--data", str(path), "--big-n", "4",
               "--out", str(tmp_path / "rec.csv")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "admissibility" in err and "--force" in err
    assert not (tmp_path / "rec.csv").exists()


@pytest.mark.parametrize("ns, message", [
    pytest.param([7], "1..n_max=2", id="7"),
    pytest.param([0], "1..n_max=2", id="0"),
    pytest.param([1, 1], "n=1 more than once", id="duplicate"),
])
def test_inverse_rejects_K_index_out_of_range(tmp_path, smooth_data8, ns,
                                              message, capsys):
    path = tmp_path / "badK.json"
    save_spectral_data(path, smooth_data8.truncate(2))
    obj = json.loads(path.read_text())
    obj["K"] = [{"n": n, "gamma": [1.0, 0.0]} for n in ns]
    path.write_text(json.dumps(obj))
    rc = main(["inverse", "--data", str(path), "--big-n", "2",
               "--out", str(tmp_path / "rec.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("spectral3:") and message in err
    assert not (tmp_path / "rec.csv").exists()


def test_inverse_force_on_clean_data(tmp_path, smooth_json):
    rc = main(["inverse", "--data", smooth_json, "--big-n", "3",
               "--out", str(tmp_path / "rec.csv"), "--force"])
    assert rc == 0


def test_roundtrip_bundled_sample(tmp_path):
    import os
    sample = os.path.join(os.path.dirname(__file__), "..", "data",
                          "smooth.csv")
    out = str(tmp_path / "rt.csv")
    rc = main(["roundtrip", "--coeffs", sample, "--big-n", "8",
               "--grid", "512", "--out", out])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 1 and rows[0]["N"] == "8"
    assert float(rows[0]["max_rel_lambda_err"]) <= 1e-3
    assert float(rows[0]["max_rel_beta_err"]) <= 5e-3


def test_stability_ladder(tmp_path, smooth_json):
    out = str(tmp_path / "st.csv")
    rc = main(["stability", "--data", smooth_json, "--big-n", "3",
               "--deltas", "1e-2,5e-3", "--out", out])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 3
    assert float(rows[0]["delta"]) == 0.0 and rows[0]["tau1_ratio"] == ""
    assert rows[1]["status"] == "ok" and rows[2]["status"] == "ok"
    r1 = float(rows[1]["tau1_ratio"])
    r2 = float(rows[2]["tau1_ratio"])
    assert abs(r1 / r2 - 1.0) < 0.5


@pytest.mark.parametrize("spec", ["theta:1,1", "beta:9,1", "beta:1,3",
                                  "beta:4,1"])
def test_stability_rejects_bad_perturb(tmp_path, smooth_json, capsys, spec):
    # n = 9 lies outside the data, n = 4 outside the truncation N = 3
    rc = main(["stability", "--data", smooth_json, "--big-n", "3",
               "--perturb", spec, "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "perturb" in capsys.readouterr().err


@pytest.mark.parametrize("deltas", ["nan,1e-2", "inf", "1e-2,-inf"])
def test_stability_rejects_nonfinite_deltas(tmp_path, smooth_json, capsys,
                                            deltas):
    out = tmp_path / "o.csv"
    rc = main(["stability", "--data", smooth_json, "--big-n", "3",
               "--deltas=" + deltas, "--out", str(out)])
    assert rc == 1
    assert "perturbation sizes must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_stability_runs_zero_and_negative_deltas(tmp_path, smooth_json):
    out = str(tmp_path / "st.csv")
    rc = main(["stability", "--data", smooth_json, "--big-n", "3",
               "--deltas=0,-1e-2", "--out", out])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert [r["status"] for r in rows] == ["ok", "ok", "ok"]
    assert float(rows[1]["d"]) == 0.0 and rows[1]["tau1_ratio"] == ""
    assert abs(float(rows[2]["d"]) - 1e-2) < 1e-11


@pytest.mark.parametrize("command", ["forward", "roundtrip"])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_pair_tol_exits_1(tmp_path, zero_csv, capsys, command, tol):
    # NaN and negative tolerances pair nothing, an infinite one pairs
    # every index; all are refused before the forward map runs
    flag = "--n-max" if command == "forward" else "--big-n"
    out = tmp_path / "o"
    rc = main([command, "--coeffs", zero_csv, flag, "2",
               "--pair-tol=" + tol, "--out", str(out)])
    assert rc == 1
    assert ("pair tolerance must be a finite number >= 0"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["forward", "inverse", "roundtrip",
                                     "stability", "verify"])
def test_truncation_order_below_one_is_rejected(tmp_path, zero_csv,
                                                smooth_json, capsys, command):
    source = (["--coeffs", zero_csv] if command in ("forward", "roundtrip")
              else ["--data", smooth_json])
    # the library refuses the order (SpectralData.truncate, or
    # compute_spectral_data for the n_max it is asked for)
    flag = "--n-max" if command == "forward" else "--big-n"
    out = tmp_path / "o"
    rc = main([command] + source + [flag, "0", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("spectral3:") and "must be at least 1" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["inverse", "stability", "verify"])
def test_truncation_order_above_the_data_is_rejected(tmp_path, smooth_json,
                                                     capsys, command):
    out = tmp_path / "o"
    extra = ["--mode", "weyl"] if command == "verify" else []
    rc = main([command, "--data", smooth_json, "--big-n", "5", "--out",
               str(out)] + extra)
    assert rc == 1
    assert ("spectral3: N=5 exceeds the data range n_max=4"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["inverse", "verify", "stability"])
def test_repeated_spectral_entry_exits_1(tmp_path, smooth_json, capsys,
                                         command):
    obj = json.loads(open(smooth_json).read())
    obj["entries"].append(dict(obj["entries"][0], **{"lambda": [123, 0]}))
    bad = tmp_path / "repeated.json"
    bad.write_text(json.dumps(obj))
    extra = ["--mode", "weyl"] if command == "verify" else []
    rc = main([command, "--data", str(bad), "--big-n", "3", "--out",
               str(tmp_path / "o")] + extra)
    assert rc == 1
    assert "spectral3: entry (n=1, k=1) is repeated" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["inverse", "verify", "stability"])
@pytest.mark.parametrize("field, value", [
    ("lambda", float("nan")), ("beta", float("inf")),
    ("theta", float("nan")), ("gamma", float("-inf")),
])
def test_nonfinite_spectral_value_exits_1(tmp_path, smooth_json, capsys,
                                          command, field, value):
    # json.load reads NaN and Infinity; the loader refuses them
    obj = json.loads(open(smooth_json).read())
    if field == "theta":
        obj["theta"][0] = value
    elif field == "gamma":
        obj["K"] = [{"n": 1, "gamma": [1.0, value]}]
    else:
        obj["entries"][1][field][1] = value
    bad = tmp_path / "nonfinite.json"
    bad.write_text(json.dumps(obj))
    extra = ["--mode", "weyl"] if command == "verify" else []
    rc = main([command, "--data", str(bad), "--big-n", "3", "--out",
               str(tmp_path / "o")] + extra)
    assert rc == 1
    assert "non-finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _set(*path_value):
    """An edit of a parsed JSON file: obj[p0][p1]... = value."""
    *path, last, value = path_value

    def edit(obj):
        for key in path:
            obj = obj[key]
        obj[last] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    # indices and n_max are JSON integers; a float was truncated, a bool
    # or a numeric string read as a number
    pytest.param(_set("n_max", 4.9), "n_max must be a JSON integer",
                 id="n_max-float"),
    pytest.param(_set("n_max", "4"), "n_max must be a JSON integer",
                 id="n_max-string"),
    pytest.param(_set("n_max", True), "n_max must be a JSON integer",
                 id="n_max-bool"),
    pytest.param(_set("n_max", None), "n_max must be a JSON integer",
                 id="n_max-null"),
    pytest.param(_set("n_max", -1), "n_max must be >= 0", id="n_max-negative"),
    pytest.param(_set("entries", 0, "n", 1.7), "n must be a JSON integer",
                 id="n-float"),
    pytest.param(_set("entries", 0, "k", True), "k must be a JSON integer",
                 id="k-bool"),
    pytest.param(_set("entries", 2, "n", "2"), "n must be a JSON integer",
                 id="n-string"),
    pytest.param(_set("K", [{"n": 1.0, "gamma": [1.0, 0.0]}]),
                 "K n must be a JSON integer", id="K-n-float"),
    # complex values are lists of exactly two numbers
    pytest.param(_set("entries", 0, "lambda", "77"), "[re, im]",
                 id="lambda-string"),
    pytest.param(_set("entries", 1, "beta", [True, 0.0]), "[re, im]",
                 id="beta-bool"),
    pytest.param(_set("theta", 1.3), "[re, im]", id="theta-scalar"),
    pytest.param(_set("theta", [1.3]), "[re, im]", id="theta-1-item"),
    pytest.param(_set("theta", [1.3, 0.0, 0.0]), "[re, im]",
                 id="theta-3-items"),
    # containers of the wrong kind
    pytest.param(lambda obj: [obj], "holds a JSON list, not an object",
                 id="top-level-list"),
    pytest.param(_set("entries", None), "is malformed", id="entries-null"),
    pytest.param(_set("entries", 1, [1, 1]), "is malformed",
                 id="entry-list"),
    pytest.param(_set("K", {"n": 1}), "is malformed", id="K-object"),
])
def test_malformed_spectral_file_exits_1(tmp_path, smooth_json, capsys,
                                         edit, message):
    obj = json.loads(open(smooth_json).read())
    obj = edit(obj) or obj
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "rec.csv"
    rc = main(["inverse", "--data", str(bad), "--big-n", "3", "--out",
               str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("spectral3:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["forward", "verify"])
@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_nonfinite_coefficient_exits_1(tmp_path, zero_csv, smooth_json,
                                       capsys, command, token):
    lines = open(zero_csv).read().splitlines()
    parts = lines[3].split(",")
    parts[2] = token
    lines[3] = ",".join(parts)
    bad = tmp_path / "nonfinite.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "o")
    if command == "forward":
        argv = ["forward", "--coeffs", str(bad), "--n-max", "2", "--out", out]
    else:
        argv = ["verify", "--data", smooth_json, "--rec", str(bad),
                "--big-n", "2", "--out", out]
    assert main(argv) == 1
    assert "bad coefficient row 4" in capsys.readouterr().err


def test_verify_spectral(tmp_path, smooth_json):
    rec = str(tmp_path / "rec.csv")
    assert main(["inverse", "--data", smooth_json, "--big-n", "4",
                 "--out", rec]) == 0
    out = str(tmp_path / "verify.json")
    rc = main(["verify", "--data", smooth_json, "--rec", rec,
               "--big-n", "4", "--out", out])
    assert rc == 0
    report = json.loads(open(out).read())
    assert report["mode"] == "spectral"
    assert report["pass"] is True
    assert report["lambda_rel_max"] <= 1e-3


def test_verify_spectral_reads_rtol(tmp_path, smooth_json):
    # the same reconstruction fails a tolerance no discretised run meets
    rec = str(tmp_path / "rec.csv")
    assert main(["inverse", "--data", smooth_json, "--big-n", "4",
                 "--out", rec]) == 0
    out = str(tmp_path / "verify.json")
    rc = main(["verify", "--data", smooth_json, "--rec", rec,
               "--big-n", "4", "--rtol", "1e-30", "--out", out])
    assert rc == 0
    assert json.loads(open(out).read())["pass"] is False


@pytest.mark.parametrize("rtol", ["nan", "inf", "0", "-1"])
def test_verify_spectral_rejects_bad_rtol(tmp_path, zero_csv, smooth_json,
                                          capsys, rtol):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--data", smooth_json, "--rec", zero_csv,
               "--big-n", "4", "--rtol=" + rtol, "--out", str(out)])
    assert rc == 1
    assert ("verify tolerance must be a finite number > 0"
            in capsys.readouterr().err)
    assert not out.exists()


def test_verify_spectral_needs_rec(tmp_path, smooth_json, capsys):
    rc = main(["verify", "--data", smooth_json, "--big-n", "4",
               "--out", str(tmp_path / "v.json")])
    assert rc == 1
    assert "--rec" in capsys.readouterr().err


def test_verify_weyl(tmp_path, smooth_json):
    out = str(tmp_path / "verify.json")
    rc = main(["verify", "--data", smooth_json, "--mode", "weyl",
               "--big-n", "3", "--out", out])
    assert rc == 0
    report = json.loads(open(out).read())
    assert report["pass"] is True
    assert report["interpolation_max"] <= 1e-6


def test_verify_weyl_refuses_rec(tmp_path, smooth_json, capsys):
    # weyl mode checks a fresh reconstruction; a --rec file it would not
    # read is refused, junk or not
    junk = tmp_path / "junk.csv"
    junk.write_text("not a coefficient file\n")
    out = tmp_path / "verify.json"
    rc = main(["verify", "--data", smooth_json, "--mode", "weyl",
               "--rec", str(junk), "--big-n", "3", "--out", str(out)])
    assert rc == 1
    assert "--rec" in capsys.readouterr().err
    assert not out.exists()


def test_verify_weyl_refuses_rtol(tmp_path, smooth_json, capsys):
    # weyl mode's checks have fixed tolerances; an --rtol it would not
    # read is refused
    out = tmp_path / "verify.json"
    rc = main(["verify", "--data", smooth_json, "--mode", "weyl",
               "--rtol", "5", "--big-n", "3", "--out", str(out)])
    assert rc == 1
    assert "--rtol" in capsys.readouterr().err
    assert not out.exists()


def test_grid_flag_validation(tmp_path, zero_csv, capsys):
    out = tmp_path / "o.json"
    rc = main(["forward", "--coeffs", zero_csv, "--n-max", "2",
               "--grid", "513", "--out", str(out)])
    assert rc == 1
    assert "even" in capsys.readouterr().err
    rc = main(["forward", "--coeffs", zero_csv, "--n-max", "2",
               "--grid", "32", "--out", str(out)])
    assert rc == 1
    assert "spectral3: grid size must be even and at least 64, got 32" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_parser_errors_exit_1(zero_csv, tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["bogus"])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["forward", "--coeffs", zero_csv])   # missing required flags
    assert ei.value.code == 1


def test_tolerance_and_thread_flags_are_gone(zero_csv, smooth_json,
                                            tmp_path):
    from spectral3 import forward
    out = str(tmp_path / "o")
    forward_args = ["forward", "--coeffs", zero_csv, "--n-max", "2",
                    "--out", out]
    inverse_args = ["inverse", "--data", smooth_json, "--big-n", "3",
                    "--out", out]
    for argv in (forward_args + ["--newton-tol", "1e-4"],
                 forward_args + ["--pole-tol", "1e-2"],
                 forward_args + ["--threads", "2"],
                 forward_args + ["--config", "x.cfg"],
                 inverse_args + ["--pair-tol", "1e-6"],
                 inverse_args + ["--model-jitter", "0.05"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 1, argv
    assert forward._NEWTON_TOL == 1e-12
    assert forward._POLE_TOL == 1e-10


def _parse(argv):
    return _build_parser().parse_args(argv)


def test_file_arguments(tmp_path, zero_csv):
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    a.write_text("# defaults\n\nn_max = 2\n")
    b.write_text("grid = 128\n")
    tail = ["--coeffs", zero_csv, "--out", "o.json"]
    # two files both apply
    args = _parse(["forward", "@%s" % a, "@%s" % b] + tail)
    assert (args.n_max, args.grid) == (2, 128)
    # a flag after the file wins, a flag before it loses
    assert _parse(["forward", "@%s" % a, "--n-max", "3"] + tail).n_max == 3
    assert _parse(["forward", "--n-max", "3", "@%s" % a] + tail).n_max == 2
    # booleans switch a flag on or leave it out
    f = tmp_path / "f.cfg"
    inv = ["inverse", "--data", "d.json", "--big-n", "2", "--out", "o.csv"]
    f.write_text("force = true\n")
    assert _parse(inv + ["@%s" % f]).force is True
    f.write_text("force = false\n")
    assert _parse(inv + ["@%s" % f]).force is False
    # end to end: the run reads both files
    out, ref = str(tmp_path / "o.json"), str(tmp_path / "ref.json")
    assert main(["forward", "@%s" % a, "@%s" % b, "--coeffs", zero_csv,
                 "--out", out]) == 0
    assert main(["forward", "--n-max", "2", "--grid", "128",
                 "--coeffs", zero_csv, "--out", ref]) == 0
    assert open(out).read() == open(ref).read()


def test_file_argument_errors(tmp_path, zero_csv, capsys):
    tail = ["--coeffs", zero_csv, "--n-max", "2",
            "--out", str(tmp_path / "o.json")]
    bad, unknown = tmp_path / "bad.cfg", tmp_path / "unknown.cfg"
    bad.write_text("griddle\n")
    unknown.write_text("griddle = 3\n")
    for cfg in (bad, tmp_path / "missing.cfg", unknown):
        with pytest.raises(SystemExit) as ei:
            main(["forward", "@%s" % cfg] + tail)
        assert ei.value.code == 1, cfg
        err = capsys.readouterr().err
        if cfg == bad:
            assert "key=value" in err


def test_abbreviated_flags_exit_1(tmp_path, zero_csv, capsys):
    # a prefix of a real flag is an unknown flag, on the command line and
    # in an @FILE alike: '--gr 128' is not read as '--grid 128'
    cfg = tmp_path / "gr.cfg"
    cfg.write_text("gr = 128\n")
    tail = ["--coeffs", zero_csv, "--n-max", "2",
            "--out", str(tmp_path / "o.json")]
    for extra in (["--gr", "128"], ["@%s" % cfg]):
        with pytest.raises(SystemExit) as ei:
            main(["forward"] + tail + extra)
        assert ei.value.code == 1, extra
        assert "unrecognized arguments: --gr 128" in capsys.readouterr().err


def test_outputs_are_deterministic_and_reread_exactly(tmp_path, zero_csv,
                                                      smooth_json):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["forward", "--coeffs", zero_csv, "--n-max", "3", "--out"]
    assert main(args + [out1]) == 0
    assert main(args + [out2]) == 0
    assert open(out1).read() == open(out2).read()
    # 17-digit serialization reads back bitwise
    data = load_spectral_data(out1)
    resaved = str(tmp_path / "c.json")
    save_spectral_data(resaved, data)
    again = load_spectral_data(resaved)
    assert np.array_equal(again.lambdas, data.lambdas)
    assert np.array_equal(again.betas, data.betas)

    rec1, rec2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    inv = ["inverse", "--data", smooth_json, "--big-n", "3", "--out"]
    assert main(inv + [rec1]) == 0
    assert main(inv + [rec2]) == 0
    assert open(rec1).read() == open(rec2).read()
    pair1 = read_coefficients(rec1)
    write_coefficients(rec2, pair1)
    pair2 = read_coefficients(rec2)
    assert np.array_equal(pair1.tau1.values, pair2.tau1.values)
    assert np.array_equal(pair1.sigma0.values, pair2.sigma0.values)


# Run in a fresh interpreter: the CLI steps in argv (JSON) in turn, and
# after the import and after each step whether scipy.linalg is loaded.
_FRESH_RUN = """
import json, sys
from spectral3.cli import main
loaded = [("import", "scipy.linalg" in sys.modules)]
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append((argv[0], "scipy.linalg" in sys.modules))
print(json.dumps(loaded))
"""


def test_lapack_loads_only_in_the_node_solve(tmp_path, zero_csv,
                                             smooth_json):
    import os
    import subprocess
    import sys

    import spectral3

    ref = tmp_path / "ref.csv"
    assert main(["inverse", "--data", smooth_json, "--big-n", "3",
                 "--out", str(ref)]) == 0
    rec = tmp_path / "rec.csv"
    steps = [["forward", "--coeffs", zero_csv, "--n-max", "2",
              "--grid", "128", "--out", str(tmp_path / "d.json")],
             ["verify", "--data", smooth_json, "--rec", str(ref),
              "--big-n", "3", "--out", str(tmp_path / "v.json")],
             ["inverse", "--data", smooth_json, "--big-n", "3",
              "--out", str(rec)]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        spectral3.__file__)))
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN,
                           json.dumps(steps)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == [["import", False], ["forward", False],
                      ["verify", False], ["inverse", True]]
    # the first solve loads LAPACK and writes what an in-process run does
    assert rec.read_bytes() == ref.read_bytes()
