import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral3.grid import (CoefficientPair, Grid, GridFunction, cumulative,
                            integrate, l2_norm, midpoint_values,
                            read_coefficients, w2m1_distance,
                            write_coefficients)

from helpers import (dagger, differentiate, from_callable, from_callables,
                     gauge_shifted)


def test_grid_invariants():
    g = Grid(64)
    assert g.h == 1.0 / 64
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
    with pytest.raises(ValueError):
        Grid(65)
    with pytest.raises(ValueError):
        Grid(2)


def test_integrate_exact_for_cubic():
    # Simpson integrates cubics exactly
    g = Grid(16)
    f = from_callable(g, lambda x: x**3 - 2 * x + 1)
    assert abs(integrate(f) - (0.25 - 1.0 + 1.0)) < 1e-15


def test_integrate_fourth_order():
    exact = np.exp(1.0) - 1.0
    errs = []
    for M in (64, 128):
        f = from_callable(Grid(M), lambda x: np.exp(x))
        errs.append(abs(integrate(f) - exact))
    assert errs[0] < 1e-8
    # halving h gains about 2^4
    assert errs[0] / errs[1] > 12.0


def test_cumulative_matches_antiderivative():
    g = Grid(128)
    f = from_callable(g, lambda x: np.cos(2 * np.pi * x))
    F = cumulative(f)
    exact = np.sin(2 * np.pi * g.nodes) / (2 * np.pi)
    assert F.values[0] == 0.0
    assert np.abs(F.values - exact).max() < 1e-8
    # endpoint agrees with the plain quadrature
    assert abs(F.values[-1] - integrate(f)) < 1e-14


def test_cumulative_fourth_order_at_odd_nodes():
    errs = []
    for M in (64, 128):
        g = Grid(M)
        f = from_callable(g, lambda x: np.exp(x))
        err = np.abs(cumulative(f).values - (np.exp(g.nodes) - 1.0))
        errs.append(err[1::2].max())
    assert errs[0] / errs[1] > 12.0


def test_cumulative_columns_equal_one_dimensional_calls():
    # a (M+1, P) array integrates column by column, bit for bit
    g = Grid(64)
    rng = np.random.default_rng(7)
    cols = rng.standard_normal((65, 5)) + 1j * rng.standard_normal((65, 5))
    for v in (cols, cols.T.copy().T):        # C- and F-ordered columns
        out = cumulative(v)
        assert out.shape == (65, 5)
        for p in range(5):
            assert np.array_equal(out[:, p], cumulative(v[:, p]))
    assert cumulative(np.zeros((65, 0))).shape == (65, 0)


def test_differentiate_exact_for_cubic():
    g = Grid(32)
    f = from_callable(g, lambda x: x**3 - x**2)
    df = differentiate(f)
    exact = 3 * g.nodes**2 - 2 * g.nodes
    assert np.abs(df.values - exact).max() < 1e-12


def test_differentiate_fourth_order():
    errs = []
    for M in (64, 128):
        g = Grid(M)
        f = from_callable(g, lambda x: np.sin(3 * x))
        errs.append(np.abs(differentiate(f).values - 3 * np.cos(3 * g.nodes)).max())
    assert errs[0] / errs[1] > 12.0


def test_midpoint_values_exact_for_cubic():
    g = Grid(16)
    f = from_callable(g, lambda x: (x - 0.3)**3)
    mids = (np.arange(g.M) + 0.5) / g.M
    assert np.abs(midpoint_values(f) - (mids - 0.3)**3).max() < 1e-14


def test_l2_norm_values():
    g = Grid(64)
    assert abs(l2_norm(GridFunction.constant(g, 1.0)) - 1.0) < 1e-15
    f = from_callable(g, lambda x: x)
    assert abs(l2_norm(f) - 1.0 / np.sqrt(3.0)) < 1e-15


def test_w2m1_mod_constant():
    g = Grid(64)
    f = from_callable(g, lambda x: np.sin(2 * np.pi * x) + 0.7j)
    shifted = f + GridFunction.constant(g, 3.0 - 2.0j)
    # the metric subtracts |integral|^2 before the square root, so a
    # mathematically-zero distance is resolved only to sqrt(eps)*|c|
    assert w2m1_distance(f, shifted) < 1e-6
    # against zero: ||sin - 0||^2 - |mean|^2 = 1/2
    z = GridFunction.constant(g, 0.0)
    s = from_callable(g, lambda x: np.sin(2 * np.pi * x))
    assert abs(w2m1_distance(s, z) - np.sqrt(0.5)) < 1e-10


def test_gridfunction_arithmetic():
    g = Grid(8)
    f = from_callable(g, lambda x: x)
    h = GridFunction.constant(g, 2.0j)
    assert np.allclose((f + h).values, g.nodes + 2.0j)
    assert np.allclose((f - h).values, g.nodes - 2.0j)
    assert np.allclose((f * h).values, 2.0j * g.nodes)


def test_coefficient_pair_gauge_and_dagger():
    g = Grid(16)
    pair = from_callables(g, lambda x: x + 1j, lambda x: x**2)
    shifted = gauge_shifted(pair, 5.0 - 1.0j)
    assert np.allclose(shifted.sigma0.values, pair.sigma0.values + 5.0 - 1.0j)
    assert np.allclose(shifted.tau1.values, pair.tau1.values)
    dag = dagger(pair)
    assert np.allclose(dag.tau1.values, np.conj(pair.tau1.values))
    assert np.allclose(dag.sigma0.values, -np.conj(pair.sigma0.values))
    with pytest.raises(ValueError):
        CoefficientPair(GridFunction.constant(Grid(8), 0.0),
                        GridFunction.constant(Grid(16), 0.0))


def test_coefficients_roundtrip(tmp_path):
    g = Grid(16)
    pair = from_callables(
        g, lambda x: np.cos(x) + 1j * x, lambda x: x**2 - 0.5j)
    path = tmp_path / "c.csv"
    write_coefficients(path, pair)
    back = read_coefficients(path)
    assert np.array_equal(back.tau1.values, pair.tau1.values)
    assert np.array_equal(back.sigma0.values, pair.sigma0.values)


def _fmt_rows(pair):
    # the per-field rendering write_coefficients replaced
    xs, t1, s0 = pair.grid.nodes, pair.tau1.values, pair.sigma0.values
    return [",".join("%.17g" % u for u in (xs[m], t1[m].real, t1[m].imag,
                                          s0[m].real, s0[m].imag))
            for m in range(pair.grid.M + 1)]


def test_write_coefficients_bytes(tmp_path):
    # data/smooth.csv round-trips byte for byte
    src = Path(__file__).resolve().parents[1] / "data" / "smooth.csv"
    path = tmp_path / "smooth.csv"
    write_coefficients(path, read_coefficients(src))
    assert path.read_bytes() == src.read_bytes()
    # a complex pair with negative parts, signed zeros and tiny and huge
    # magnitudes renders as the per-field formatting did
    g = Grid(16)
    pair = from_callables(
        g, lambda x: -np.exp(20 * x) * (np.cos(7 * x) - 1j * x) / 3.0,
        lambda x: -1e-300 * x + 1j * (np.sin(x) - 0.5) / 7.0)
    pair.sigma0.values[0] = complex(-0.0, -0.0)
    write_coefficients(path, pair)
    lines = path.read_text().split("\n")
    assert lines[1:] == _fmt_rows(pair) + [""]


def test_read_coefficients_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,tau1_re\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        read_coefficients(p)
    p.write_text("x,tau1_re,tau1_im,sigma0_re,sigma0_im\n"
                 "0,1,0,0,0\n0.5,zzz,0,0,0\n1,1,0,0,0\n")
    with pytest.raises(ValueError, match="row 3"):
        read_coefficients(p)
    # odd number of intervals
    rows = ["x,tau1_re,tau1_im,sigma0_re,sigma0_im"]
    for x in np.linspace(0, 1, 4):
        rows.append("%.17g,1,0,0,0" % x)
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="even"):
        read_coefficients(p)
    # non-uniform nodes
    rows = ["x,tau1_re,tau1_im,sigma0_re,sigma0_im"]
    for x in (0.0, 0.2, 0.5, 0.8, 1.0):
        rows.append("%.17g,1,0,0,0" % x)
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="uniform"):
        read_coefficients(p)


_ROWS = ["0,1,0,0,0", "0.25,1,0,0,0", "0.5,1,0,0,0", "0.75,1,0,0,0",
         "1,1,0,0,0"]


@pytest.mark.parametrize("bad", ["zzz", "", "nan", "inf", "-inf", None])
@pytest.mark.parametrize("row", [1, 3])
def test_read_coefficients_names_the_first_bad_row(tmp_path, bad, row):
    # a field that is not a number, an empty field, a row of 4 fields
    # (bad = None), NaN and either infinity: the message names the first
    # bad row, counted among the non-blank lines with the header as row
    # 1, and quotes it; the non-finite last row is not reached
    rows = list(_ROWS)
    parts = rows[row].split(",")
    if bad is None:
        del parts[2]
    else:
        parts[2] = bad
    rows[row] = ",".join(parts)
    rows[4] = "1,1,0,inf,0"
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(["x,tau1_re,tau1_im,sigma0_re,sigma0_im", ""]
                           + rows) + "\n")
    with pytest.raises(ValueError) as ei:
        read_coefficients(p)
    assert str(ei.value) == "bad coefficient row %d: %r" % (row + 2,
                                                            rows[row])


def _per_field(path):
    # (x, tau1, sigma0) in node order from one float() per field
    with open(path) as fh:
        rows = [[float(t) for t in ln.split(",")]
                for ln in fh.read().split("\n")[1:] if ln]
    rows.sort(key=lambda r: r[0])
    return ([r[0] for r in rows], [complex(r[1], r[2]) for r in rows],
            [complex(r[3], r[4]) for r in rows])


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


def _bank_csv(path):
    # pair 1 of the benchmark's bank (a general pair) as the benchmark
    # writes it
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs",
        Path(__file__).parent.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.write_coeff_csv(path, *inputs.bank()[1], 512)
    return path


def test_read_coefficients_equals_a_per_field_parse(tmp_path):
    # the values of one float() per field, bit for bit, on the bundled
    # pair and a benchmark pair, and on the benchmark pair with its rows
    # shuffled, which come back sorted by x
    smooth = Path(__file__).parent.parent / "data" / "smooth.csv"
    bank = _bank_csv(tmp_path / "bank.csv")
    lines = bank.read_text().split("\n")
    body = [ln for ln in lines[1:] if ln]
    np.random.default_rng(7).shuffle(body)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([lines[0]] + body) + "\n")
    for path in (smooth, bank, shuffled):
        pair = read_coefficients(path)
        x, t1, s0 = _per_field(path)
        assert np.array_equal(pair.grid.nodes, x)
        assert np.array_equal(_bits(pair.tau1.values), _bits(t1))
        assert np.array_equal(_bits(pair.sigma0.values), _bits(s0))
    assert body[0] != lines[1]


@settings(max_examples=50)
@given(st.lists(st.floats(-5, 5), min_size=9, max_size=9),
       st.floats(-3, 3), st.floats(-3, 3))
def test_integrate_linear_in_f(vals, a, b):
    g = Grid(8)
    f = GridFunction(g, np.asarray(vals, dtype=complex))
    h = from_callable(g, lambda x: x)
    lhs = integrate(GridFunction(g, a * f.values + b * h.values))
    rhs = a * integrate(f) + b * integrate(h)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))
