"""Complex-valued functions sampled on a uniform grid over [0, 1].

All quadrature and interpolation rules here are fourth-order accurate
for smooth data, which matches the global error of the fixed-step
Runge-Kutta integrator used by the rest of the package.
The grid size M must be even so that composite Simpson weights apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .serialize import finite_float

__all__ = [
    "Grid",
    "GridFunction",
    "CoefficientPair",
    "integrate",
    "cumulative",
    "l2_norm",
    "w2m1_distance",
    "midpoint_values",
    "read_coefficients",
    "write_coefficients",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid x_m = m/M, m = 0..M, with M even."""

    M: int

    def __post_init__(self):
        if self.M % 2 != 0:
            raise ValueError("grid size M must be even, got %d" % self.M)
        if self.M < 4:
            raise ValueError("grid size M must be at least 4, got %d" % self.M)

    @property
    def h(self) -> float:
        return 1.0 / self.M

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.M + 1)


@dataclass
class GridFunction:
    """Samples of a complex function at the nodes of a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.M + 1,):
            raise ValueError(
                "expected %d values, got shape %s" % (self.grid.M + 1, vals.shape)
            )
        self.values = vals

    @classmethod
    def constant(cls, grid: Grid, value: complex) -> "GridFunction":
        return cls(grid, np.full(grid.M + 1, value, dtype=complex))

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def _check(self, other: "GridFunction"):
        if other.grid.M != self.grid.M:
            raise ValueError("grid size mismatch: %d vs %d" % (self.grid.M, other.grid.M))

    def __add__(self, other):
        if isinstance(other, GridFunction):
            self._check(other)
            return GridFunction(self.grid, self.values + other.values)
        return GridFunction(self.grid, self.values + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            self._check(other)
            return GridFunction(self.grid, self.values - other.values)
        return GridFunction(self.grid, self.values - other)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check(other)
            return GridFunction(self.grid, self.values * other.values)
        return GridFunction(self.grid, self.values * other)

    __rmul__ = __mul__


@dataclass
class CoefficientPair:
    """The pair (tau1, sigma0): first-order coefficient and the
    antiderivative through which the distributional zero-order
    coefficient tau0 = sigma0' is represented."""

    tau1: GridFunction
    sigma0: GridFunction

    def __post_init__(self):
        if self.tau1.grid.M != self.sigma0.grid.M:
            raise ValueError("tau1 and sigma0 must share a grid")

    @classmethod
    def model(cls, grid: Grid, theta: complex) -> "CoefficientPair":
        """The constant model pair tau1 = theta, sigma0 = 0 on the grid."""
        return cls(GridFunction.constant(grid, theta),
                   GridFunction.constant(grid, 0.0))

    @property
    def grid(self) -> Grid:
        return self.tau1.grid

    @property
    def is_constant(self) -> bool:
        """Every sample of tau1 and of sigma0 bitwise equal to its first:
        the pair whose sweeps take quasi's power path."""
        values = np.stack((self.tau1.values, self.sigma0.values))
        bits = values.view(np.uint64).reshape(2, -1, 2)
        return bool((bits == bits[:, :1]).all())


def _values(f) -> np.ndarray:
    return f.values if isinstance(f, GridFunction) else np.asarray(f, dtype=complex)


def _simpson_weights(M: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 4, 1 over M + 1 nodes."""
    w = np.ones(M + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def integrate(f: GridFunction) -> complex:
    """Composite Simpson integral over [0, 1]."""
    v = _values(f)
    M = v.shape[0] - 1
    h = 1.0 / M
    return complex(h / 3.0 * np.dot(_simpson_weights(M), v))


def cumulative(f: GridFunction) -> GridFunction:
    """Antiderivative with value 0 at x = 0, fourth-order at every node.

    f is a GridFunction or an array of nodal values, (M+1,) or one column
    per function, (M+1, P); the result has the same type and shape.  Even
    prefixes are composite Simpson; the odd node is reached from the
    previous even one by the corrected trapezoid rule (cubic Newton-Cotes
    weights), so the whole table is O(h^4) rather than O(h^3).
    """
    v = _values(f)
    M = v.shape[0] - 1
    h = 1.0 / M
    out = np.zeros(v.shape, dtype=complex)
    # Simpson pairs for the even nodes.
    pair = h / 3.0 * (v[0:-2:2] + 4.0 * v[1:-1:2] + v[2::2])
    out[2::2] = np.cumsum(pair, axis=0)
    # Single-cell corrected trapezoid for each odd node.
    odd = np.arange(1, M + 1, 2)
    inner = odd[odd >= 3]
    out[inner] = out[inner - 1] + h / 24.0 * (
        -v[inner - 2] + 13.0 * v[inner - 1] + 13.0 * v[inner] - v[inner + 1]
    )
    # First cell uses the one-sided cubic rule.
    out[1] = h / 24.0 * (9.0 * v[0] + 19.0 * v[1] - 5.0 * v[2] + v[3])
    return GridFunction(f.grid, out) if isinstance(f, GridFunction) else out


def l2_norm(f: GridFunction) -> float:
    v = _values(f)
    M = v.shape[0] - 1
    h = 1.0 / M
    return float(np.sqrt(max(h / 3.0 * np.dot(_simpson_weights(M),
                                              np.abs(v) ** 2), 0.0)))


def w2m1_distance(s1: GridFunction, s2: GridFunction) -> float:
    """L2 distance modulo additive constants.

    min over complex c of ||s1 - s2 - c||, realized at c = int(s1 - s2);
    this is the natural metric for antiderivatives that are only
    determined up to a constant of integration.
    """
    d = s1 - s2
    mean = integrate(d)
    nrm2 = l2_norm(d) ** 2 - abs(mean) ** 2
    return float(np.sqrt(max(nrm2, 0.0)))


# Cubic interpolation. The 4-node stencil for the midpoint of an interior
# cell is (-1, 9, 9, -1)/16; the first and last cells fall back to the
# one-sided cubic through the nearest four nodes.

_MID_FIRST = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
_MID_LAST = _MID_FIRST[::-1].copy()


def midpoint_values(f) -> np.ndarray:
    """Values at cell midpoints (m + 1/2)/M by cubic interpolation."""
    v = _values(f)
    M = v.shape[0] - 1
    out = np.empty(M, dtype=complex)
    out[1:-1] = (-v[0:-3] + 9.0 * v[1:-2] + 9.0 * v[2:-1] - v[3:]) / 16.0
    out[0] = np.dot(_MID_FIRST, v[:4])
    out[-1] = np.dot(_MID_LAST, v[-4:])
    return out


# Coefficient file format: CSV with header
#   x,tau1_re,tau1_im,sigma0_re,sigma0_im
# one row per grid node, x ascending.

_HEADER = "x,tau1_re,tau1_im,sigma0_re,sigma0_im"


_ROW = ",".join(["%.17g"] * 5)


def write_coefficients(path, pair: CoefficientPair) -> None:
    t1 = pair.tau1.values
    s0 = pair.sigma0.values
    table = np.column_stack([pair.grid.nodes, t1.real, t1.imag,
                             s0.real, s0.imag]).tolist()
    lines = [_HEADER] + [_ROW % tuple(row) for row in table]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coefficients(path) -> CoefficientPair:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0].replace(" ", "") != _HEADER:
        raise ValueError("coefficient file must start with header '%s'" % _HEADER)
    body = lines[1:]
    # every field in one pass; a bad row is named by _bad_row
    try:
        if any(ln.count(",") != 4 for ln in body):
            raise ValueError
        table = np.array([float(p) for ln in body for p in ln.split(",")])
        if not np.isfinite(table).all():
            raise ValueError
    except ValueError:
        raise _bad_row(body) from None
    table = table.reshape(-1, 5)
    table = table[np.argsort(table[:, 0], kind="stable")]
    grid = Grid(len(table) - 1)
    if not np.allclose(table[:, 0], grid.nodes, atol=1e-12):
        raise ValueError("coefficient file nodes must be the uniform grid on [0, 1]")
    # (re, im) column pairs read as complex, bit for bit
    t1 = np.ascontiguousarray(table[:, 1:3]).view(complex)[:, 0]
    s0 = np.ascontiguousarray(table[:, 3:5]).view(complex)[:, 0]
    return CoefficientPair(GridFunction(grid, t1), GridFunction(grid, s0))


def _bad_row(body: list) -> ValueError:
    """The error naming the first line of body (numbered from 2, after
    the header) that is not five finite numbers."""
    for i, ln in enumerate(body, start=2):
        parts = ln.split(",")
        try:
            if len(parts) != 5:
                raise ValueError
            for p in parts:
                finite_float(p)
        except ValueError:
            return ValueError("bad coefficient row %d: %r" % (i, ln))
    raise AssertionError("every coefficient row reads")
