"""Complex-valued functions sampled on a uniform grid over [0, 1].

All quadrature, differentiation and interpolation rules here are
fourth-order accurate for smooth data, which matches the global error of
the fixed-step Runge-Kutta integrator used by the rest of the package.
The grid size M must be even so that composite Simpson weights apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .serialize import finite_float

__all__ = [
    "Grid",
    "GridFunction",
    "CoefficientPair",
    "integrate",
    "cumulative",
    "differentiate",
    "l2_norm",
    "w2m1_distance",
    "midpoint_values",
    "resample",
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

    @property
    def midpoints(self) -> np.ndarray:
        return (np.arange(self.M) + 0.5) / self.M


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
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        return cls(grid, np.asarray([fn(x) for x in grid.nodes], dtype=complex))

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

    def __neg__(self):
        return GridFunction(self.grid, -self.values)


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

    @property
    def grid(self) -> Grid:
        return self.tau1.grid

    @classmethod
    def from_callables(cls, grid: Grid, tau1, sigma0) -> "CoefficientPair":
        return cls(GridFunction.from_callable(grid, tau1),
                   GridFunction.from_callable(grid, sigma0))

    def gauge_shifted(self, c: complex) -> "CoefficientPair":
        """Shift sigma0 by a constant; tau0 = sigma0' is unchanged."""
        return CoefficientPair(self.tau1.copy(), self.sigma0 + c)

    def dagger(self) -> "CoefficientPair":
        """The conjugate-flipped pair (conj tau1, -conj sigma0)."""
        return CoefficientPair(
            GridFunction(self.grid, np.conj(self.tau1.values)),
            GridFunction(self.grid, -np.conj(self.sigma0.values)),
        )


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


def differentiate(f: GridFunction) -> GridFunction:
    """Fourth-order finite-difference derivative on the grid."""
    v = _values(f)
    M = v.shape[0] - 1
    if M < 4:
        raise ValueError("differentiate needs at least 5 nodes")
    h = 1.0 / M
    out = np.empty(M + 1, dtype=complex)
    out[2:-2] = (v[0:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    out[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
    out[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * h)
    out[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * h)
    out[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * h)
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


def _interp_cubic(v: np.ndarray, x: float) -> complex:
    M = v.shape[0] - 1
    t = min(max(x, 0.0), 1.0) * M
    m = int(np.floor(t))
    lo = min(max(m - 1, 0), M - 3)
    s = t - lo  # position in units of h from node lo
    p = v[lo:lo + 4]
    # Lagrange cubic on nodes 0,1,2,3 of the local stencil
    w0 = -(s - 1.0) * (s - 2.0) * (s - 3.0) / 6.0
    w1 = s * (s - 2.0) * (s - 3.0) / 2.0
    w2 = -s * (s - 1.0) * (s - 3.0) / 2.0
    w3 = s * (s - 1.0) * (s - 2.0) / 6.0
    return complex(w0 * p[0] + w1 * p[1] + w2 * p[2] + w3 * p[3])


def resample(f: GridFunction, grid: Grid) -> GridFunction:
    """Resample onto another grid by piecewise cubic interpolation."""
    if grid.M == f.grid.M:
        return f.copy()
    vals = np.asarray([_interp_cubic(f.values, x) for x in grid.nodes])
    return GridFunction(grid, vals)


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
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 5:
            raise ValueError("bad coefficient row %d: %r" % (i, ln))
        try:
            rows.append([finite_float(p) for p in parts])
        except ValueError:
            raise ValueError("bad coefficient row %d: %r" % (i, ln)) from None
    rows.sort(key=lambda r: r[0])
    grid = Grid(len(rows) - 1)
    xs = np.asarray([r[0] for r in rows])
    if not np.allclose(xs, grid.nodes, atol=1e-12):
        raise ValueError("coefficient file nodes must be the uniform grid on [0, 1]")
    t1 = np.asarray([complex(r[1], r[2]) for r in rows])
    s0 = np.asarray([complex(r[3], r[4]) for r in rows])
    return CoefficientPair(GridFunction(grid, t1), GridFunction(grid, s0))
