"""Uniform grids, cell-average fields with ghost layers, boundary fills.

Fields store one row per solution component with the ghost cells included:
shape ``(m, n + 6)`` in 1D and ``(m, nx + 6, ny + 6)`` in 2D (``GHOST`` = 3
cells on each side).  Fields are treated as immutable snapshots between
solver stages; every operation here returns a new field.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .workspace import Workspace

# Nodes/weights of 5-point Gauss-Legendre on [-1, 1], used for cell averages
# of smooth data (exact through degree 9, so initialization error never
# masks the scheme's convergence order).
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(5)

# Rows of cells a 2D cell average evaluates its function on at once.
_AVERAGE_ROWS = 32

# Ghost cells on each side of every axis.  The fifth-order reconstruction
# reads five-cell windows, so the traces at the n+1 faces of n cells reach
# exactly three cells beyond each end.
GHOST = 3
# a field's interior: every component, GHOST cut from each end of each axis
_INTERIOR = (slice(None),) + (slice(GHOST, -GHOST),) * 2


def _centers(a, dx, n, ghost):
    """Centres of ``n`` cells of width ``dx`` from ``a``, with ``ghost``
    more on each side."""
    return a + (np.arange(-ghost, n + ghost) + 0.5) * dx


def _padded_shape(grid, m):
    """Shape of the data of an ``m``-component field on ``grid``."""
    if isinstance(grid, Grid1D):
        return (m, grid.n + 2 * GHOST)
    return (m, grid.nx + 2 * GHOST, grid.ny + 2 * GHOST)


def _cells(a, b, n):
    """The cell count ``n`` of an axis from ``a`` to ``b`` > ``a`` as an int,
    if ``n`` is one, the bounds are finite and the cell width is finite and
    positive; else a :class:`ConfigurationError`."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ConfigurationError(f"a cell count must be an integer, got {n!r}") from None
    if n < 1:
        raise ConfigurationError("grid requires at least one cell on each axis")
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigurationError(f"grid bounds must be finite, got {a!r} and {b!r}")
    width = (b - a) / n                 # inf when b - a overflows
    if not 0.0 < width < math.inf:
        raise ConfigurationError(f"the cell width {width!r} must be finite and positive")
    return n


@dataclass(frozen=True)
class Grid1D:
    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ConfigurationError("grid requires b > a")
        object.__setattr__(self, "n", _cells(self.a, self.b, self.n))

    @property
    def dx(self):
        return (self.b - self.a) / self.n

    def centers(self, ghosts=False):
        return _centers(self.a, self.dx, self.n, GHOST if ghosts else 0)

    def interfaces(self):
        """Positions of the n+1 interior cell interfaces."""
        return self.a + np.arange(self.n + 1) * self.dx


@dataclass(frozen=True)
class Grid2D:
    ax: float
    bx: float
    ay: float
    by: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.bx > self.ax and self.by > self.ay):
            raise ConfigurationError("grid requires bx > ax and by > ay")
        object.__setattr__(self, "nx", _cells(self.ax, self.bx, self.nx))
        object.__setattr__(self, "ny", _cells(self.ay, self.by, self.ny))

    @property
    def dx(self):
        return (self.bx - self.ax) / self.nx

    @property
    def dy(self):
        return (self.by - self.ay) / self.ny

    def xcenters(self, ghosts=False):
        return _centers(self.ax, self.dx, self.nx, GHOST if ghosts else 0)

    def ycenters(self, ghosts=False):
        return _centers(self.ay, self.dy, self.ny, GHOST if ghosts else 0)


_KINDS = ("periodic", "outflow", "reflective", "inflow")


@dataclass(frozen=True)
class BoundaryCondition:
    """One side of the domain: periodic, outflow, reflective or inflow.

    Outflow copies the nearest interior cell (zeroth-order extrapolation).
    Reflective mirrors cells across the wall with the momentum component
    negated and is only valid for 3-component Euler fields.  Inflow fills
    ghosts with cell averages of a prescribed profile.
    """

    kind: str
    profile: Callable | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "inflow" and self.profile is None:
            raise ConfigurationError("inflow boundary requires a profile")


PERIODIC = BoundaryCondition("periodic")
OUTFLOW = BoundaryCondition("outflow")
REFLECTIVE = BoundaryCondition("reflective")


def inflow(profile) -> BoundaryCondition:
    return BoundaryCondition("inflow", profile)


@dataclass
class CellField:
    """Cell averages over a grid, ghost layers included, one row per component."""

    grid: Grid1D | Grid2D
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        expected = _padded_shape(self.grid, self.data.shape[0])
        if self.data.shape != expected:
            raise ConfigurationError(
                f"field data has shape {self.data.shape}, expected {expected}"
            )

    @classmethod
    def zeros(cls, grid, ncomp=1):
        return cls(grid, np.zeros(_padded_shape(grid, ncomp)))

    @classmethod
    def from_interior(cls, grid, values):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if isinstance(grid, Grid2D) and values.ndim == 2:
            values = values[None, :, :]
        field = cls.zeros(grid, ncomp=values.shape[0])
        field.interior[...] = values
        return field

    @property
    def ncomp(self):
        return self.data.shape[0]

    @property
    def interior(self):
        return self.data[_INTERIOR[: self.data.ndim]]

    @classmethod
    def _of(cls, grid, data):
        """A field over ``data`` without the shape check: for float arrays
        the caller derived from a field on the same grid."""
        field = cls.__new__(cls)
        field.grid = grid
        field.data = data
        return field


class _Sides(tuple):
    """Boundary conditions, one per side, as checked by :func:`_normalize_bc`."""


def _normalize_bc(bc, nsides):
    if type(bc) is _Sides and len(bc) == nsides:
        return bc
    if isinstance(bc, BoundaryCondition):
        bc = (bc,) * nsides
    bc = tuple(bc)
    if len(bc) != nsides:
        raise ConfigurationError(f"expected {nsides} boundary conditions, got {len(bc)}")
    for lo, hi in [(0, 1)] + ([(2, 3)] if nsides == 4 else []):
        if (bc[lo].kind == "periodic") != (bc[hi].kind == "periodic"):
            raise ConfigurationError("periodic boundaries must come in pairs")
    # 1D sides take every kind; 2D sides are periodic or outflow, y sides
    # also inflow
    for k, side in enumerate(bc if nsides == 4 else ()):
        if side.kind == "reflective" or (side.kind == "inflow" and k < 2):
            raise ConfigurationError(f"{side.kind!r} boundaries are not supported "
                                     f"on {'xy'[k // 2]} sides of 2D grids")
    return _Sides(bc)


def gauss_average(fn, centers, dx):
    """Averages of ``fn`` over the cells of width ``dx`` centred at the 1D
    array ``centers``, by 5-point Gauss-Legendre quadrature.  ``fn`` gets
    the (n, 5) quadrature nodes and returns values of shape (..., n, 5);
    the result has shape (..., n).
    """
    return (fn(centers[:, None] + 0.5 * dx * _GAUSS_NODES) @ _GAUSS_WEIGHTS) / 2.0


def _ghost_steps(v, n, sides, inflow=None):
    """The steps that fill the ghosts along axis 1 of ``v`` (GHOST ghosts,
    n interior cells, GHOST ghosts; ``v`` is a view of a field buffer) per
    the (lo, hi) ``sides``, which :func:`_normalize_bc` has checked: a tuple
    of calls on views of ``v``, bound once.

    Periodic and reflective ghosts copy GHOST interior cells, so they need
    at least that many.  An inflow side fills row 0 of its ghost slice
    ``s`` with ``inflow(profile, s)``, evaluated here, once.
    """
    g = GHOST
    steps = []
    for hi, bc in enumerate(sides):
        kind = bc.kind
        if n < g and kind in ("periodic", "reflective"):
            raise ConfigurationError(
                f"{kind} boundaries need at least {g} cells across, got {n}")
        ghosts = slice(n + g, None) if hi else slice(0, g)
        dst = v[:, ghosts]
        if kind == "periodic":
            steps.append(partial(np.copyto, dst, v[:, g : 2 * g] if hi else v[:, n : n + g]))
        elif kind == "outflow":
            steps.append(partial(np.copyto, dst,
                                 v[:, n + g - 1 : n + g] if hi else v[:, g : g + 1]))
        elif kind == "reflective":
            if v.shape[0] != 3:
                raise ConfigurationError(
                    "reflective boundaries apply only to 3-component Euler fields"
                )
            steps.append(partial(np.copyto, dst,
                                 (v[:, n : n + g] if hi else v[:, g : 2 * g])[:, ::-1]))
            steps.append(partial(np.multiply, dst[1], -1.0, out=dst[1]))  # momentum
        else:
            steps.append(partial(np.copyto, dst[0], inflow(bc.profile, ghosts)))
    return tuple(steps)


def _fill_views(w, grid, bc, shape):
    d = w.result("filled", 0, shape)
    if isinstance(grid, Grid1D):
        steps = _ghost_steps(d, grid.n, _normalize_bc(bc, 2),
                             lambda profile, s: gauss_average(
                                 profile, grid.centers(ghosts=True)[s], grid.dx))
    else:
        sides = _normalize_bc(bc, 4)
        # x first over the interior rows, then y over the full width, so the
        # corner ghosts come out consistent
        steps = (_ghost_steps(d[:, :, GHOST:-GHOST], grid.nx, sides[:2])
                 + _ghost_steps(d.swapaxes(1, 2), grid.ny, sides[2:],
                                lambda profile, s: gauss_average(
                                    profile, grid.xcenters(ghosts=True), grid.dx)))
    # conditions in a list, which may change under the binding, bind for one
    # call only
    key = bc if isinstance(bc, (tuple, BoundaryCondition)) else None
    return d, CellField._of(grid, d), steps, grid, key, shape


def fill_ghosts(field: CellField, bc, *, out=None) -> CellField:
    """Populate ghost cells per the boundary conditions; interior unchanged.

    ``bc`` is a single condition for all sides, a (left, right) pair in 1D,
    or (left, right, bottom, top) in 2D.  Idempotent for a fixed interior.
    Returns a field over a buffer of ``out``, a
    :class:`~fvweno.workspace.Workspace` (a fresh one by default), the same
    field on every call with the same grid and ``bc``; ``field`` is not
    modified.
    """
    w = Workspace() if out is None else out
    data = field.data
    b = getattr(w, "filled", None)
    if b is None or b[-3] is not field.grid or b[-2] is not bc or b[-1] != data.shape:
        b = w.bind("filled", _fill_views, field.grid, bc, data.shape)
    np.copyto(b[0], data)
    for step in b[2]:
        step()
    return b[1]


def cell_average_of(fn, grid) -> CellField:
    """Cell averages of a pointwise function by 5-point Gauss-Legendre
    quadrature.

    1D ``fn(x)`` and 2D ``fn(x, y)`` must accept arrays.  In 2D ``fn`` gets
    the nodes of :data:`_AVERAGE_ROWS` rows of cells at a time, so its
    temporaries stay small.  Ghost cells are left at zero; fill them with
    :func:`fill_ghosts`.
    """
    if isinstance(grid, Grid1D):
        return CellField.from_interior(grid, gauss_average(fn, grid.centers(), grid.dx))
    xq = grid.xcenters()[:, None] + 0.5 * grid.dx * _GAUSS_NODES
    yq = grid.ycenters()[:, None] + 0.5 * grid.dy * _GAUSS_NODES
    field = CellField.zeros(grid)
    for i in range(0, grid.nx, _AVERAGE_ROWS):
        vals = fn(xq[i:i + _AVERAGE_ROWS, None, :, None], yq[None, :, None, :])
        field.interior[0, i:i + _AVERAGE_ROWS] = np.einsum(
            "ijkl,k,l->ij", vals, _GAUSS_WEIGHTS, _GAUSS_WEIGHTS) / 4.0
    return field


def step_function_average(grid: Grid1D, x0, left, right) -> CellField:
    """Exact cell averages of a step with the jump at ``x0``.

    ``left``/``right`` may be scalars or per-component vectors; a cell cut
    by the jump receives the volume-fraction-weighted average.
    """
    left = np.atleast_1d(np.asarray(left, dtype=float))
    right = np.atleast_1d(np.asarray(right, dtype=float))
    edges = grid.interfaces()
    frac = np.clip((x0 - edges[:-1]) / grid.dx, 0.0, 1.0)
    # snap to pure states when the jump sits on an edge up to rounding, so
    # constant regions carry no spurious last-bit structure
    frac[np.abs(frac) < 1e-12] = 0.0
    frac[np.abs(frac - 1.0) < 1e-12] = 1.0
    values = left[:, None] * frac[None, :] + right[:, None] * (1.0 - frac[None, :])
    return CellField.from_interior(grid, values)


def _clip_polygon(poly, a, b, c):
    """Clip a convex polygon by the half-plane a*x + b*y <= c."""
    out = []
    k = len(poly)
    for i in range(k):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % k]
        in1 = a * x1 + b * y1 <= c
        in2 = a * x2 + b * y2 <= c
        if in1:
            out.append((x1, y1))
        if in1 != in2:
            t = (c - a * x1 - b * y1) / (a * (x2 - x1) + b * (y2 - y1))
            out.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return out


def _polygon_area(poly):
    s = 0.0
    k = len(poly)
    for i in range(k):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % k]
        s += x1 * y2 - x2 * y1
    return 0.5 * abs(s)


def polygon_indicator_average(grid: Grid2D, vertices, inside=1.0, outside=0.0) -> CellField:
    """Exact cell averages of the indicator of a convex polygon.

    Each cell receives ``inside * fraction + outside * (1 - fraction)`` where
    the fraction is the exact overlap area divided by the cell area.  A cell
    with its four corners in the polygon takes fraction 1; one that a cell
    axis or a polygon edge line separates from the polygon takes 0; only
    the remaining cells, those an edge cuts, are clipped.
    """
    xe = grid.ax + np.arange(grid.nx + 1) * grid.dx
    ye = grid.ay + np.arange(grid.ny + 1) * grid.dy
    poly0 = [tuple(map(float, v)) for v in vertices]
    # classify by the distinct vertices: a repeated one makes a zero-length
    # edge, whose "line" would put every node on its outer side
    distinct = [v for k, v in enumerate(poly0) if v != poly0[k - 1]]
    vx, vy = np.array(distinct).reshape(-1, 2).T[..., None, None]   # (k, 1, 1)
    ex, ey = np.roll(vx, -1, 0) - vx, np.roll(vy, -1, 0) - vy
    # > 0 on the outer side of each edge's line, for either orientation, at
    # every grid node: shape (k, nx+1, ny+1)
    side = np.sign(np.sum(vx * ey - ex * vy)) * (ey * (xe[:, None] - vx) - ex * (ye - vy))

    def corners_all(m):   # the cells whose four corner nodes all satisfy m
        return m[..., :-1, :-1] & m[..., 1:, :-1] & m[..., :-1, 1:] & m[..., 1:, 1:]

    full = corners_all((side <= 0.0).all(axis=0))
    empty = corners_all(side >= 0.0).any(axis=0)
    # outside the bounding box: every cell when no two vertices differ
    x0, x1 = vx.min(initial=np.inf), vx.max(initial=-np.inf)
    y0, y1 = vy.min(initial=np.inf), vy.max(initial=-np.inf)
    empty |= ((xe[1:] <= x0) | (xe[:-1] >= x1))[:, None]
    empty |= (ye[1:] <= y0) | (ye[:-1] >= y1)
    frac = (full & ~empty).astype(float)
    cell_area = grid.dx * grid.dy
    cut = ~(full | empty)
    xe, ye = xe.tolist(), ye.tolist()   # Python floats clip faster, same bits
    for i in np.flatnonzero(cut.any(axis=1)):
        # the two x clips come first and depend on the column only
        strip = _clip_polygon(_clip_polygon(poly0, -1.0, 0.0, -xe[i]), 1.0, 0.0, xe[i + 1])
        for j in np.flatnonzero(cut[i]):
            cell = _clip_polygon(_clip_polygon(strip, 0.0, -1.0, -ye[j]), 0.0, 1.0, ye[j + 1])
            frac[i, j] = _polygon_area(cell) / cell_area
    return CellField.from_interior(grid, inside * frac + outside * (1.0 - frac))
