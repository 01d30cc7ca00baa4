"""Benchmark problem registry: grids, initial data, exact/reference hooks.

Each entry describes one of the desk-scale experiments: the four 1D scalar
model fluxes, the Euler shock tubes, and the 2D scalar cases.  Initial data
are produced as cell averages (5-point Gauss for smooth data, exact
volume-fraction averages for steps and the 2D square); a problem with an
exact solution takes that solution at t = 0 as its initial data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigurationError
from ..integrate import TimeControl
from ..mesh import (
    OUTFLOW,
    PERIODIC,
    REFLECTIVE,
    CellField,
    Grid1D,
    Grid2D,
    cell_average_of,
    gauss_average,
    inflow,
    polygon_indicator_average,
    step_function_average,
)
from ..physics import (
    ADVECTION,
    BUCKLEY_LEVERETT,
    BURGERS,
    EULER,
    GAMMA,
    QUARTIC_NONCONVEX,
    FluxPair2D,
    exact_riemann,
)

# Newton iteration of solve_characteristics: relative step tolerance, cap.
CHARACTERISTICS_TOL = 1e-14
CHARACTERISTICS_MAX_ITER = 100


def solve_characteristics(u0, du0, x, t, lo, hi):
    """Solve u = u0(x - u*t) pointwise by Newton, bisection as fallback.

    Valid before characteristics cross (monotone residual); ``lo``/``hi``
    bracket the data range.  Each point stops iterating once it has
    converged, so its value does not depend on the other points.
    """
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        return u0(x)
    shape, x = x.shape, x.ravel()
    u = np.clip(u0(x), lo, hi)
    active = np.arange(x.size)          # the points still iterating
    for _ in range(CHARACTERISTICS_MAX_ITER):
        ua = u[active]
        xi = x[active] - ua * t
        f = ua - u0(xi)
        df = 1.0 + t * du0(xi)
        ok = np.abs(df) > 1e-14
        new_u = np.clip(np.where(ok, ua - f / np.where(ok, df, 1.0), ua), lo, hi)
        u[active] = new_u
        converged = np.abs(new_u - ua) <= CHARACTERISTICS_TOL * np.maximum(1.0, np.abs(new_u))
        active = active[~converged]
        if active.size == 0:
            break
    if active.size:
        # bisection on the stalled points; the residual is nondecreasing in u
        a = np.full(active.shape, lo)
        b = np.full(active.shape, hi)
        xm = x[active]
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = mid - u0(xm - mid * t)
            a = np.where(fm < 0.0, mid, a)
            b = np.where(fm < 0.0, b, mid)
        u[active] = 0.5 * (a + b)
    return u.reshape(shape)


@dataclass(frozen=True, kw_only=True)
class Problem:
    pid: str
    model: object                  # a FluxPair2D for the 2D problems
    bc: object                     # tuple of BoundaryCondition
    default_n: object
    tfinal: float
    time: TimeControl = TimeControl("cfl", 0.4)
    make_grid: Callable            # n -> grid
    initial: Callable              # grid -> CellField
    exact: Callable | None = None  # (grid, t) -> CellField
    reference_cells: int = 0       # > 0: a fine-grid reference of that many cells
    expensive_reference: bool = False


REGISTRY: dict = {}


def register(problem: Problem):
    REGISTRY[problem.pid] = problem
    return problem


def get_problem(pid) -> Problem:
    try:
        return REGISTRY[pid]
    except KeyError:
        raise ConfigurationError(
            f"unknown problem {pid!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None


def _grid1d(a, b):
    def make(n):
        if not np.isscalar(n):
            raise ConfigurationError(f"a 1D problem takes one cell count, got {n}")
        return Grid1D(a, b, int(n))

    return make


def _grid2d(ax, bx, ay, by):
    def make(n):
        counts = (n, n) if np.isscalar(n) else tuple(n)
        if len(counts) != 2:
            raise ConfigurationError(f"a 2D problem takes N or NX,NY cells, got {n}")
        return Grid2D(ax, bx, ay, by, *(int(v) for v in counts))

    return make


# --- 1D scalar -------------------------------------------------------------

def _sin_exact(grid, t):
    return cell_average_of(lambda x: np.sin(np.pi * (x - t)), grid)


# Smooth advection used for the accuracy tables.
register(Problem(
    pid="advection1d-accuracy",
    model=ADVECTION,
    bc=(PERIODIC, PERIODIC),
    default_n=80,
    tfinal=8.0,
    time=TimeControl("dt_scale", 0.1),
    make_grid=_grid1d(-1.0, 1.0),
    initial=lambda grid: _sin_exact(grid, 0.0),
    exact=_sin_exact,
))


def _burgers_exact(grid, t):
    u0 = lambda x: -np.sin(np.pi * x)
    du0 = lambda x: -np.pi * np.cos(np.pi * x)
    return cell_average_of(
        lambda x: solve_characteristics(u0, du0, x, t, -1.0, 1.0), grid
    )


# Smooth up to the final time; exact solution by characteristics.
register(Problem(
    pid="burgers1d",
    model=BURGERS,
    bc=(PERIODIC, PERIODIC),
    default_n=40,
    tfinal=1.0 / math.pi,
    make_grid=_grid1d(-1.0, 1.0),
    initial=lambda grid: _burgers_exact(grid, 0.0),
    exact=_burgers_exact,
))

# Two shocks with a rarefaction in between.
register(Problem(
    pid="nonconvex-riemann",
    model=QUARTIC_NONCONVEX,
    bc=(OUTFLOW, OUTFLOW),
    default_n=40,
    tfinal=1.0,
    make_grid=_grid1d(-1.0, 1.0),
    initial=lambda grid: step_function_average(grid, 0.0, 2.0, -2.0),
    reference_cells=2001,
))


def _stationary_shock(grid, t):
    return step_function_average(grid, 0.0, -3.0, 3.0)


# Stationary shock of the even nonconvex flux.
register(Problem(
    pid="nonconvex-stationary",
    model=QUARTIC_NONCONVEX,
    bc=(OUTFLOW, OUTFLOW),
    default_n=40,
    tfinal=0.05,
    make_grid=_grid1d(-1.0, 1.0),
    initial=lambda grid: _stationary_shock(grid, 0.0),
    exact=_stationary_shock,
))

# Two-phase flow flux; square pulse on [-1/2, 0].
register(Problem(
    pid="buckley-leverett",
    model=BUCKLEY_LEVERETT,
    bc=(OUTFLOW, OUTFLOW),
    default_n=80,
    tfinal=0.3,
    make_grid=_grid1d(-1.0, 1.0),
    initial=lambda grid: CellField.from_interior(
        grid,
        step_function_average(grid, 0.0, 1.0, 0.0).interior[0]
        - step_function_average(grid, -0.5, 1.0, 0.0).interior[0],
    ),
    reference_cells=2001,
))


# --- 1D Euler --------------------------------------------------------------

SOD_LEFT, SOD_RIGHT = (1.0, 0.0, 1.0), (0.125, 0.0, 0.1)
LAX_LEFT, LAX_RIGHT = (0.445, 0.698, 3.528), (0.5, 0.0, 0.571)


def _shock_tube(pid, left, right, tfinal):
    # Riemann problem between two primitive states; exact by the wave fan.
    fan = exact_riemann(left, right)
    states = EULER.conserved(*left), EULER.conserved(*right)

    def exact(grid, t):
        if t <= 0.0:
            return step_function_average(grid, 0.0, *states)

        def conserved(xq):
            rho, u, P = fan.sample(xq.ravel() / t)
            return EULER.conserved(rho, u, P).reshape(3, *xq.shape)

        return CellField.from_interior(grid, gauss_average(conserved, grid.centers(), grid.dx))

    register(Problem(
        pid=pid,
        model=EULER,
        bc=(OUTFLOW, OUTFLOW),
        default_n=200,
        tfinal=tfinal,
        make_grid=_grid1d(-5.0, 5.0),
        initial=lambda grid: exact(grid, 0.0),
        exact=exact,
    ))


_shock_tube("sod", SOD_LEFT, SOD_RIGHT, 2.0)
_shock_tube("lax", LAX_LEFT, LAX_RIGHT, 1.3)


def _shock_entropy(k, default_n, expensive_reference):
    # Mach-3 shock running into an entropy wave of wavenumber k.
    left = EULER.conserved(3.857143, 2.629369, 10.333333)

    def initial(grid):
        centers = grid.centers()
        values = np.zeros((3, grid.n))
        values[0] = gauss_average(lambda xq: 1.0 + 0.2 * np.sin(k * xq), centers, grid.dx)
        values[2] = 1.0 / (GAMMA - 1.0)
        values[:, centers < -4.0] = left[:, None]
        return CellField.from_interior(grid, values)

    register(Problem(
        pid=f"shock-entropy-k{k}",
        model=EULER,
        bc=(OUTFLOW, OUTFLOW),
        default_n=default_n,
        tfinal=2.0,
        make_grid=_grid1d(-5.0, 5.0),
        initial=initial,
        reference_cells=2001,
        expensive_reference=expensive_reference,
    ))


_shock_entropy(5, 200, False)
_shock_entropy(10, 400, True)


def _blastwave_ic(grid):
    centers = grid.centers()
    rho = np.ones(grid.n)
    P = np.where(centers < 0.1, 1000.0, np.where(centers < 0.9, 0.01, 100.0))
    return CellField.from_interior(grid, EULER.conserved(rho, np.zeros(grid.n), P))


# Interacting blast waves between reflective walls.
register(Problem(
    pid="blastwave",
    model=EULER,
    bc=(REFLECTIVE, REFLECTIVE),
    default_n=400,
    tfinal=0.038,
    make_grid=_grid1d(0.0, 1.0),
    initial=_blastwave_ic,
    reference_cells=4001,
    expensive_reference=True,
))


# --- 2D scalar -------------------------------------------------------------

def _burgers2d_exact(grid, t):
    U0 = lambda s: 0.25 + 0.5 * np.sin(np.pi * s)
    dU0 = lambda s: 0.5 * np.pi * np.cos(np.pi * s)

    def pointwise(x, y):
        s = 0.5 * (x + y)
        return solve_characteristics(U0, dU0, s, t, -0.25, 0.75)

    return cell_average_of(pointwise, grid)


# Smooth up to the final time; reduces to 1D along x+y.
register(Problem(
    pid="burgers2d",
    model=FluxPair2D(BURGERS, BURGERS),
    bc=(PERIODIC, PERIODIC, PERIODIC, PERIODIC),
    default_n=(40, 40),
    tfinal=2.0 / math.pi,
    make_grid=_grid2d(-2.0, 2.0, -2.0, 2.0),
    initial=lambda grid: _burgers2d_exact(grid, 0.0),
    exact=_burgers2d_exact,
))

_DIAMOND = [
    (1.0 / math.sqrt(2.0), 0.0),
    (0.0, 1.0 / math.sqrt(2.0)),
    (-1.0 / math.sqrt(2.0), 0.0),
    (0.0, -1.0 / math.sqrt(2.0)),
]


def _diamond_exact(grid, t):
    # shift by t in both directions with periodic wrap (period 2); sum the
    # exact overlap fractions of the periodic images
    s = t % 2.0
    total = None
    for ox in (0.0, -2.0):
        for oy in (0.0, -2.0):
            verts = [(vx + s + ox, vy + s + oy) for vx, vy in _DIAMOND]
            f = polygon_indicator_average(grid, verts)
            total = f.interior[0] if total is None else total + f.interior[0]
    return CellField.from_interior(grid, total)


# Rotated unit square advected diagonally; discontinuous data.
register(Problem(
    pid="advection2d-accuracy",
    model=FluxPair2D(ADVECTION, ADVECTION),
    bc=(PERIODIC, PERIODIC, PERIODIC, PERIODIC),
    default_n=(40, 40),
    tfinal=4.0,
    time=TimeControl("dt_scale", 0.4),
    make_grid=_grid2d(-1.0, 1.0, -1.0, 1.0),
    initial=lambda grid: _diamond_exact(grid, 0.0),
    exact=_diamond_exact,
))


def _boundary_layer(pid, alpha, beta):
    profile = lambda x: alpha + beta * np.sin(x)
    # Boundary layer flow to steady state, inflow alpha + beta sin x.
    register(Problem(
        pid=pid,
        model=FluxPair2D(BURGERS, ADVECTION),
        bc=(PERIODIC, PERIODIC, inflow(profile), OUTFLOW),
        default_n=(30, 30),
        tfinal=1.0,
            make_grid=_grid2d(0.0, 2.0 * math.pi, 0.0, 1.0),
        initial=lambda grid: cell_average_of(lambda x, y: profile(x) + 0.0 * y, grid),
    ))


_boundary_layer("boundary-layer", 0.0, 5.0)
_boundary_layer("boundary-layer-a2", 2.0, 5.0)
