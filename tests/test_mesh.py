"""Grids, fields, ghost fills, quadrature cell averages."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fvweno.errors import ConfigurationError
from fvweno.mesh import (
    GHOST,
    OUTFLOW,
    PERIODIC,
    REFLECTIVE,
    CellField,
    Grid1D,
    Grid2D,
    cell_average_of,
    fill_ghosts,
    inflow,
    polygon_indicator_average,
    step_function_average,
)
from fvweno.workspace import Workspace

from oracle_utils import oracle_polygon_average, same_bits


def test_grid_geometry():
    g = Grid1D(-1.0, 1.0, 40)
    assert g.dx == pytest.approx(0.05)
    np.testing.assert_allclose(g.centers()[:2], [-0.975, -0.925])
    np.testing.assert_allclose(g.interfaces()[[0, -1]], [-1.0, 1.0])
    with pytest.raises(ConfigurationError):
        Grid1D(1.0, -1.0, 10)
    with pytest.raises(ConfigurationError):
        Grid1D(0.0, 1.0, 0)


def test_periodic_fill_wraps():
    g = Grid1D(0.0, 4.0, 4)
    f = CellField.from_interior(g, [1.0, 2.0, 3.0, 4.0])
    out = fill_ghosts(f, PERIODIC)
    np.testing.assert_array_equal(out.data[0], [2, 3, 4, 1, 2, 3, 4, 1, 2, 3])


def test_outflow_fill_copies_nearest():
    g = Grid1D(0.0, 3.0, 3)
    f = CellField.from_interior(g, [5.0, 6.0, 7.0])
    out = fill_ghosts(f, OUTFLOW)
    np.testing.assert_array_equal(out.data[0], [5, 5, 5, 5, 6, 7, 7, 7, 7])


def test_reflective_fill_mirrors_momentum():
    g = Grid1D(0.0, 4.0, 4)
    f = CellField.from_interior(g, np.array([[1.0, 2.0, 3.0, 4.0],
                                             [0.5, -0.25, 0.75, 1.5],
                                             [2.5, 3.0, 3.5, 4.0]]))
    out = fill_ghosts(f, REFLECTIVE)
    np.testing.assert_array_equal(out.data[:, :3], [[3.0, 2.0, 1.0],
                                                    [-0.75, 0.25, -0.5],
                                                    [3.5, 3.0, 2.5]])
    np.testing.assert_array_equal(out.data[:, -3:], [[4.0, 3.0, 2.0],
                                                     [-1.5, -0.75, 0.25],
                                                     [4.0, 3.5, 3.0]])


@pytest.mark.parametrize("n", [1, 2])
def test_fill_1d_needs_ghost_many_cells_to_copy(n):
    # periodic and reflective ghosts copy GHOST interior cells, so with
    # fewer they would copy ghosts; outflow and inflow read one cell at most
    g = Grid1D(0.0, 1.0, n)
    euler = CellField.from_interior(g, np.ones((3, n)))
    for bc in (PERIODIC, REFLECTIVE, (OUTFLOW, REFLECTIVE)):
        with pytest.raises(ConfigurationError, match="at least 3 cells"):
            fill_ghosts(euler, bc)
    f = CellField.from_interior(g, np.ones(n))
    out = fill_ghosts(f, (inflow(lambda x: x), OUTFLOW)).data[0]
    np.testing.assert_allclose(out[:GHOST], g.centers(ghosts=True)[:GHOST], rtol=1e-14)
    np.testing.assert_array_equal(out[GHOST:], 1.0)


@pytest.mark.parametrize("nx, ny", [(2, 4), (4, 2), (1, 1)])
def test_fill_2d_periodic_needs_ghost_many_cells(nx, ny):
    g = Grid2D(0.0, 1.0, 0.0, 1.0, nx, ny)
    f = CellField.from_interior(g, np.ones((nx, ny)))
    with pytest.raises(ConfigurationError, match="at least 3 cells"):
        fill_ghosts(f, PERIODIC)
    out = fill_ghosts(f, OUTFLOW)
    np.testing.assert_array_equal(out.data, 1.0)


def test_reflective_rejects_scalar_fields():
    g = Grid1D(0.0, 1.0, 4)
    f = CellField.from_interior(g, np.ones(4))
    with pytest.raises(ConfigurationError):
        fill_ghosts(f, REFLECTIVE)


def test_periodic_must_pair():
    g = Grid1D(0.0, 1.0, 4)
    f = CellField.from_interior(g, np.ones(4))
    with pytest.raises(ConfigurationError):
        fill_ghosts(f, (PERIODIC, OUTFLOW))


def test_fill_is_idempotent():
    rng = np.random.default_rng(0)
    g = Grid1D(0.0, 1.0, 8)
    f = CellField.from_interior(g, rng.normal(size=8))
    once = fill_ghosts(f, PERIODIC)
    twice = fill_ghosts(once, PERIODIC)
    np.testing.assert_array_equal(once.data, twice.data)
    once = fill_ghosts(f, OUTFLOW)
    twice = fill_ghosts(once, OUTFLOW)
    np.testing.assert_array_equal(once.data, twice.data)


def test_periodic_fill_shift_identity():
    # shifting the padded array by n cells maps it onto itself
    rng = np.random.default_rng(1)
    g = Grid1D(0.0, 1.0, 9)
    f = fill_ghosts(CellField.from_interior(g, rng.normal(size=9)), PERIODIC)
    d = f.data[0]
    np.testing.assert_array_equal(d[: 2 * GHOST], d[g.n : g.n + 2 * GHOST])


def test_fill_2d_periodic_corners():
    rng = np.random.default_rng(2)
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 4)
    vals = rng.normal(size=(5, 4))
    f = fill_ghosts(CellField.from_interior(g, vals), PERIODIC)
    d = f.data[0]
    # corner ghost equals the diagonally wrapped interior cell
    assert d[0, 0] == vals[2, 1]
    assert d[-1, -1] == vals[2, 2]


def test_fill_2d_inflow_profile_average():
    g = Grid2D(0.0, 2 * np.pi, 0.0, 1.0, 8, 4)
    prof = lambda x: np.sin(x)
    f = fill_ghosts(CellField.from_interior(g, np.zeros((8, 4))),
                    (PERIODIC, PERIODIC, inflow(prof), OUTFLOW))
    xc = g.xcenters()
    exact = (np.cos(xc - g.dx / 2) - np.cos(xc + g.dx / 2)) / g.dx
    for row in range(GHOST):
        np.testing.assert_allclose(f.data[0, GHOST:-GHOST, row], exact, atol=1e-12)


def test_fill_1d_inflow_ghosts_are_profile_averages():
    g = Grid1D(0.0, 1.0, 8)
    prof = lambda x: x**3 - 2.0 * x            # 5-point Gauss is exact on it
    anti = lambda x: x**4 / 4.0 - x**2
    f = fill_ghosts(CellField.from_interior(g, np.ones(8)), (inflow(prof), inflow(prof)))
    lo = g.a + np.arange(-3, 0) * g.dx          # left edges of the ghost cells
    hi = g.b + np.arange(3) * g.dx
    for got, edges in ((f.data[0, :3], lo), (f.data[0, -3:], hi)):
        np.testing.assert_allclose(got, (anti(edges + g.dx) - anti(edges)) / g.dx,
                                   rtol=1e-13, atol=1e-15)
    np.testing.assert_array_equal(f.interior[0], 1.0)


@pytest.mark.parametrize("grid, sides", [
    (Grid1D(0.0, 1.0, 8), lambda bc: (bc, OUTFLOW)),
    (Grid2D(0.0, 2 * np.pi, 0.0, 1.0, 8, 5), lambda bc: (PERIODIC, PERIODIC, bc, OUTFLOW)),
], ids=("1d", "2d"))
def test_inflow_profile_is_evaluated_once_per_binding(grid, sides):
    # the ghost fill binds its steps once, inflow averages included: a fill
    # on the same workspace copies them instead of evaluating the profile
    calls = []

    def prof(x):
        calls.append(x.shape)
        return np.sin(3.0 * x)

    bc = sides(inflow(prof))
    shape = (grid.n,) if isinstance(grid, Grid1D) else (grid.nx, grid.ny)
    field = CellField.from_interior(grid, np.random.default_rng(5).normal(size=shape))
    w = Workspace()
    first = fill_ghosts(field, bc, out=w).data.copy()
    second = fill_ghosts(field, bc, out=w).data
    assert len(calls) == 1
    assert same_bits(second, first)
    assert same_bits(second, fill_ghosts(field, bc).data)


def test_fill_2d_outflow_copies_nearest_interior_cell():
    rng = np.random.default_rng(3)
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 4)
    vals = rng.normal(size=(5, 4))
    d = fill_ghosts(CellField.from_interior(g, vals), OUTFLOW).data[0]
    i = np.clip(np.arange(-3, 8), 0, 4)
    j = np.clip(np.arange(-3, 7), 0, 3)
    np.testing.assert_array_equal(d, vals[np.ix_(i, j)])    # corners included


@pytest.mark.parametrize("bc", [REFLECTIVE, (REFLECTIVE, REFLECTIVE, PERIODIC, PERIODIC),
                                (PERIODIC, PERIODIC, OUTFLOW, REFLECTIVE),
                                (inflow(np.sin), OUTFLOW, PERIODIC, PERIODIC)])
def test_fill_2d_rejects_unsupported_sides(bc):
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    with pytest.raises(ConfigurationError):
        fill_ghosts(CellField.from_interior(g, np.ones((4, 4))), bc)


@pytest.mark.parametrize("deg", range(10))
def test_cell_average_exact_for_polynomials(deg):
    g = Grid1D(-1.0, 2.0, 7)
    f = cell_average_of(lambda x: x**deg, g)
    edges = g.a + np.arange(g.n + 1) * g.dx
    exact = (edges[1:] ** (deg + 1) - edges[:-1] ** (deg + 1)) / ((deg + 1) * g.dx)
    np.testing.assert_allclose(f.interior[0], exact, rtol=1e-13, atol=1e-14)


def test_cell_average_constant_and_linear():
    g = Grid1D(0.0, 8.0, 8)
    np.testing.assert_allclose(cell_average_of(lambda x: 0 * x + 7.0, g).interior[0], 7.0)
    f = cell_average_of(lambda x: x, g)
    np.testing.assert_allclose(f.interior[0], np.arange(8) + 0.5, rtol=1e-14)


def test_cell_average_sine_matches_antiderivative():
    g = Grid1D(-1.0, 1.0, 40)
    f = cell_average_of(lambda x: np.sin(np.pi * x), g)
    e = g.a + np.arange(g.n + 1) * g.dx
    exact = (np.cos(np.pi * e[:-1]) - np.cos(np.pi * e[1:])) / (np.pi * g.dx)
    np.testing.assert_allclose(f.interior[0], exact, atol=1e-14)


def test_cell_average_2d_polynomial():
    g = Grid2D(0.0, 1.0, 0.0, 2.0, 4, 5)
    f = cell_average_of(lambda x, y: (x**2) * (y**3), g)
    xe = np.arange(5) * g.dx
    ye = np.arange(6) * g.dy
    ax = (xe[1:] ** 3 - xe[:-1] ** 3) / (3 * g.dx)
    ay = (ye[1:] ** 4 - ye[:-1] ** 4) / (4 * g.dy)
    np.testing.assert_allclose(f.interior[0], np.outer(ax, ay), rtol=1e-13)


def test_step_average_cut_cell():
    g = Grid1D(0.0, 1.0, 4)
    f = step_function_average(g, 0.3, 2.0, 0.0)
    # cell [0.25, 0.5) is cut at 0.3: fraction 0.2 of the cell is left state
    np.testing.assert_allclose(f.interior[0], [2.0, 0.4, 0.0, 0.0], rtol=1e-12)


def test_step_average_vector_states():
    g = Grid1D(-1.0, 1.0, 2)
    f = step_function_average(g, 0.0, [1.0, 2.0], [3.0, 4.0])
    np.testing.assert_allclose(f.interior, [[1.0, 3.0], [2.0, 4.0]])


def test_polygon_average_full_and_empty_cells():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 8)
    sq = [(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)]
    f = polygon_indicator_average(g, sq)
    total = f.interior[0].sum() * g.dx * g.dy
    np.testing.assert_allclose(total, 0.5, rtol=1e-12)  # diamond area 2*0.5^2
    assert f.interior[0].min() == 0.0
    assert f.interior[0].max() <= 1.0


def _convex_hull(points):
    """Counter-clockwise hull of 2D points, collinear points dropped."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(pts[::-1])


@st.composite
def _polygon_on_grid(draw):
    """A grid on [-1, 1]^2 and a convex polygon in either orientation:
    vertices on grid lines or anywhere, from smaller than a cell to larger
    than the domain, partly outside it or not."""
    nx, ny = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, nx, ny)
    size = draw(st.sampled_from([0.3 * grid.dx, 0.7, 1.5]))
    cx, cy = draw(st.floats(-1.3, 1.3)), draw(st.floats(-1.3, 1.3))
    points = []
    for _ in range(draw(st.integers(3, 8))):
        x = cx + size * draw(st.floats(-1.0, 1.0))
        y = cy + size * draw(st.floats(-1.0, 1.0))
        if draw(st.booleans()):   # snap onto the nearest grid lines
            x = grid.ax + round((x - grid.ax) / grid.dx) * grid.dx
            y = grid.ay + round((y - grid.ay) / grid.dy) * grid.dy
        points.append((x, y))
    hull = _convex_hull(points)
    assume(len(hull) >= 3)
    if draw(st.booleans()):   # repeat one vertex: a zero-length edge
        k = draw(st.integers(0, len(hull) - 1))
        hull = hull[:k + 1] + hull[k:]
    if draw(st.booleans()):
        hull = hull[::-1]
    inside, outside = draw(st.sampled_from([(1.0, 0.0), (2.5, -0.5), (-1.0, 0.25)]))
    return grid, hull, inside, outside


def _corners_strictly_inside(grid, hull, margin=1e-9):
    """Cells whose four corners lie inside the polygon by ``margin``."""
    xe = grid.ax + np.arange(grid.nx + 1) * grid.dx
    ye = grid.ay + np.arange(grid.ny + 1) * grid.dy
    X, Y = np.meshgrid(xe, ye, indexing="ij")
    area2 = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]))
    ok = np.ones_like(X, dtype=bool)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        if (x1, y1) == (x2, y2):
            continue
        cross = (x2 - x1) * (Y - y1) - (y2 - y1) * (X - x1)
        ok &= np.sign(area2) * cross / np.hypot(x2 - x1, y2 - y1) > margin
    return ok[:-1, :-1] & ok[1:, :-1] & ok[:-1, 1:] & ok[1:, 1:]


_DIAMOND_CASE = (Grid2D(-1.0, 1.0, -1.0, 1.0, 10, 10),
                 [(0.5 ** 0.5, 0.0), (0.0, 0.5 ** 0.5), (-(0.5 ** 0.5), 0.0),
                  (0.0, -(0.5 ** 0.5))], 1.0, 0.0)
_ALIGNED_CASE = (Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 8),
                 [(-0.5, -0.5), (0.25, -0.5), (0.25, 0.75), (-0.5, 0.75)], 1.0, 0.0)
# a repeated vertex makes a zero-length edge: a closed ring, a doubled corner
_RING_CASE = (_DIAMOND_CASE[0], _DIAMOND_CASE[1] + _DIAMOND_CASE[1][:1], 1.0, 0.0)
_DOUBLED_CASE = (_ALIGNED_CASE[0],
                 [(-0.5, -0.5), (0.25, -0.5), (0.25, 0.75), (0.25, 0.75), (-0.5, 0.75)],
                 1.0, 0.0)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(case=_polygon_on_grid())
@example(case=_DIAMOND_CASE)
@example(case=_ALIGNED_CASE)
@example(case=_RING_CASE)
@example(case=_DOUBLED_CASE)
def test_polygon_average_matches_per_cell_clipping_oracle(case):
    grid, hull, inside, outside = case
    got = polygon_indicator_average(grid, hull, inside, outside).interior[0]
    want = oracle_polygon_average(grid, hull, inside, outside)
    # every cut cell runs the oracle's own arithmetic
    cut = (got != inside) & (got != outside)
    assert same_bits(got[cut], want[cut])
    # cells inside the polygon are exact, where the clipped area rounds
    assert np.all(got[_corners_strictly_inside(grid, hull)] == inside)
    assert np.abs(got - want).max() <= 1e-13 * abs(inside - outside)


def test_field_shape_validation():
    g = Grid1D(0.0, 1.0, 4)
    with pytest.raises(ConfigurationError):
        CellField(g, np.zeros((1, 4)))  # missing ghosts


@pytest.mark.parametrize("a, b, n", [
    (0.0, np.inf, 10),                  # non-finite bound
    (-np.inf, 0.0, 10),
    (0.0, 1.0, 10.5),                   # cell counts that are not integers
    (0.0, 1.0, np.float64(12.0)),
    (0.0, 1.0, "10"),
    (-1e308, 1e308, 10),                # b - a overflows: infinite width
    (0.0, 5e-324, 10),                  # the width rounds to zero
])
def test_grids_reject_inputs_that_make_no_cell_width(a, b, n):
    with pytest.raises(ConfigurationError):
        Grid1D(a, b, n)
    with pytest.raises(ConfigurationError):
        Grid2D(a, b, 0.0, 1.0, n, 4)
    with pytest.raises(ConfigurationError):
        Grid2D(0.0, 1.0, a, b, 4, n)


def test_grid_cell_counts_are_ints():
    # numpy integers are accepted and kept as Python ints
    g = Grid2D(0.0, 1.0, 0.0, 2.0, np.int64(4), np.int32(5))
    assert type(g.nx) is int and type(g.ny) is int and (g.nx, g.ny) == (4, 5)
    assert type(Grid1D(0.0, 1.0, np.int64(8)).n) is int
