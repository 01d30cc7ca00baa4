"""Brute-force oracles used by the tests.

The reconstruction oracle recovers point values from cell averages the long
way: build the primitive function at the stencil's interface points,
interpolate it with a polynomial, differentiate, evaluate.  Independent of
the closed-form coefficient tables in the package.

The polygon oracle clips every cell of a grid against a convex polygon, one
cell at a time.

The frozen-weight stepper takes one TVD-RK3 step of unit-speed advection
with weights given per interface and stage instead of computed from the
data.
"""

import numpy as np

from fvweno.weno import CAND_EDGE, WeightScheme

GAUSS_XI = np.sqrt(3.0 / 5.0)

# the five nonlinear families at the paper's parameters, then the linear weights
ALL_SCHEMES = [
    WeightScheme.js(),
    WeightScheme.m(),
    WeightScheme.z(),
    WeightScheme.zr(p=2),
    WeightScheme.zl(p=2, q=2),
]
SIX_SCHEMES = ALL_SCHEMES + [WeightScheme.linear()]


def same_bits(a, b):
    """Equal bit for bit, signed zeros included."""
    bits = lambda x: np.ascontiguousarray(x, dtype=float).view(np.uint64)
    return np.shape(a) == np.shape(b) and np.array_equal(bits(a), bits(b))


def primitive_point_value(averages, cells, x):
    """p(x) from unit-width cell averages over the given cell indices.

    ``cells`` are consecutive integers; cell j spans [j-1/2, j+1/2].
    """
    pts = [cells[0] - 0.5] + [j + 0.5 for j in cells]
    prim = np.concatenate([[0.0], np.cumsum(averages)])
    poly = np.polynomial.Polynomial.fit(pts, prim, deg=len(pts) - 1)
    return poly.deriv()(x)


def oracle_substencil(window5, s, x):
    """Candidate s (0, 1, 2) of the five-cell window evaluated at x."""
    cells = [-2 + s, -1 + s, s]
    return primitive_point_value(np.asarray(window5)[s : s + 3], cells, x)


def oracle_big(window5, x):
    """Quartic reconstruction over the whole window evaluated at x."""
    return primitive_point_value(np.asarray(window5), [-2, -1, 0, 1, 2], x)


NODE_X = {
    "edge": 0.5,
    "minus": -0.5 * GAUSS_XI,
    "center": 0.0,
    "plus": 0.5 * GAUSS_XI,
}


def _clip_half_plane(poly, a, b, c):
    """Sutherland-Hodgman: the part of ``poly`` with a*x + b*y <= c."""
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


def _shoelace_area(poly):
    s = 0.0
    k = len(poly)
    for i in range(k):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % k]
        s += x1 * y2 - x2 * y1
    return 0.5 * abs(s)


def oracle_polygon_average(grid, vertices, inside=1.0, outside=0.0):
    """Cell averages of a convex polygon's indicator, every cell clipped
    against its four sides in turn: shape (nx, ny)."""
    xe = grid.ax + np.arange(grid.nx + 1) * grid.dx
    ye = grid.ay + np.arange(grid.ny + 1) * grid.dy
    values = np.empty((grid.nx, grid.ny))
    cell_area = grid.dx * grid.dy
    poly0 = [tuple(map(float, v)) for v in vertices]
    for i in range(grid.nx):
        for j in range(grid.ny):
            poly = poly0
            for a, b, c in (
                (-1.0, 0.0, -xe[i]),
                (1.0, 0.0, xe[i + 1]),
                (0.0, -1.0, -ye[j]),
                (0.0, 1.0, ye[j + 1]),
            ):
                poly = _clip_half_plane(poly, a, b, c)
                if not poly:
                    break
            frac = _shoelace_area(poly) / cell_area if poly else 0.0
            values[i, j] = inside * frac + outside * (1.0 - frac)
    return values


def frozen_weight_stages(u0, omega, dt, dx):
    """The three TVD-RK3 stage fields of unit-speed advection from the cell
    averages ``u0`` (n cells, outflow ghosts), when stage s takes the weight
    triple ``omega[s][k]`` at interface k, the left edge of cell k (n+1 of
    them).  With alpha = 1 the Lax-Friedrichs flux is the left-biased
    trace, sum_s omega_s * (CAND_EDGE @ window), the window of interface k
    being cells k-3..k+1."""
    n = len(u0)

    def tendency(u, w):
        padded = np.concatenate([np.repeat(u[:1], 3), u, np.repeat(u[-1:], 3)])
        windows = np.lib.stride_tricks.sliding_window_view(padded, 5)[: n + 1]
        h = (w * (windows @ CAND_EDGE.T)).sum(axis=-1)
        return -(h[1:] - h[:-1]) / dx

    u1 = u0 + dt * tendency(u0, omega[0])
    u2 = 0.75 * u0 + 0.25 * (u1 + dt * tendency(u1, omega[1]))
    u3 = u0 / 3.0 + 2.0 / 3.0 * (u2 + dt * tendency(u2, omega[2]))
    return u1, u2, u3
