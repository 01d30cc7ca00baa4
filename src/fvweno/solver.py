"""Conservative semi-discrete operators: 1D scalar/Euler and 2D scalar.

The 1D operator reconstructs left/right interface traces componentwise and
applies a global Lax-Friedrichs flux.  The 2D operator uses two sweeps per
direction: interface WENO along the normal direction produces line averages
of the two traces on each face, then one Gauss-point WENO pass over both
traces, stacked, in the transverse direction converts those to point values
at the three-node quadrature, so a face flux is the quadrature average of
pointwise Lax-Friedrichs fluxes.  Each call takes a group of axes stacked
on a leading axis: both axes of a square grid of at most
:data:`STACK_FACES` faces whose axes share one flux, each face with the
alpha of its own axis, else one axis a group; every value keeps the bits
of one pass per axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .mesh import GHOST, CellField, Grid1D, Grid2D, _normalize_bc, fill_ghosts
from .physics import _HALF, EulerModel, FluxPair2D, ScalarFluxModel, lf_flux, max_wave_speed
from .weno import GAUSS_WEIGHTS, WeightScheme, gauss_point_values, interface_states
from .workspace import Workspace, const, workspace


@dataclass
class InterfaceRecord:
    """Per-interface diagnostics of one tendency evaluation (1D)."""

    positions: np.ndarray       # (n+1,) interface coordinates
    omega_minus: np.ndarray     # (m, n+1, 3) weights of the left-biased trace
    omega_plus: np.ndarray      # (m, n+1, 3) weights of the right-biased trace
    flux: np.ndarray            # (m, n+1) numerical fluxes
    alpha: float


@dataclass(frozen=True)
class SemiDiscreteOp1D:
    """d(ubar)/dt = -(fhat_{i+1/2} - fhat_{i-1/2}) / dx on a 1D grid.

    ``bc`` is checked when the operator is built; ``alpha`` spares the bound.
    """

    model: ScalarFluxModel | EulerModel
    scheme: WeightScheme
    bc: object

    def __post_init__(self):
        object.__setattr__(self, "_sides", _normalize_bc(self.bc, 2))

    def __call__(self, field: CellField, *, alpha=None) -> CellField:
        return self._tendency(field, False, alpha)[0]

    def tendency_recorded(self, field: CellField):
        return self._tendency(field, True, None)

    def _tendency(self, field: CellField, record, alpha):
        grid, shape = field.grid, field.data.shape
        ws = workspace()
        b = getattr(ws, "tendency", None)
        if b is None or b[-1] is not grid:
            b = ws.bind("tendency", _tendency_views, grid, None)
        filled = fill_ghosts(field, self._sides, out=ws)
        if alpha is None:
            alpha = max_wave_speed(filled, self.model, out=ws)
        alpha0 = b[0]
        alpha0[()] = alpha
        states = interface_states(filled.data, self.scheme, record=record, out=ws)
        h = lf_flux(states[0], states[1], self.model.flux, alpha0, out=ws)
        if b[-2] is not h:
            b = ws.bind("tendency", _tendency_views, grid, h)
        _, neg_dx, h_hi, h_lo, _, _ = b
        data = np.zeros(shape)
        du = data[:, GHOST:-GHOST]
        np.subtract(h_hi, h_lo, du)
        np.divide(du, neg_dx, du)  # == -(du) / dx, signed zeros included
        rec = None
        if record:
            om_minus, om_plus = states[2]
            rec = InterfaceRecord(grid.interfaces(), om_minus.copy(), om_plus.copy(),
                                  h.copy(), alpha)
        return CellField._of(grid, data), rec


def _tendency_views(w, grid, h):
    """The 1D tendency's binding to a grid and the flux ``h``: the 0-d
    alpha, filled on each call, and -dx (call convention of .workspace),
    and the flux differences' views of ``h``, kept, not sliced on the call
    (1-2 % of a step at N = 20)."""
    if not isinstance(grid, Grid1D):
        raise ConfigurationError("SemiDiscreteOp1D requires a 1D field")
    views = (None, None) if h is None else (h[..., 1:], h[..., :-1])
    return np.empty(()), const(-grid.dx), *views, h, grid


# The most faces one stacked pass of both axes of a square grid may take,
# 2 (n+1) n for n² cells: the paper's sizes up to 40² (3 280 faces) stack.
# The stacked pass makes half the numpy calls of a stage on twice the
# temporaries.  Against one pass per axis its steps took 0.74-0.95 of the
# time at 10²-40², 1.00 (Z) and 0.98 (M) at 48², the crossover, and 1.04-1.15
# from 56² on (tools/abstep.py, CHANGES.md); at 96² it would also double the
# memory of a step.
STACK_FACES = 3_280


class _Sweep:
    """Buffers of the face fluxes across the k axes of one group, each
    leading with them: the padded transverse rows the Gauss windows of the
    faces read, copied in on every call (``rows``), the workspaces, carved
    from the regions of ``ws``, of the interface sweep and the flux
    (``edge``) and of the one Gauss pass over both traces (``gauss``), and
    the two traces stacked for that pass, transposed (``pair``)."""

    def __init__(self, ws, k, shape):
        self.edge, self.gauss = Workspace(scratch=ws), Workspace(scratch=ws)
        self.rows = np.empty((k,) + shape)
        self.pair = np.empty((2, k, shape[1] - 5, shape[0]))


def _sweeps(ws, filled, stack):
    """The groups of axes of the padded 2D field ``filled`` (1, nx+6, ny+6),
    one pass each: both axes if ``stack``, else one per axis, and groups of
    equal k and row shape share a sweep.  A group is its sweep, the copies
    of its axes' padded transverse rows 1..n_trans+4 into it, the slice of
    its axes and its face fluxes, (k, n+1, n_trans); then the x and y face
    fluxes, (nx+1, ny) and (nx, ny+1), the y-term, the buffer of the two
    alphas, filled on each call, broadcast over a group's jump, and -dx and
    dy, made here: the fill layer binds ``filled`` to one grid."""
    data, grid = filled.data, filled.grid
    d = data[0]
    rows = (d.T[1:-1], d[1:-1])
    shared, groups = {}, []
    for axes in (slice(0, 2),) if stack else (slice(0, 1), slice(1, 2)):
        r = rows[axes]
        key = (len(r), r[0].shape)
        sweep = shared[key] = shared.get(key) or _Sweep(ws, *key)
        face = np.empty((len(r), r[0].shape[1] - 5, r[0].shape[0] - 4))
        groups.append((sweep, tuple(zip(sweep.rows, r)), axes, face))
    fx, fy = [block for *_, face in groups for block in face]
    speeds = np.empty(2)
    return (groups, fx, fy.T, np.empty_like(fx[1:]), speeds, speeds.reshape(2, 1, 1, 1),
            const(-grid.dx), const(grid.dy), stack, data)


@dataclass(frozen=True)
class SemiDiscreteOp2D:
    """2D scalar tendency with 3-point Gauss quadrature of the face fluxes.

    ``bc`` is checked when the operator is built; ``alpha`` spares the bound.
    """

    model: FluxPair2D
    scheme: WeightScheme
    bc: object

    def __post_init__(self):
        object.__setattr__(self, "_sides", _normalize_bc(self.bc, 4))

    def __call__(self, field: CellField, *, alpha=None) -> CellField:
        grid = field.grid
        if not isinstance(grid, Grid2D):
            raise ConfigurationError("SemiDiscreteOp2D requires a 2D field")
        if field.ncomp != 1:
            raise ConfigurationError("2D solver is scalar only")
        ws = workspace()
        filled = fill_ghosts(field, self._sides, out=ws)
        nx, ny = grid.nx, grid.ny
        stack = nx == ny and self.model.fx is self.model.fy and 2 * (nx + 1) * nx <= STACK_FACES
        b = getattr(ws, "sweeps", None)
        if b is None or b[-1] is not filled.data or b[-2] is not stack:
            b = ws.bind("sweeps", _sweeps, filled, stack)
        groups, fx, fy, dy_term, speeds, alphas, neg_dx, dy = b[:8]
        if alpha is None:
            alpha = max_wave_speed(filled, self.model, out=ws)
        speeds[0], speeds[1] = alpha
        for sweep, copies, axes, face in groups:
            flux = (self.model.fx, self.model.fy)[axes.start]
            self._face_flux(flux, alphas[axes], sweep, copies, face)
        out = CellField.zeros(grid, ncomp=1)
        # -(fx[1:] - fx[:-1]) / dx - (fy[:, 1:] - fy[:, :-1]) / dy
        dx_term = out.interior[0]
        np.subtract(fx[1:, :], fx[:-1, :], dx_term)
        np.divide(dx_term, neg_dx, dx_term)  # == -(dx_term) / dx
        np.subtract(fy[:, 1:], fy[:, :-1], dy_term)
        np.divide(dy_term, dy, dy_term)
        np.subtract(dx_term, dy_term, dx_term)
        return out

    def _face_flux(self, model, alpha, sweep, copies, face):
        """Face fluxes across the last axis of the rows of a group of k axes,
        shape (k, n_trans+4, n+6) for n and n_trans interior cells along the
        normal and transverse axes, written into ``face``, shape (k, n+1,
        n_trans)."""
        for target, rows in copies:
            np.copyto(target, rows)
        # Sweep 1: interface WENO along the normal axis, every row read.
        u_minus, u_plus = interface_states(sweep.rows, self.scheme, out=sweep.edge)
        # Sweep 2: transverse Gauss-point reconstruction of the line averages,
        # both traces in one pass.  Window j covers rows j..j+4 and is
        # centered at interior cell j.
        g, pair = sweep.gauss, sweep.pair
        np.copyto(pair[0], np.swapaxes(u_minus, -1, -2))
        np.copyto(pair[1], np.swapaxes(u_plus, -1, -2))
        pts = gauss_point_values(pair, self.scheme, out=g)  # (2, k, n+1, n_trans, 3)
        h = lf_flux(pts, None, model.flux, alpha, out=sweep.edge)
        np.matmul(h, GAUSS_WEIGHTS, face)
        return np.multiply(_HALF, face, face)
