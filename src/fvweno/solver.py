"""Conservative semi-discrete operators: 1D scalar/Euler and 2D scalar.

The 1D operator reconstructs left/right interface traces componentwise and
applies a global Lax-Friedrichs flux.  The 2D operator uses two sweeps per
direction: interface WENO along the normal direction produces line averages
of the two traces on each face, then one Gauss-point WENO pass over both
traces, stacked, in the transverse direction converts those to point values
at the three-node quadrature, so a face flux is the quadrature average of
pointwise Lax-Friedrichs fluxes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .mesh import GHOST, CellField, Grid1D, Grid2D, _normalize_bc, fill_ghosts
from .physics import EulerModel, FluxPair2D, ScalarFluxModel, lf_flux, max_wave_speed
from .weno import GAUSS_WEIGHTS, WeightScheme, gauss_point_values, interface_states
from .workspace import Workspace, workspace


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

    ``bc`` is checked once, when the operator is built; ``alpha`` spares the bound.
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
        grid = field.grid
        if not isinstance(grid, Grid1D):
            raise ConfigurationError("SemiDiscreteOp1D requires a 1D field")
        ws = workspace(field.data.shape)
        filled = fill_ghosts(field, self._sides, out=ws)
        alpha = max_wave_speed(filled, self.model, out=ws) if alpha is None else alpha
        states = interface_states(filled.data, self.scheme, record=record, out=ws)
        h = lf_flux(states[0], states[1], self.model.flux, alpha, out=ws)
        # kept, not sliced on the call: 1-2 % of a step at N = 20
        b = getattr(ws, "tendency", None)
        if b is None or b[-1] is not h:
            b = ws.bind("tendency", lambda ws, h: (h[..., 1:], h[..., :-1], h), h)
        data = np.zeros(field.data.shape)
        du = data[:, GHOST:-GHOST]
        np.subtract(b[0], b[1], out=du)
        np.divide(du, -grid.dx, out=du)  # == -(du) / dx, signed zeros included
        rec = None
        if record:
            om_minus, om_plus = states[2]
            rec = InterfaceRecord(grid.interfaces(), om_minus.copy(), om_plus.copy(),
                                  h.copy(), alpha)
        return CellField._of(grid, data), rec


class _Sweep:
    """Buffers of the face fluxes across one axis of a 2D grid: the padded
    transverse rows the Gauss windows of the faces read, copied in on every
    call (``rows``), the workspaces, carved from the regions of ``ws``, of
    the interface sweep and the flux (``edge``) and of the one Gauss pass
    over both traces (``gauss``), and the two traces stacked for that pass,
    transposed (``pair``)."""

    def __init__(self, ws, shape):
        self.edge, self.gauss = Workspace(scratch=ws), Workspace(scratch=ws)
        self.rows = np.empty(shape)
        self.pair = np.empty((2, shape[1] - 5, shape[0]))


def _sweeps(ws, data):
    """Per axis of a padded 2D field buffer ``data`` (1, nx+6, ny+6): its
    sweep (one for both axes on a square grid), the padded transverse rows
    1..n_trans+4 it copies, and the face fluxes, shape (n+1, n_trans); then
    the y-term of the tendency."""
    d = data[0]
    rows_x, rows_y = d.T[1:-1], d[1:-1]
    sweep_x = _Sweep(ws, rows_x.shape)
    sweep_y = sweep_x if rows_y.shape == rows_x.shape else _Sweep(ws, rows_y.shape)
    axes = [(sweep, rows, np.empty((rows.shape[1] - 5, rows.shape[0] - 4)))
            for sweep, rows in ((sweep_x, rows_x), (sweep_y, rows_y))]
    return (*axes, np.empty((d.shape[0] - 2 * GHOST, d.shape[1] - 2 * GHOST)), data)


@dataclass(frozen=True)
class SemiDiscreteOp2D:
    """2D scalar tendency with 3-point Gauss quadrature of the face fluxes.

    ``bc`` is checked once, when the operator is built; ``alpha`` spares the bound.
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
        ws = workspace(field.data.shape)
        filled = fill_ghosts(field, self._sides, out=ws)
        b = getattr(ws, "sweeps", None)
        if b is None or b[-1] is not filled.data:
            b = ws.bind("sweeps", _sweeps, filled.data)
        x, y, dy_term, _ = b
        alpha_x, alpha_y = max_wave_speed(filled, self.model, out=ws) if alpha is None else alpha
        fx = self._face_flux(self.model.fx, alpha_x, *x)
        fy = self._face_flux(self.model.fy, alpha_y, *y).T
        out = CellField.zeros(grid, ncomp=1)
        # -(fx[1:] - fx[:-1]) / dx - (fy[:, 1:] - fy[:, :-1]) / dy
        dx_term = out.interior[0]
        np.subtract(fx[1:, :], fx[:-1, :], out=dx_term)
        np.negative(dx_term, out=dx_term)
        np.divide(dx_term, grid.dx, out=dx_term)
        np.subtract(fy[:, 1:], fy[:, :-1], out=dy_term)
        np.divide(dy_term, grid.dy, out=dy_term)
        np.subtract(dx_term, dy_term, out=dx_term)
        return out

    def _face_flux(self, model, alpha, sweep, rows, face):
        """Face fluxes across the last axis of ``rows``, shape (n_trans+4,
        n+6) for n and n_trans interior cells along the normal and
        transverse axes, written into ``face``, shape (n+1, n_trans)."""
        np.copyto(sweep.rows, rows)
        # Sweep 1: interface WENO along the normal axis, every row read.
        u_minus, u_plus = interface_states(sweep.rows, self.scheme, out=sweep.edge)
        # Sweep 2: transverse Gauss-point reconstruction of the line averages,
        # both traces in one pass.  Window k covers rows k..k+4 and is
        # centered at interior cell k.
        g, pair = sweep.gauss, sweep.pair
        np.copyto(pair[0], u_minus.T)
        np.copyto(pair[1], u_plus.T)
        pts = gauss_point_values(pair, self.scheme, out=g)  # (2, n+1, n_trans, 3)
        h = lf_flux(pts, None, model.flux, alpha, out=sweep.edge)
        np.matmul(h, GAUSS_WEIGHTS, out=face)
        return np.multiply(0.5, face, out=face)
