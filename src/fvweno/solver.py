"""Conservative semi-discrete operators: 1D scalar/Euler and 2D scalar.

The 1D operator reconstructs left/right interface traces componentwise and
applies a global Lax-Friedrichs flux.  The 2D operator uses two sweeps per
direction: interface WENO along the normal direction produces line averages
of the trace on each face, then Gauss-point WENO in the transverse
direction converts those to point values at the three-node quadrature, so a
face flux is the quadrature average of pointwise Lax-Friedrichs fluxes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .mesh import GHOST, CellField, Grid1D, Grid2D, _normalize_bc, fill_ghosts
from .physics import EulerModel, FluxPair2D, ScalarFluxModel, lf_flux, max_wave_speed
from .weno import GAUSS_WEIGHTS, WeightScheme, gauss_point_values, interface_states


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

    ``bc`` is checked once, when the operator is built.
    """

    model: ScalarFluxModel | EulerModel
    scheme: WeightScheme
    bc: object

    def __post_init__(self):
        object.__setattr__(self, "_sides", _normalize_bc(self.bc, 2))

    def __call__(self, field: CellField) -> CellField:
        return self._tendency(field, False)[0]

    def tendency_recorded(self, field: CellField):
        return self._tendency(field, True)

    def _tendency(self, field: CellField, record):
        grid = field.grid
        if not isinstance(grid, Grid1D):
            raise ConfigurationError("SemiDiscreteOp1D requires a 1D field")
        filled = fill_ghosts(field, self._sides)
        alpha = max_wave_speed(filled, self.model)
        u_minus, u_plus, (om_minus, om_plus) = interface_states(
            filled.data, self.scheme, record=True
        )
        h = lf_flux(u_minus, u_plus, self.model.flux, alpha)
        data = np.zeros(field.data.shape)
        du = data[:, GHOST:-GHOST]
        np.subtract(h[..., 1:], h[..., :-1], out=du)
        np.divide(du, -grid.dx, out=du)  # == -(du) / dx, signed zeros included
        rec = None
        if record:
            rec = InterfaceRecord(grid.interfaces(), om_minus, om_plus, h, alpha)
        return CellField._of(grid, data), rec


@dataclass(frozen=True)
class SemiDiscreteOp2D:
    """2D scalar tendency with 3-point Gauss quadrature of the face fluxes.

    ``bc`` is checked once, when the operator is built.
    """

    model: FluxPair2D
    scheme: WeightScheme
    bc: object

    def __post_init__(self):
        object.__setattr__(self, "_sides", _normalize_bc(self.bc, 4))

    def __call__(self, field: CellField) -> CellField:
        grid = field.grid
        if not isinstance(grid, Grid2D):
            raise ConfigurationError("SemiDiscreteOp2D requires a 2D field")
        if field.ncomp != 1:
            raise ConfigurationError("2D solver is scalar only")
        filled = fill_ghosts(field, self._sides)
        alpha_x, alpha_y = max_wave_speed(filled, self.model)
        d = filled.data[0]
        fx = self._face_flux(d, self.model.fx, alpha_x)
        fy = self._face_flux(d.T, self.model.fy, alpha_y).T
        out = CellField.zeros(grid, ncomp=1)
        out.interior[0] = (
            -(fx[1:, :] - fx[:-1, :]) / grid.dx - (fy[:, 1:] - fy[:, :-1]) / grid.dy
        )
        return out

    def _face_flux(self, d, model, alpha):
        """Face fluxes across the first axis of the padded ``d``, with n and
        n_trans interior cells along its axes: shape (n+1, n_trans)."""
        # Sweep 1: interface WENO along the normal axis, every transverse row.
        u_minus, u_plus = interface_states(d.T, self.scheme)  # (n_trans_tot, n+1)
        # Sweep 2: transverse Gauss-point reconstruction of the line averages.
        pts_minus = gauss_point_values(u_minus.T, self.scheme)  # (n+1, K, 3)
        pts_plus = gauss_point_values(u_plus.T, self.scheme)
        h = lf_flux(pts_minus, pts_plus, model.flux, alpha)
        face = 0.5 * (h @ GAUSS_WEIGHTS)
        # Transverse window k covers padded rows k..k+4 and is centered at
        # row k+2; keep the interior rows, those past the GHOST on each side.
        return face[:, GHOST - 2 : 2 - GHOST]
