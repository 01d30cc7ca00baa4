"""Finite-volume WENO schemes for hyperbolic conservation laws.

The package provides fifth-order WENO reconstruction with five nonlinear
weight families (JS, M, Z, ZR, ZL), conservative 1D scalar / 1D Euler / 2D
scalar solvers driven by third-order TVD Runge-Kutta, a dissection toolkit
that reproduces the stage-by-stage single-step error analysis on the
advected Riemann problem, and a benchmark harness with golden-table checks
(CLI entry point: ``weno``).
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigurationError,
    DivergenceError,
    FvwenoError,
    GoldenMismatchError,
    StateError,
)
from .mesh import (
    OUTFLOW,
    PERIODIC,
    REFLECTIVE,
    BoundaryCondition,
    CellField,
    Grid1D,
    Grid2D,
    cell_average_of,
    fill_ghosts,
    inflow,
    polygon_indicator_average,
    step_function_average,
)
from .weno import (
    WeightScheme,
    henrick_map,
    nonlinear_weights,
    reconstruct_gauss_point,
    reconstruct_interface,
    smoothness_indicators,
)
from .physics import (
    ADVECTION,
    BUCKLEY_LEVERETT,
    BURGERS,
    EULER,
    QUARTIC_NONCONVEX,
    EulerModel,
    FluxPair2D,
    ScalarFluxModel,
    exact_riemann,
    lf_flux,
    max_wave_speed,
)
from .integrate import TimeControl, cfl_dt, integrate_to, rk3_step
from .solver import SemiDiscreteOp1D, SemiDiscreteOp2D
from .dissect import RiemannSetup, analyze_step, final_time_comparison, render_table

# the imported public names; importing them binds the submodules here too
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
