"""Optimal third-order TVD Runge-Kutta stepping and time-step control."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError, StateError
from .mesh import CellField, Grid1D
from .physics import max_wave_speed
from .workspace import const, workspace

# The stages, each ``(first + c_prev prev) + (c_dt dt) L(prev)``: u0's scale
# as a ufunc and its 0-d operand (u0 itself in stage 1), the previous
# stage's factor c_prev (none in stage 1) and dt's multiple c_dt
_STAGES = ((None, None, None, 1.0),
           (np.multiply, const(0.75), const(0.25), 0.25),
           (np.divide, const(3.0), const(2.0 / 3.0), 2.0 / 3.0))


@dataclass(frozen=True)
class TimeControl:
    """Time-step policy: ``cfl`` mode picks dt from the current wave speed,
    ``dt_scale`` fixes dt = value * dx (the accuracy-table convention)."""

    mode: str
    value: float

    def __post_init__(self):
        if self.mode not in ("cfl", "dt_scale"):
            raise ConfigurationError(f"unknown time-step mode {self.mode!r}")
        if self.mode == "cfl":
            _check_cfl(self.value)
        elif not 0.0 < self.value < np.inf:
            raise ConfigurationError("time-step parameter must be positive and finite")


def _check_cfl(cfl):
    """The one rule for a CFL number, of ``TimeControl`` and ``cfl_dt``."""
    if not 0.0 < cfl <= 1.0:
        raise ConfigurationError(f"the CFL number must be positive and at most 1, the SSP "
                                 f"coefficient of TVD-RK3; got {cfl!r}")


def _rk3_buffers(ws, shape):
    # a stage's term, a 0-d buffer of a multiple of dt, filled right before
    # each use, the weights 0.5/n a stage is dotted with, and the field shape
    n = math.prod(shape)
    return np.empty(shape), np.empty(()), np.full(n, 0.5 / n), shape


def rk3_step(u: CellField, L, dt, observer=None, *, alpha=None) -> CellField:
    """One step of the optimal third-order TVD Runge-Kutta method.

    ``L`` maps a field to its conservative tendency (ghosts are refilled by
    the operator on every evaluation).  ``observer``, if given, is called
    after each stage as ``observer(stage, stage_field, record)`` where
    ``record`` carries the interface weights and fluxes used by that stage
    when ``L`` supports recording.  Observation must not mutate the field.
    Every stage field and the returned field own fresh arrays, so observers
    and callers may keep them.  Stage 1 hands ``alpha``, if given, to ``L``
    unless it records; a recording ``L`` bounds the field itself.

    Non-finite values (or an inadmissible state met while evaluating ``L``)
    raise :class:`DivergenceError` naming the stage; a ``dt`` that is not
    positive and finite is a :class:`ConfigurationError`.

    Each stage computes ``(first + c_prev prev) + (c_dt dt) L(prev)`` in
    numpy's order of evaluation, into its fresh array, and is checked by
    its dot with the weights 0.5/n: at most half its largest magnitude for
    finite values, so it cannot overflow, and NaN or inf for a NaN or an inf.
    """
    if not 0.0 < dt < np.inf:
        raise ConfigurationError(f"dt must be positive and finite; got {dt!r}")
    recorded = observer is not None and hasattr(L, "tendency_recorded")
    grid = u.grid
    u0 = u.data
    ws = workspace()
    b = getattr(ws, "rk3", None)
    if b is None or b[-1] != u0.shape:
        b = ws.bind("rk3", _rk3_buffers, u0.shape)
    term, scaled_dt, halves, _ = b
    rec = None
    for stage, (scale, c, c_prev, c_dt) in enumerate(_STAGES, 1):
        try:
            if recorded:
                Lu, rec = L.tendency_recorded(u)
            elif stage == 1 and alpha is not None:
                Lu = L(u, alpha=alpha)
            else:
                Lu = L(u)
        except StateError as exc:
            raise DivergenceError(str(exc), stage=stage) from exc
        first = u0
        if scale is not None:
            first = scale(u0, c)
            np.multiply(c_prev, u.data, term)
            np.add(first, term, first)
        scaled_dt[()] = c_dt * dt
        np.multiply(scaled_dt, Lu.data, term)
        data = np.add(first, term, None if scale is None else first)
        if not math.isfinite(data.ravel().dot(halves)):
            raise DivergenceError("non-finite values", stage=stage)
        u = CellField._of(grid, data)
        if observer is not None:
            observer(stage, u, rec)
    return u


def cfl_dt(field: CellField, model, cfl, remaining=None, *, alpha=None):
    """CFL time step on the field's grid: ``cfl * dx / alpha`` in 1D and
    ``cfl / (alpha_x/dx + alpha_y/dy)`` in 2D, alpha bounded here unless given.

    Clamped to ``remaining`` so the final step lands exactly on the target
    time; a zero wave speed (steady data) returns the remaining time.
    ``cfl`` obeys the rule of :class:`TimeControl`: 0 < cfl <= 1.
    """
    _check_cfl(cfl)
    if alpha is None:  # the bound's scratch is shared with the operators in this thread
        alpha = max_wave_speed(field, model, out=workspace())
    if isinstance(field.grid, Grid1D):
        dt = cfl * field.grid.dx / alpha if alpha > 0.0 else np.inf
    else:
        ax, ay = alpha
        denom = ax / field.grid.dx + ay / field.grid.dy
        dt = cfl / denom if denom > 0.0 else np.inf
    if remaining is not None:
        dt = min(dt, remaining)
    if not math.isfinite(dt):
        raise ConfigurationError("unbounded time step: zero wave speed and no remaining time")
    return dt


def integrate_to(u: CellField, op, t_final, time: TimeControl, step_callback=None) -> CellField:
    """Advance ``u`` to ``t_final`` with RK3 steps under the given policy.

    ``op`` is a semi-discrete operator exposing ``model`` and grid metadata
    (a :class:`~fvweno.solver.SemiDiscreteOp1D` or 2D).  ``step_callback``,
    if given, is called after each step as ``step_callback(step, t, u)``.
    A divergence is re-raised with the failing step number attached.
    """
    if not 0.0 <= t_final < np.inf:
        raise ConfigurationError("t_final must be finite and nonnegative")
    dx = u.grid.dx
    t = 0.0
    step = 0
    eps = 1e-12 * max(t_final, 1.0)
    while t < t_final - eps:
        remaining = t_final - t
        if time.mode == "dt_scale":
            dt, alpha = min(time.value * dx, remaining), None
        else:
            try:
                alpha = max_wave_speed(u, op.model, out=workspace())  # dt, stage 1
                dt = cfl_dt(u, op.model, time.value, remaining=remaining, alpha=alpha)
            except StateError as exc:
                # the state turned inadmissible in the last stage of the
                # completed step; report it against that stage
                raise DivergenceError(str(exc), stage=3, step=step) from exc
        step += 1
        try:
            u = rk3_step(u, op, dt, alpha=alpha)
        except DivergenceError as exc:
            exc.step = step
            raise
        t += dt
        if step_callback is not None:
            step_callback(step, t, u)
    return u
