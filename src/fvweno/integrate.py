"""Optimal third-order TVD Runge-Kutta stepping and time-step control."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError, StateError
from .mesh import CellField, Grid1D
from .physics import max_wave_speed
from .workspace import workspace


@dataclass(frozen=True)
class TimeControl:
    """Time-step policy: ``cfl`` mode picks dt from the current wave speed,
    ``dt_scale`` fixes dt = value * dx (the accuracy-table convention)."""

    mode: str
    value: float

    def __post_init__(self):
        if self.mode not in ("cfl", "dt_scale"):
            raise ConfigurationError(f"unknown time-step mode {self.mode!r}")
        if not 0.0 < self.value < np.inf:
            raise ConfigurationError("time-step parameter must be positive and finite")
        if self.mode == "cfl" and self.value > 1.0:
            raise ConfigurationError("the CFL number must be at most 1, the SSP "
                                     "coefficient of TVD-RK3")


def _rk3_buffers(ws, shape):
    return np.empty(shape), np.empty(shape, dtype=bool)


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
    raise :class:`DivergenceError` naming the stage.
    """
    if not dt > 0.0:
        raise ConfigurationError("dt must be positive")
    recorded = observer is not None and hasattr(L, "tendency_recorded")
    grid = u.grid
    u0 = u.data

    ws = workspace(u0.shape)
    term, finite = getattr(ws, "rk3", None) or ws.bind("rk3", _rk3_buffers, u0.shape)

    def tend(field, stage, **given):
        try:
            if recorded:
                Lu, rec = L.tendency_recorded(field)
            else:
                Lu, rec = L(field, **given), None
        except StateError as exc:
            raise DivergenceError(str(exc), stage=stage) from exc
        return Lu.data, rec

    def stage_field(data, stage, rec):
        if not np.isfinite(data, out=finite).all():
            raise DivergenceError("non-finite values", stage=stage)
        # a float array of u's shape: no re-validation between stages
        field = CellField._of(grid, data)
        if observer is not None:
            observer(stage, field, rec)
        return field

    def update(first, c1, prev, c_dt, Lu):
        # (first + c1 prev) + (c_dt dt) Lu, numpy's order of evaluation, into
        # the fresh stage array ``first``
        np.multiply(c1, prev, out=term)
        np.add(first, term, out=first)
        np.multiply(c_dt * dt, Lu, out=term)
        return np.add(first, term, out=first)

    Lu, rec = tend(u, 1) if alpha is None else tend(u, 1, alpha=alpha)
    u1 = np.multiply(dt, Lu)
    u1 = stage_field(np.add(u0, u1, out=u1), 1, rec)
    Lu, rec = tend(u1, 2)
    u2 = stage_field(update(np.multiply(0.75, u0), 0.25, u1.data, 0.25, Lu), 2, rec)
    Lu, rec = tend(u2, 3)
    return stage_field(update(np.divide(u0, 3.0), 2.0 / 3.0, u2.data, 2.0 / 3.0, Lu), 3, rec)


def cfl_dt(field: CellField, model, cfl, remaining=None, *, alpha=None):
    """CFL time step on the field's grid: ``cfl * dx / alpha`` in 1D and
    ``cfl / (alpha_x/dx + alpha_y/dy)`` in 2D, alpha bounded here unless given.

    Clamped to ``remaining`` so the final step lands exactly on the target
    time; a zero wave speed (steady data) returns the remaining time.
    """
    if not cfl > 0.0:
        raise ConfigurationError("cfl must be positive")
    if alpha is None:  # the bound's scratch is shared with the operators on this shape
        alpha = max_wave_speed(field, model, out=workspace(field.data.shape))
    if isinstance(field.grid, Grid1D):
        dt = cfl * field.grid.dx / alpha if alpha > 0.0 else np.inf
    else:
        ax, ay = alpha
        denom = ax / field.grid.dx + ay / field.grid.dy
        dt = cfl / denom if denom > 0.0 else np.inf
    if remaining is not None:
        dt = min(dt, remaining)
    if not np.isfinite(dt):
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
                alpha = max_wave_speed(u, op.model, out=workspace(u.data.shape))  # dt, stage 1
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
