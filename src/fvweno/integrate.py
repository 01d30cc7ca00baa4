"""Optimal third-order TVD Runge-Kutta stepping and time-step control."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError, StateError
from .mesh import CellField, Grid1D
from .physics import max_wave_speed
from .workspace import const, workspace

# the 0-d operands of the stages (call convention of .workspace)
_THREE_QUARTERS, _QUARTER, _THREE, _TWO_THIRDS = map(const, (0.75, 0.25, 3.0, 2.0 / 3.0))


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
    # each use, and the zeros a stage is dotted with
    return np.empty(shape), np.empty(()), np.zeros(math.prod(shape))


def _stage(grid, data, stage, observer, rec, zeros):
    """The field of a stage's fresh array ``data`` of u's shape, not
    validated again, shown to ``observer``.  Its dot with zeros is 0 for
    finite values, and NaN, never an overflow, for a NaN or an inf."""
    if not math.isfinite(data.ravel().dot(zeros)):
        raise DivergenceError("non-finite values", stage=stage)
    field = CellField._of(grid, data)
    if observer is not None:
        observer(stage, field, rec)
    return field


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

    Each stage computes ``(first + c1 prev) + (c_dt dt) L(prev)`` in
    numpy's order of evaluation, into its fresh array.
    """
    if not 0.0 < dt < np.inf:
        raise ConfigurationError(f"dt must be positive and finite; got {dt!r}")
    recorded = observer is not None and hasattr(L, "tendency_recorded")
    grid = u.grid
    u0 = u.data
    ws = workspace(u0.shape)
    term, scaled_dt, zeros = getattr(ws, "rk3", None) or ws.bind("rk3", _rk3_buffers, u0.shape)
    rec = None

    try:
        if recorded:
            Lu, rec = L.tendency_recorded(u)
        else:
            Lu = L(u) if alpha is None else L(u, alpha=alpha)
    except StateError as exc:
        raise DivergenceError(str(exc), stage=1) from exc
    scaled_dt[()] = dt
    u1 = np.multiply(scaled_dt, Lu.data)
    u1 = _stage(grid, np.add(u0, u1, u1), 1, observer, rec, zeros)

    try:
        if recorded:
            Lu, rec = L.tendency_recorded(u1)
        else:
            Lu = L(u1)
    except StateError as exc:
        raise DivergenceError(str(exc), stage=2) from exc
    u2 = np.multiply(_THREE_QUARTERS, u0)
    np.multiply(_QUARTER, u1.data, term)
    np.add(u2, term, u2)
    scaled_dt[()] = 0.25 * dt
    np.multiply(scaled_dt, Lu.data, term)
    u2 = _stage(grid, np.add(u2, term, u2), 2, observer, rec, zeros)

    try:
        if recorded:
            Lu, rec = L.tendency_recorded(u2)
        else:
            Lu = L(u2)
    except StateError as exc:
        raise DivergenceError(str(exc), stage=3) from exc
    u3 = np.divide(u0, _THREE)
    np.multiply(_TWO_THIRDS, u2.data, term)
    np.add(u3, term, u3)
    scaled_dt[()] = 2.0 / 3.0 * dt
    np.multiply(scaled_dt, Lu.data, term)
    return _stage(grid, np.add(u3, term, u3), 3, observer, rec, zeros)


def cfl_dt(field: CellField, model, cfl, remaining=None, *, alpha=None):
    """CFL time step on the field's grid: ``cfl * dx / alpha`` in 1D and
    ``cfl / (alpha_x/dx + alpha_y/dy)`` in 2D, alpha bounded here unless given.

    Clamped to ``remaining`` so the final step lands exactly on the target
    time; a zero wave speed (steady data) returns the remaining time.
    ``cfl`` obeys the rule of :class:`TimeControl`: 0 < cfl <= 1.
    """
    _check_cfl(cfl)
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
