"""TVD-RK3 stepping and time-step control."""

import dataclasses
import warnings

import numpy as np
import pytest

from fvweno import integrate, solver
from fvweno.errors import ConfigurationError, DivergenceError, StateError
from fvweno.harness.problems import get_problem
from fvweno.integrate import TimeControl, cfl_dt, integrate_to, rk3_step
from fvweno.mesh import CellField, Grid1D, Grid2D, PERIODIC, cell_average_of
from fvweno.physics import ADVECTION, BURGERS, EULER, EulerModel, FluxPair2D
from fvweno.solver import SemiDiscreteOp1D, SemiDiscreteOp2D
from fvweno.weno import WeightScheme

from oracle_utils import same_bits


def _scalar_field(values):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    grid = Grid1D(0.0, float(values.size), values.size)
    return CellField.from_interior(grid, values)


def test_rk3_zero_operator_is_identity():
    u = _scalar_field([1.0, -2.0, 3.0])
    L = lambda f: CellField(f.grid, np.zeros_like(f.data))
    out = rk3_step(u, L, 0.1)
    np.testing.assert_array_equal(out.data, u.data)


def test_rk3_decay_amplification():
    # u' = -u: one step gives 1 - h + h^2/2 - h^3/6
    u = _scalar_field([1.0])
    L = lambda f: CellField(f.grid, -f.data)
    out = rk3_step(u, L, 0.1)
    assert out.interior[0, 0] == pytest.approx(1 - 0.1 + 0.005 - 1e-3 / 6, rel=1e-15)


def test_rk3_third_order_on_decay():
    L = lambda f: CellField(f.grid, -f.data)
    errs = []
    hs = [0.1 / 2**k for k in range(5)]
    for h in hs:
        u = _scalar_field([1.0])
        steps = round(1.0 / h)
        for _ in range(steps):
            u = rk3_step(u, L, h)
        errs.append(abs(u.interior[0, 0] - np.exp(-1.0)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 3.0) < 0.1), orders


def test_rk3_rejects_nonpositive_dt():
    u = _scalar_field([1.0])
    with pytest.raises(ConfigurationError):
        rk3_step(u, lambda f: f, 0.0)


def test_rk3_divergence_names_stage():
    calls = [0]

    def L(f):
        calls[0] += 1
        data = np.zeros_like(f.data)
        if calls[0] == 2:  # second stage blows up
            data[:] = np.nan
        return CellField(f.grid, data)

    with pytest.raises(DivergenceError) as err:
        rk3_step(_scalar_field([1.0]), L, 0.1)
    assert err.value.stage == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("stage", [1, 2, 3])
def test_a_non_finite_value_in_a_stage_is_named_with_that_stage(stage, bad):
    # the stage's field dotted with 0.5/n is NaN or inf, so the one check of
    # the stage finds it, and a single NaN or inf makes numpy warn of nothing
    calls = []

    def L(f):
        calls.append(f)
        data = np.zeros_like(f.data)
        if len(calls) == stage:
            data[0, 4] = bad
        return CellField(f.grid, data)

    with pytest.raises(DivergenceError) as err, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rk3_step(_scalar_field([1.0, -2.0, 3.0, 0.5]), L, 0.1)
    assert err.value.stage == stage
    assert str(err.value) == f"non-finite values (stage {stage})"


def test_finite_values_whose_sum_overflows_pass_every_stage():
    # four cells of 1e308 sum to inf, yet every value is finite: a check that
    # only summed would stop at stage 1, and one that reduced them would make
    # numpy warn of the overflow
    seen = []
    zero = lambda f: CellField(f.grid, np.zeros_like(f.data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = rk3_step(_scalar_field([1e308] * 4), zero, 0.1,
                       observer=lambda stage, field, rec: seen.append(stage))
    assert seen == [1, 2, 3]
    np.testing.assert_allclose(out.interior, 1e308, rtol=1e-15)


def test_rk3_observer_sees_stages():
    seen = []
    L = lambda f: CellField(f.grid, -f.data)
    rk3_step(_scalar_field([2.0]), L, 0.5,
             observer=lambda stage, field, rec: seen.append((stage, field.interior[0, 0])))
    assert [s for s, _ in seen] == [1, 2, 3]
    assert seen[0][1] == pytest.approx(1.0)  # 2 + 0.5*(-2)


def test_rk3_fields_handed_out_are_never_overwritten():
    # callers and observers keep the fields rk3_step returns or shows them;
    # later steps must not write into those arrays
    grid = Grid1D(-1.0, 1.0, 32)
    u0 = cell_average_of(lambda x: np.sin(np.pi * x), grid)
    op = SemiDiscreteOp1D(ADVECTION, WeightScheme.z(), (PERIODIC, PERIODIC))
    kept = []

    def observer(stage, field, rec):
        kept.append((field, field.data.copy(), rec.omega_minus, rec.omega_minus.copy()))

    u1 = rk3_step(u0, op, 0.01, observer=observer)
    snap0, snap1 = u0.data.copy(), u1.data.copy()
    u2 = rk3_step(u1, op, 0.01, observer=observer)
    rk3_step(u2, op, 0.01)
    np.testing.assert_array_equal(u0.data, snap0)
    np.testing.assert_array_equal(u1.data, snap1)
    assert not np.shares_memory(u1.data, u2.data)
    for field, data, omega, omega_snap in kept:
        np.testing.assert_array_equal(field.data, data)
        np.testing.assert_array_equal(omega, omega_snap)


def test_cfl_dt_advection():
    grid = Grid1D(0.0, 1.0, 100)
    u = CellField.from_interior(grid, np.ones(100))
    assert cfl_dt(u, ADVECTION, 0.4) == pytest.approx(0.004)


def test_cfl_dt_sod_initial():
    grid = Grid1D(-5.0, 5.0, 200)
    U = np.where(grid.centers() <= 0.0, EULER.conserved(1.0, 0.0, 1.0)[:, None],
                 EULER.conserved(0.125, 0.0, 0.1)[:, None])
    u = CellField.from_interior(grid, U)
    assert cfl_dt(u, EULER, 0.4) == pytest.approx(0.02 / np.sqrt(1.4))


def test_cfl_dt_zero_speed_caps_at_remaining():
    grid = Grid1D(0.0, 1.0, 10)
    u = CellField.from_interior(grid, np.zeros(10))
    assert cfl_dt(u, BURGERS, 0.4, remaining=0.37) == 0.37
    with pytest.raises(ConfigurationError):
        cfl_dt(u, BURGERS, 0.4)


def test_cfl_dt_2d_reads_both_spacings():
    # dx = 0.5 and dy = 0.25: a swap of the two changes the step
    grid = Grid2D(0.0, 2.0, 0.0, 1.0, 4, 4)
    u = CellField.from_interior(grid, np.array([[0.5, -3.0, 1.0, 2.0]] * 4).T)
    model = FluxPair2D(BURGERS, ADVECTION)
    assert cfl_dt(u, model, 0.4) == 0.4 / (3.0 / grid.dx + 1.0 / grid.dy)
    assert cfl_dt(u, model, 0.4) == 0.4 / (3.0 / 0.5 + 1.0 / 0.25)
    assert cfl_dt(u, model, 0.4, remaining=0.01) == 0.01


def test_dt_scale_mode_step_count():
    # dt = 0.1*dx exactly reproduces the accuracy-table stepping
    grid = Grid1D(-1.0, 1.0, 10)
    u = cell_average_of(lambda x: np.sin(np.pi * x), grid)
    op = SemiDiscreteOp1D(ADVECTION, WeightScheme.z(), (PERIODIC, PERIODIC))
    steps = []
    integrate_to(u, op, 0.8, TimeControl("dt_scale", 0.1),
                 step_callback=lambda s, t, f: steps.append(s))
    assert steps[-1] == 40


def test_rk3_conserves_mass_per_step():
    grid = Grid1D(-1.0, 1.0, 40)
    u = cell_average_of(lambda x: np.sin(np.pi * x) + 0.2, grid)
    op = SemiDiscreteOp1D(ADVECTION, WeightScheme.js(), (PERIODIC, PERIODIC))
    mass0 = u.interior[0].sum() * grid.dx
    scale = np.abs(u.interior[0]).sum() * grid.dx
    out = rk3_step(u, op, 0.4 * grid.dx)
    mass1 = out.interior[0].sum() * grid.dx
    assert abs(mass1 - mass0) <= 10 * np.finfo(float).eps * max(scale, 1.0)


def test_linear_advection_stability_on_monotone_data():
    # a translating front must not grow the peak: max|u| nonincreasing up
    # to 1e-12 per step
    from fvweno.mesh import OUTFLOW, step_function_average

    grid = Grid1D(0.0, 4.0, 40)
    u = step_function_average(grid, 1.0, 1.0, 0.0)
    op = SemiDiscreteOp1D(ADVECTION, WeightScheme.z(), (OUTFLOW, OUTFLOW))
    dt = 0.4 * grid.dx
    peak = np.abs(u.interior[0]).max()
    for _ in range(100):
        u = rk3_step(u, op, dt)
        new_peak = np.abs(u.interior[0]).max()
        assert new_peak <= peak + 1e-12
        peak = new_peak


def test_time_control_validation():
    with pytest.raises(ConfigurationError):
        TimeControl("adaptive", 0.4)
    for mode in ("cfl", "dt_scale"):
        for value in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ConfigurationError):
                TimeControl(mode, value)
    for value in (1.5, 50.0):               # above the SSP coefficient of TVD-RK3
        with pytest.raises(ConfigurationError):
            TimeControl("cfl", value)
    TimeControl("cfl", 1.0)
    grid = Grid1D(-1.0, 1.0, 20)
    u = cell_average_of(lambda x: np.sin(np.pi * x), grid)
    op = SemiDiscreteOp1D(ADVECTION, WeightScheme.z(), PERIODIC)
    for t_final in (-1.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError):
            integrate_to(u, op, t_final, TimeControl("dt_scale", 0.1))
    assert integrate_to(u, op, 0.0, TimeControl("dt_scale", 0.1)) is u


# --- each quantity evaluated once ---------------------------------------------


def _counted(calls, name, fn):
    """``fn`` appending ``name`` to ``calls`` on every call."""
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return counted


def _count_bounds(monkeypatch):
    """Count the wave-speed bounds of the time loop and of the operators,
    and the Euler validations, in one list of names."""
    calls = []
    for module in (integrate, solver):
        monkeypatch.setattr(module, "max_wave_speed",
                            _counted(calls, "bound", module.max_wave_speed))
    monkeypatch.setattr(EulerModel, "validate",
                        _counted(calls, "validate", EulerModel.validate))
    return calls


def _two_bound_steps(u, op, t_final, cfl):
    """The fields of the time loop of ``integrate_to`` when ``cfl_dt`` and
    stage 1 each bounded the wave speed of the step's state."""
    fields, t = [], 0.0
    while t < t_final - 1e-12 * max(t_final, 1.0):
        dt = cfl_dt(u, op.model, cfl, remaining=t_final - t)
        u = rk3_step(u, op, dt)
        t += dt
        fields.append(u.data.copy())
    return fields


def test_a_cfl_step_bounds_each_state_once(monkeypatch):
    # three states a step (the step's and two stages'), one bound each,
    # with the bits of the order that bounded the step's state twice
    sod = get_problem("sod")
    u0 = sod.initial(sod.make_grid(40))
    op = SemiDiscreteOp1D(EULER, WeightScheme.zl(p=2.0, q=2.0), sod.bc)
    want = _two_bound_steps(u0, op, 0.6, 0.4)
    calls = _count_bounds(monkeypatch)
    got = []
    integrate_to(u0, op, 0.6, TimeControl("cfl", 0.4),
                 step_callback=lambda step, t, u: got.append(u.data.copy()))
    steps = len(got)
    assert steps == len(want) >= 5
    assert calls.count("bound") == 3 * steps and calls.count("validate") == 3 * steps
    assert all(same_bits(a, b) for a, b in zip(got, want))


def test_an_operator_given_alpha_does_not_bound_again(monkeypatch):
    sod = get_problem("sod")
    u = sod.initial(sod.make_grid(30))
    op = SemiDiscreteOp1D(EULER, WeightScheme.z(), sod.bc)
    plain, alpha = op(u), op.tendency_recorded(u)[1].alpha
    calls = _count_bounds(monkeypatch)
    given = op(u, alpha=alpha)
    assert calls == []
    assert same_bits(given.data, plain.data)
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 12, 9)
    v = cell_average_of(lambda x, y: 0.25 + 0.5 * np.sin(np.pi * (x + y)), grid)
    op2 = SemiDiscreteOp2D(FluxPair2D(BURGERS, BURGERS), WeightScheme.m(), PERIODIC)
    alpha2 = solver.max_wave_speed(v, op2.model)
    assert len(calls) == 1
    assert same_bits(op2(v, alpha=alpha2).data, op2(v).data)
    assert len(calls) == 2


@pytest.mark.parametrize("dim", [1, 2])
def test_a_tendency_evaluates_the_model_flux_once_per_sweep(dim, monkeypatch):
    # one flux call on both traces (1D) or both halves of the Gauss-point
    # values (each 2D sweep), with the bits of a flux of the two traces
    # evaluated one after the other
    calls = []
    burgers = dataclasses.replace(BURGERS, flux=_counted(calls, "flux", BURGERS.flux))
    if dim == 1:
        grid = Grid1D(-1.0, 1.0, 24)
        u = cell_average_of(lambda x: np.sin(np.pi * x) + np.where(x > 0.3, 1.0, 0.0), grid)
        ops = [SemiDiscreteOp1D(m, s, PERIODIC) for m in (burgers, BURGERS)
               for s in (WeightScheme.js(), WeightScheme.zl(p=2.0, q=2.0))]
    else:
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 12, 9)
        u = cell_average_of(lambda x, y: 0.25 + 0.5 * np.sin(np.pi * (x + y))
                            + np.where(x > 0.2, 0.5, 0.0), grid)
        ops = [SemiDiscreteOp2D(FluxPair2D(m, m), s, PERIODIC) for m in (burgers, BURGERS)
               for s in (WeightScheme.js(), WeightScheme.zl(p=2.0, q=2.0))]
    got = []
    for op in ops[:2]:
        for _ in range(2):
            del calls[:]
            got.append(op(u).data.copy())
            assert calls == ["flux"] * dim

    def two_evaluations(a, b, flux, alpha, *, out=None):
        a, b = (a[0], a[1]) if b is None else (a, b)    # 2D: a and b stacked
        return 0.5 * (flux(a) + flux(b) - alpha * (b - a))

    monkeypatch.setattr(solver, "lf_flux", two_evaluations)
    want = [op(u).data.copy() for op in ops[2:] for _ in range(2)]
    assert all(same_bits(a, b) for a, b in zip(got, want))


def test_an_inadmissible_state_is_reported_against_the_stage_that_made_it(monkeypatch):
    # the blast wave with ZL(1/7,2) ends step 1 at negative pressure: the
    # bound of the next step's state finds it, before any stage of step 2
    blast = get_problem("blastwave")
    op = SemiDiscreteOp1D(EULER, WeightScheme.zl(p=1.0 / 7.0, q=2.0), blast.bc)
    calls = _count_bounds(monkeypatch)
    with pytest.raises(DivergenceError) as err:
        integrate_to(blast.initial(blast.make_grid(400)), op, blast.tfinal, blast.time)
    assert str(err.value) == "nonpositive pressure (min -1.674e+01) (step 1, stage 3)"
    assert isinstance(err.value.__cause__, StateError)
    assert calls.count("bound") == 4        # step 1's state and stages, step 2's state


def test_cfl_dt_and_time_control_share_one_rule():
    # a CFL number outside (0, 1] is refused by both, with one message
    grid = Grid1D(0.0, 1.0, 10)
    u = CellField.from_interior(grid, np.ones(10))
    for cfl in (5.0, 1.5, np.inf, np.nan, 0.0, -0.4):
        with pytest.raises(ConfigurationError, match="CFL number") as from_time:
            TimeControl("cfl", cfl)
        with pytest.raises(ConfigurationError, match="CFL number") as from_dt:
            cfl_dt(u, ADVECTION, cfl, remaining=1.0)
        assert str(from_time.value) == str(from_dt.value)
    assert cfl_dt(u, ADVECTION, 1.0) == grid.dx


@pytest.mark.parametrize("dt", [np.inf, -np.inf, np.nan])
def test_rk3_rejects_a_non_finite_dt(dt):
    grid = Grid1D(-1.0, 1.0, 20)
    u = cell_average_of(lambda x: np.sin(np.pi * x), grid)
    op = SemiDiscreteOp1D(ADVECTION, WeightScheme.z(), PERIODIC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # refused before any arithmetic
        with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
            rk3_step(u, op, dt)
