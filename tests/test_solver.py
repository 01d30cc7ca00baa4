"""Semi-discrete operators: 1D scalar/Euler and the 2D two-sweep scheme."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvweno import solver
from fvweno.errors import ConfigurationError
from fvweno.harness.problems import get_problem
from fvweno.integrate import TimeControl, integrate_to
from fvweno.mesh import (
    OUTFLOW,
    PERIODIC,
    REFLECTIVE,
    CellField,
    Grid1D,
    Grid2D,
    cell_average_of,
    fill_ghosts,
    inflow,
    step_function_average,
)
from fvweno.physics import ADVECTION, BURGERS, EULER, FluxPair2D, lf_flux, max_wave_speed
from fvweno.solver import SemiDiscreteOp1D, SemiDiscreteOp2D
from fvweno.weno import GAUSS_WEIGHTS, WeightScheme, gauss_point_values, interface_states

from oracle_utils import ALL_SCHEMES, SIX_SCHEMES, same_bits


def test_constant_field_zero_tendency():
    grid = Grid1D(0.0, 1.0, 16)
    u = CellField.from_interior(grid, np.full(16, 2.2))
    op = SemiDiscreteOp1D(BURGERS, WeightScheme.js(), (PERIODIC, PERIODIC))
    np.testing.assert_array_equal(op(u).interior, 0.0)


def test_riemann_first_stage_fluxes_match_published_cells():
    # jump 1 -> 0 at x=0, dx=0.01; the interface fluxes at x=0 and x=0.01
    grid = Grid1D(-0.15, 0.22, 37)
    # exact unit step by index so the constant states carry no rounding
    u = CellField.from_interior(grid, np.where(np.arange(37) < 15, 1.0, 0.0))
    op = SemiDiscreteOp1D(ADVECTION, WeightScheme.js(eps=1e-12), (OUTFLOW, OUTFLOW))
    _, rec = op.tendency_recorded(u)
    k0 = int(round(-grid.a / grid.dx))  # interface at x = 0
    assert abs(rec.flux[0][k0] - 1.0) <= 1e-15
    np.testing.assert_allclose(rec.flux[0][k0 + 1], -2.125e-25, rtol=1e-3)


def test_advection_tendency_matches_analytic_derivative():
    # d/dt ubar_i = -pi * cell average of cos(pi x); fifth-order accurate
    errs = []
    for n in (40, 80):
        grid = Grid1D(-1.0, 1.0, n)
        u = cell_average_of(lambda x: np.sin(np.pi * x), grid)
        op = SemiDiscreteOp1D(ADVECTION, WeightScheme.m(), (PERIODIC, PERIODIC))
        tend = op(u).interior[0]
        exact = -np.pi * cell_average_of(lambda x: np.cos(np.pi * x), grid).interior[0]
        errs.append(np.abs(tend - exact).max())
    assert np.log2(errs[0] / errs[1]) >= 4.5, errs


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
def test_tendency_conserves_discrete_mass(scheme):
    rng = np.random.default_rng(1)
    grid = Grid1D(-1.0, 1.0, 32)
    u = CellField.from_interior(grid, rng.uniform(0.2, 1.0, 32))
    op = SemiDiscreteOp1D(BURGERS, scheme, (PERIODIC, PERIODIC))
    out, rec = op.tendency_recorded(u)
    scale = np.abs(rec.flux).sum()
    assert abs(out.interior[0].sum() * grid.dx) <= 10 * np.finfo(float).eps * scale


@st.composite
def _jumpy_row(draw):
    """Random data at one of three scales with up to three jumps."""
    n = draw(st.integers(6, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.uniform(-1.0, 1.0, n) * draw(st.sampled_from([1e-3, 1.0, 10.0]))
    for cut in draw(st.lists(st.integers(1, n - 1), max_size=3)):
        v[cut:] += draw(st.sampled_from([0.5, -2.0, 3.0]))
    return v


@pytest.mark.parametrize("model", [ADVECTION, BURGERS], ids=lambda m: m.name)
@pytest.mark.parametrize("scheme", SIX_SCHEMES, ids=lambda s: s.label)
@settings(deadline=None, derandomize=True, max_examples=25)
@given(v=_jumpy_row())
def test_periodic_tendency_sums_to_zero(scheme, model, v):
    # the interface fluxes telescope; each tendency value rounds twice and
    # the sum of n <= 40 terms adds at most about log2(n) more roundings
    grid = Grid1D(-1.0, 1.0, v.size)
    t = SemiDiscreteOp1D(model, scheme, PERIODIC)(CellField.from_interior(grid, v)).interior
    assert abs(t.sum()) <= 16 * np.finfo(float).eps * np.abs(t).sum()


@settings(deadline=None, derandomize=True, max_examples=25)
@given(rows=_jumpy_row(), cols=_jumpy_row())
def test_2d_periodic_tendency_sums_to_zero(rows, cols):
    # the x and y flux differences telescope separately; each part of a
    # value is bounded by the largest face flux over the spacing
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, rows.size, cols.size)
    v = rows[:, None] + 0.5 * cols[None, :]
    op = SemiDiscreteOp2D(FluxPair2D(BURGERS, ADVECTION), WeightScheme.zl(p=2, q=2), PERIODIC)
    t = op(CellField.from_interior(grid, v)).interior
    bound = 4.0 * max(np.abs(v).max(), 1.0) ** 2 * (1.0 / grid.dx + 1.0 / grid.dy)
    assert abs(t.sum()) <= 64 * np.finfo(float).eps * t.size * bound


@pytest.mark.parametrize("scheme", ALL_SCHEMES + [WeightScheme.linear()],
                         ids=lambda s: s.label)
def test_plain_and_recorded_tendency_are_one_kernel(scheme):
    rng = np.random.default_rng(5)
    grid = Grid1D(-1.0, 1.0, 48)
    vals = rng.uniform(0.2, 1.0, 48)
    vals[20:30] += 1.0
    rho = np.where(grid.centers() < 0.0, 1.0, 0.125)
    P = np.where(grid.centers() < 0.0, 1.0, 0.1)
    cases = [
        (BURGERS, (PERIODIC, PERIODIC), CellField.from_interior(grid, vals)),
        (EULER, (OUTFLOW, OUTFLOW),
         CellField.from_interior(grid, EULER.conserved(rho, 0.0 * rho, P))),
    ]
    for model, bc, u in cases:
        op = SemiDiscreteOp1D(model, scheme, bc)
        recorded, _ = op.tendency_recorded(u)
        np.testing.assert_array_equal(op(u).data, recorded.data)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
def test_eno_property_single_jump_advection(scheme):
    # advect a single jump to T=1: no new extremum beyond the data range by
    # more than 1e-2
    grid = Grid1D(-0.35, 1.35, 170)
    u = step_function_average(grid, 0.0, 1.0, 0.0)
    op = SemiDiscreteOp1D(ADVECTION, scheme, (OUTFLOW, OUTFLOW))
    out = integrate_to(u, op, 1.0, TimeControl("dt_scale", 0.5))
    vals = out.interior[0]
    assert vals.max() <= 1.0 + 1e-2
    assert vals.min() >= -1e-2


def test_euler_componentwise_tendency_constant_state():
    grid = Grid1D(0.0, 1.0, 12)
    u = CellField.from_interior(grid, np.tile(EULER.conserved(1.0, 0.3, 2.0)[:, None], 12))
    op = SemiDiscreteOp1D(EULER, WeightScheme.z(), (OUTFLOW, OUTFLOW))
    np.testing.assert_allclose(op(u).interior, 0.0, atol=1e-13)


def test_record_shapes():
    grid = Grid1D(0.0, 1.0, 10)
    u = CellField.from_interior(grid, np.linspace(0.1, 1.0, 10))
    op = SemiDiscreteOp1D(ADVECTION, WeightScheme.js(), (PERIODIC, PERIODIC))
    _, rec = op.tendency_recorded(u)
    assert rec.positions.shape == (11,)
    assert rec.omega_minus.shape == (1, 11, 3)
    assert rec.omega_plus.shape == (1, 11, 3)
    assert rec.flux.shape == (1, 11)


# --- 2D ---------------------------------------------------------------------

def _op2d(scheme, model=None, bc=(PERIODIC,) * 4):
    return SemiDiscreteOp2D(model or FluxPair2D(BURGERS, BURGERS), scheme, bc)


@pytest.mark.parametrize("bc", [REFLECTIVE, (REFLECTIVE, REFLECTIVE, PERIODIC, PERIODIC),
                                (PERIODIC, PERIODIC, OUTFLOW, REFLECTIVE),
                                (inflow(np.sin), OUTFLOW, PERIODIC, PERIODIC)])
def test_2d_operator_rejects_unsupported_sides_when_built(bc):
    with pytest.raises(ConfigurationError, match="not supported"):
        _op2d(WeightScheme.z(), FluxPair2D(ADVECTION, ADVECTION), bc)


def test_2d_constant_field_zero_tendency():
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, 10, 12)
    u = CellField.from_interior(grid, np.full((10, 12), 0.7))
    np.testing.assert_array_equal(_op2d(WeightScheme.z())(u).interior, 0.0)


@st.composite
def _rough_field(draw, nx, ny):
    """Random data at one of three scales, optionally with a flat block
    whose edges are jumps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.uniform(-1.0, 1.0, (nx, ny)) * draw(st.sampled_from([1e-3, 1.0, 10.0]))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        v[i:, :j] = draw(st.sampled_from([0.0, 0.5, -2.0]))
    return v


_PROPERTY = settings(deadline=None, derandomize=True, max_examples=20)
_MODELS_2D = [FluxPair2D(ADVECTION, ADVECTION), FluxPair2D(BURGERS, BURGERS)]


def _full_rows_tendency(op, field, alpha=None):
    """The 2D tendency from the public kernels, each sweep over all n_t+6
    padded transverse rows and all n_t+2 Gauss windows, the interior ones
    kept: the full reconstruction, whose bits the operator must keep."""
    filled = fill_ghosts(field, op.bc)
    d = filled.data[0]
    faces = []
    for rows, flux, a in zip((d.T, d), (op.model.fx, op.model.fy),
                             alpha or max_wave_speed(filled, op.model)):
        u_minus, u_plus = interface_states(rows, op.scheme)
        pts = gauss_point_values(np.stack([u_minus.T, u_plus.T]), op.scheme)
        face = 0.5 * (lf_flux(pts[0], pts[1], flux.flux, a) @ GAUSS_WEIGHTS)
        faces.append(face[:, 1:-1])
    fx, fy = faces[0], faces[1].T
    return (-(fx[1:] - fx[:-1]) / field.grid.dx) - (fy[:, 1:] - fy[:, :-1]) / field.grid.dy


# The largest square grid whose two axes take one stacked pass.
_STACKED_N = 40
assert 2 * (_STACKED_N + 1) * _STACKED_N <= solver.STACK_FACES \
    < 2 * (_STACKED_N + 2) * (_STACKED_N + 1)


def _periodic_burgers(scheme, n=11):
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, n, n)
    return _op2d(scheme), grid, None


def _boundary_layer(scheme):
    problem = get_problem("boundary-layer")
    return SemiDiscreteOp2D(problem.model, scheme, problem.bc), problem.make_grid((24, 16)), None


def _mixed_square(scheme):
    # the axes have different fluxes: one pass per axis
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 12, 12)
    return _op2d(scheme, FluxPair2D(BURGERS, ADVECTION)), grid, None


def _unequal_alpha(scheme):
    # a stacked pass broadcasts each axis's own alpha over its faces
    return _op2d(scheme), Grid2D(-1.0, 1.0, -1.0, 1.0, 20, 20), (1.5, 0.75)


_CASES_2D = {
    "periodic-square": _periodic_burgers,
    "boundary-layer-24x16": _boundary_layer,
    f"stacked-{_STACKED_N}x{_STACKED_N}": lambda s: _periodic_burgers(s, _STACKED_N),
    f"per-axis-{_STACKED_N + 1}x{_STACKED_N + 1}": lambda s: _periodic_burgers(s, _STACKED_N + 1),
    "mixed-square-12x12": _mixed_square,
    "alpha-1.5-0.75": _unequal_alpha,
}


@pytest.mark.parametrize("case", _CASES_2D.values(), ids=_CASES_2D.keys())
@pytest.mark.parametrize("scheme", SIX_SCHEMES, ids=lambda s: s.label)
def test_2d_tendency_matches_full_row_reconstruction(scheme, case):
    # the sweeps reconstruct only the transverse rows and Gauss windows the
    # faces read, both axes of a small square grid in one pass; every face
    # keeps the bits of the full reconstruction, per axis
    op, grid, alpha = case(scheme)
    rng = np.random.default_rng(17)
    v = rng.uniform(-1.0, 1.0, (grid.nx, grid.ny))
    v[grid.nx // 3:, : grid.ny // 2] += 2.0                    # two jumps
    for field in (CellField.from_interior(grid, v), CellField.from_interior(grid, v[::-1])):
        assert same_bits(op(field, alpha=alpha).interior[0], _full_rows_tendency(op, field, alpha))


@pytest.mark.parametrize("nx, ny, model, shapes", [
    (_STACKED_N, _STACKED_N, None, [(2, 2, _STACKED_N + 1, _STACKED_N + 4)]),
    (_STACKED_N + 1, _STACKED_N + 1, None, [(2, 1, _STACKED_N + 2, _STACKED_N + 5)] * 2),
    (12, 12, FluxPair2D(BURGERS, ADVECTION), [(2, 1, 13, 16)] * 2),
    (12, 9, None, [(2, 1, 13, 13), (2, 1, 10, 16)]),
], ids=("stacked", "over-the-cap", "mixed-models", "non-square-12x9"))
def test_2d_axes_share_a_pass_only_when_they_may(nx, ny, model, shapes, monkeypatch):
    # a square grid with one flux for both axes, and at most STACK_FACES
    # faces, reconstructs both axes in one Gauss pass; the rest per axis.
    # Both traces of a group go through one call, stacked before its axes,
    # over the n_trans+4 transverse rows its n_trans windows read.
    seen = []

    def recording(ubar, *args, **kwargs):
        seen.append(ubar.shape)
        return gauss_point_values(ubar, *args, **kwargs)

    monkeypatch.setattr(solver, "gauss_point_values", recording)
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, nx, ny)
    _op2d(WeightScheme.z(), model)(CellField.from_interior(grid, np.ones((nx, ny))))
    assert seen == shapes


@pytest.mark.parametrize("model", _MODELS_2D, ids=("advection", "burgers"))
@pytest.mark.parametrize("scheme", SIX_SCHEMES, ids=lambda s: s.label)
@_PROPERTY
@given(data=st.data(), n=st.integers(6, 12))
def test_2d_tendency_commutes_with_transposition(scheme, model, data, n):
    # on a square periodic grid the x and y sweeps are the same computation
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, n, n)
    v = data.draw(_rough_field(n, n))
    op = _op2d(scheme, model)
    t = op(CellField.from_interior(grid, v)).interior[0]
    t_transposed = op(CellField.from_interior(grid, v.T)).interior[0]
    assert same_bits(t_transposed, t.T)


@pytest.mark.parametrize("model", _MODELS_2D, ids=("advection", "burgers"))
@pytest.mark.parametrize("scheme", SIX_SCHEMES, ids=lambda s: s.label)
@_PROPERTY
@given(data=st.data(), nx=st.integers(6, 12), ny=st.integers(6, 12),
       axis=st.sampled_from([0, 1]), shift=st.integers(1, 11))
def test_2d_tendency_commutes_with_periodic_shift(scheme, model, data, nx, ny, axis, shift):
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, nx, ny)
    v = data.draw(_rough_field(nx, ny))
    op = _op2d(scheme, model)
    t = op(CellField.from_interior(grid, v)).interior[0]
    t_rolled = op(CellField.from_interior(grid, np.roll(v, shift, axis))).interior[0]
    assert same_bits(t_rolled, np.roll(t, shift, axis))


@pytest.mark.parametrize("scheme", SIX_SCHEMES, ids=lambda s: s.label)
@_PROPERTY
@given(rough=_rough_field(24, 2))
def test_2d_reduces_to_1d_for_separable_data(scheme, rough):
    g1 = Grid1D(-1.0, 1.0, 24)
    g2 = Grid2D(-1.0, 1.0, -1.0, 1.0, 24, 18)
    op1 = SemiDiscreteOp1D(BURGERS, scheme, (PERIODIC, PERIODIC))
    X = lambda x: np.sin(np.pi * x) + 0.3 * np.cos(2 * np.pi * x)
    u1 = cell_average_of(X, g1)
    u2 = cell_average_of(lambda x, y: X(x) + 0.0 * y, g2)
    t1 = op1(u1).interior[0]
    t2 = _op2d(scheme)(u2).interior[0]
    assert np.abs(t2 - t1[:, None]).max() < 1e-12
    # rough data, constant along y: the y fluxes cancel exactly and the x
    # faces see the 1D traces; only the Gauss nodes of constant rows round
    v = rough[:, 0]
    t1 = op1(CellField.from_interior(g1, v)).interior[0]
    t2 = _op2d(scheme)(CellField.from_interior(g2, np.repeat(v[:, None], 18, 1))).interior[0]
    scale = max(np.abs(v).max(), 1.0) ** 2 / g1.dx
    assert np.abs(t2 - t1[:, None]).max() <= 16 * np.finfo(float).eps * scale


def test_2d_smooth_tendency_order():
    errs = []
    for n in (20, 40):
        grid = Grid2D(-2.0, 2.0, -2.0, 2.0, n, n)
        u = cell_average_of(lambda x, y: 0.25 + 0.5 * np.sin(np.pi * (x + y) / 2), grid)
        tend = _op2d(WeightScheme.m())(u).interior[0]

        def exact_tendency(x, y):
            uu = 0.25 + 0.5 * np.sin(np.pi * (x + y) / 2)
            ux = 0.25 * np.pi * np.cos(np.pi * (x + y) / 2)
            return -2.0 * uu * ux

        exact = cell_average_of(exact_tendency, grid).interior[0]
        errs.append(np.abs(tend - exact).max())
    assert np.log2(errs[0] / errs[1]) >= 4.0, errs


def test_2d_periodic_conservation_per_step():
    from fvweno.integrate import rk3_step

    rng = np.random.default_rng(4)
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, 16, 16)
    u = CellField.from_interior(grid, 0.5 + 0.1 * rng.normal(size=(16, 16)))
    op = _op2d(WeightScheme.zl(p=1, q=1))
    mass = u.interior[0].sum() * grid.dx * grid.dy
    for _ in range(5):
        u = rk3_step(u, op, 0.01)
        new_mass = u.interior[0].sum() * grid.dx * grid.dy
        assert abs(new_mass - mass) < 1e-10
        mass = new_mass


def test_2d_rejects_vector_fields():
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, 8, 8)
    u = CellField.zeros(grid, ncomp=3)
    with pytest.raises(ConfigurationError):
        _op2d(WeightScheme.z())(u)


def test_euler_mass_changes_only_through_boundary_fluxes():
    # interior mass tendency telescopes to the boundary fluxes
    from fvweno.harness.problems import get_problem

    prob = get_problem("sod")
    grid = prob.make_grid(200)
    u = prob.initial(grid)
    op = SemiDiscreteOp1D(EULER, WeightScheme.zl(p=5, q=1), prob.bc)
    tend, rec = op.tendency_recorded(u)
    total = tend.interior.sum(axis=1) * grid.dx
    boundary = -(rec.flux[:, -1] - rec.flux[:, 0])
    np.testing.assert_allclose(total, boundary, atol=1e-12 * np.abs(rec.flux).max())
