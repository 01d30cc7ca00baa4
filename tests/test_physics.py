"""Flux models, Lax-Friedrichs flux, wave speeds, exact Euler Riemann fans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvweno.errors import StateError
from fvweno.mesh import CellField, Grid1D, Grid2D
from fvweno.physics import (
    ADVECTION,
    BUCKLEY_LEVERETT,
    BURGERS,
    EULER,
    GAMMA,
    QUARTIC_NONCONVEX,
    EulerModel,
    FluxPair2D,
    exact_riemann,
    lf_flux,
    max_wave_speed,
)
from fvweno.workspace import Workspace

from oracle_utils import same_bits

MODELS = [ADVECTION, BURGERS, QUARTIC_NONCONVEX, BUCKLEY_LEVERETT]


def test_flux_catalog_values():
    u = np.array([-1.0, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(ADVECTION.flux(u), u)
    np.testing.assert_allclose(BURGERS.flux(u), 0.5 * u * u)
    np.testing.assert_allclose(QUARTIC_NONCONVEX.flux(u),
                               0.25 * (u * u - 1) * (u * u - 4))
    np.testing.assert_allclose(BUCKLEY_LEVERETT.flux(u),
                               4 * u**2 / (4 * u**2 + (1 - u) ** 2))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_lf_flux_consistency(model):
    rng = np.random.default_rng(5)
    u = rng.uniform(-1.0, 1.0, size=1000)
    alpha = model.speed_bound(np.array([-1.0, 1.0]))
    np.testing.assert_allclose(lf_flux(u, u, model.flux, alpha), model.flux(u),
                               rtol=1e-14, atol=1e-14)


def test_lf_flux_advection_is_pure_upwinding():
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(2, 100))
    np.testing.assert_allclose(lf_flux(a, b, ADVECTION.flux, 1.0), a,
                               rtol=1e-14, atol=1e-15)


def test_lf_flux_burgers_value():
    assert lf_flux(1.0, 0.0, BURGERS.flux, 1.0) == pytest.approx(0.75)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_lf_flux_monotone(model):
    # nondecreasing in the left state, nonincreasing in the right one, when
    # alpha bounds |f'| over the straddled range
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(200):
        a, b = rng.uniform(-1.0, 1.0, size=2)
        alpha = model.speed_bound(np.array([min(a, b) - h, max(a, b) + h]))
        da = (lf_flux(a + h, b, model.flux, alpha)
              - lf_flux(a - h, b, model.flux, alpha))
        db = (lf_flux(a, b + h, model.flux, alpha)
              - lf_flux(a, b - h, model.flux, alpha))
        assert da >= -1e-12
        assert db <= 1e-12


def test_quartic_speed_bound_uses_critical_points():
    # |f'| = |u^3 - 2.5 u| peaks at the endpoints or u = +-sqrt(5/6)
    assert QUARTIC_NONCONVEX.speed_bound(np.array([-2.0, 2.0])) == pytest.approx(3.0)
    inner = QUARTIC_NONCONVEX.speed_bound(np.array([-0.95, 0.95]))
    u = np.linspace(-0.95, 0.95, 200001)
    assert inner == pytest.approx(np.max(np.abs(QUARTIC_NONCONVEX.dflux(u))),
                                  rel=1e-9)


def _grid_max_speed(model, lo, hi):
    return np.max(np.abs(model.dflux(np.linspace(lo, hi, 200001))))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_speed_bound_is_an_upper_bound(model):
    # LF monotonicity needs alpha >= max |f'| over the data range
    rng = np.random.default_rng(11)
    for _ in range(50):
        lo, hi = np.sort(rng.uniform(-2.0, 2.0, size=2))
        bound = model.speed_bound(np.array([lo, hi]))
        assert bound >= _grid_max_speed(model, lo, hi)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.5, 1.5)])
def test_buckley_leverett_bound_covers_interior_peaks(lo, hi):
    # f' peaks at roots of 10u^3 - 15u^2 + 1, between grid samples
    bound = BUCKLEY_LEVERETT.speed_bound(np.array([lo, hi]))
    assert bound >= _grid_max_speed(BUCKLEY_LEVERETT, lo, hi)


def test_euler_flux_rest_state():
    U = EULER.conserved(1.0, 0.0, 1.0)
    assert U[2] == pytest.approx(2.5)
    np.testing.assert_allclose(EULER.flux(U), [0.0, 1.0, 0.0], atol=1e-15)


def test_euler_flux_sod_states():
    left = EULER.conserved(1.0, 0.0, 1.0)
    right = EULER.conserved(0.125, 0.0, 0.1)
    np.testing.assert_allclose(EULER.flux(left), [0, 1.0, 0], atol=1e-15)
    np.testing.assert_allclose(EULER.flux(right), [0, 0.1, 0], atol=1e-15)


def test_euler_round_trip():
    rng = np.random.default_rng(8)
    rho = rng.uniform(0.1, 3.0, size=1000)
    u = rng.uniform(-2.0, 2.0, size=1000)
    P = rng.uniform(0.05, 5.0, size=1000)
    r2, u2, P2 = EULER.primitive(EULER.conserved(rho, u, P))
    eps = np.finfo(float).eps
    np.testing.assert_allclose(r2, rho, rtol=4 * eps)
    np.testing.assert_allclose(u2, u, rtol=4 * eps, atol=4 * eps)
    np.testing.assert_allclose(P2, P, rtol=32 * eps)


def _field(values, ncomp=1):
    values = np.atleast_2d(values)
    grid = Grid1D(0.0, float(values.shape[1]), values.shape[1])
    return CellField.from_interior(grid, values)


def test_max_wave_speed_scalar_models():
    assert max_wave_speed(_field(np.array([0.3, -0.2])), ADVECTION) == 1.0
    f = _field(np.array([-1.0, 0.75, 0.1]))
    assert max_wave_speed(f, BURGERS) == pytest.approx(1.0)


def test_max_wave_speed_flux_pair_2d():
    u = np.array([[[0.5, -1.5], [0.25, 1.0]]])
    field = CellField.from_interior(Grid2D(0.0, 1.0, 0.0, 1.0, 2, 2), u)
    assert max_wave_speed(field, FluxPair2D(BURGERS, ADVECTION)) == (1.5, 1.0)


def test_max_wave_speed_sod_initial():
    U = np.stack([EULER.conserved(1.0, 0.0, 1.0),
                  EULER.conserved(0.125, 0.0, 0.1)], axis=1)
    assert max_wave_speed(_field(U), EULER) == pytest.approx(np.sqrt(1.4))


def test_euler_validate_checks_density_then_pressure():
    U = EULER.conserved(np.array([1.0, 0.5]), np.array([0.3, -0.2]),
                        np.array([1.0, 0.1]))
    for got, want in zip(EULER.validate(U), EULER.primitive(U)):
        np.testing.assert_array_equal(got, want)
    both_bad = np.array([[1.0, -0.1], [0.0, 0.0], [1.0, -1.0]])
    with pytest.raises(StateError, match="nonpositive density"):
        EULER.validate(both_bad)
    with pytest.raises(StateError, match="nonpositive pressure"):
        EULER.validate(np.array([[1.0, 1.0], [0.0, 0.0], [1.0, -1.0]]))


def test_max_wave_speed_rejects_negative_pressure():
    U = np.stack([EULER.conserved(1.0, 0.0, 1.0),
                  np.array([1.0, 0.0, -1.0])], axis=1)
    with pytest.raises(StateError):
        max_wave_speed(_field(U), EULER)


# The model layer writes into reused buffers; these formulas allocate, in
# the plain numpy expressions of the models.
def _euler_flux(U):
    _, u, P = EULER.primitive(U)
    return np.stack([U[1], U[1] * u + P, u * (U[2] + P)])


def _euler_speed(U):
    rho, u, P = EULER.primitive(U)
    return float(np.max(np.abs(u) + np.sqrt(GAMMA * P / rho)))


def _burgers_flux(u):
    return 0.5 * np.square(u)


def _burgers_speed(u):
    return float(np.abs(u).max())


@st.composite
def _euler_pair(draw):
    """Two (3, n) conserved states of positive density and pressure, with
    up to two jumps, at one of three scales."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-2, 1.0, 1e2]))
    pair = []
    for _ in range(2):
        rho = rng.uniform(0.01, 10.0, n) * scale
        u = rng.uniform(-10.0, 10.0, n)
        P = rng.uniform(0.01, 10.0, n) * scale
        for cut in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            P[cut:] *= draw(st.sampled_from([0.1, 10.0]))
        pair.append(EULER.conserved(rho, u, P))
    return pair


@st.composite
def _scalar_pair(draw):
    """Two arrays of one shape at one of three scales, with signed zeros."""
    shape = draw(st.sampled_from([(1,), (17,), (1, 21), (2, 5, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = [rng.normal(size=shape) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
            for _ in range(2)]
    pair[1].flat[0] = -0.0
    return pair


_MODEL_CASES = {
    "euler": (EULER, _euler_flux, _euler_speed, _euler_pair()),
    "burgers": (BURGERS, _burgers_flux, _burgers_speed, _scalar_pair()),
}


@pytest.mark.parametrize("case", list(_MODEL_CASES))
@settings(deadline=None, derandomize=True, max_examples=30)
@given(data=st.data())
def test_in_place_flux_and_bound_match_the_allocating_formulas(case, data):
    model, flux, speed, pairs = _MODEL_CASES[case]
    a, b = data.draw(pairs)
    for x in (a, b):
        assert same_bits(model.flux(x), flux(x))
        assert model.speed_bound(x) == speed(x)
    # one reused buffer fed the two inputs alternately
    out, scratch = np.empty_like(a), np.empty_like(a)
    for k in range(4):
        x = (a, b)[k % 2]
        got = model.flux(x, out)
        assert got is out and same_bits(got, flux(x))
        assert model.speed_bound(x, scratch) == speed(x)
    alpha = speed(np.concatenate((a, b), axis=-1))
    want = 0.5 * (flux(a) + flux(b) - alpha * (b - a))
    w = Workspace()
    for k in range(3):
        assert same_bits(lf_flux(a, b, model.flux, alpha, out=w), want)
        assert same_bits(lf_flux(b, a, model.flux, alpha, out=w),
                         0.5 * (flux(b) + flux(a) - alpha * (a - b)))
    assert same_bits(lf_flux(a, b, model.flux, alpha), want)


_BAD_STATES = [
    # density 1 and -0.1; density is checked before pressure
    (np.array([[1.0, -0.1], [0.0, 0.0], [1.0, -1.0]]), "nonpositive density (min -1.000e-01)"),
    # pressure 0.4 * 1 and 0.4 * -1
    (np.array([[1.0, 1.0], [0.0, 0.0], [1.0, -1.0]]), "nonpositive pressure (min -4.000e-01)"),
    (np.array([[1.0, np.nan], [0.0, 0.0], [1.0, 1.0]]), "nonpositive density (min nan)"),
    (np.array([[1.0, 1.0], [0.0, 0.0], [1.0, np.nan]]), "nonpositive pressure (min nan)"),
]


@pytest.mark.parametrize("U, message", _BAD_STATES, ids=("density", "pressure",
                                                         "nan-density", "nan-pressure"))
def test_inadmissible_states_raise_with_the_failing_minimum(U, message):
    field = _field(U)
    calls = [lambda: EULER.validate(U), lambda: EULER.speed_bound(U),
             lambda: EULER.speed_bound(U, np.empty_like(U)),
             lambda: max_wave_speed(field, EULER),
             lambda: max_wave_speed(field, EULER, out=Workspace())]
    for call in calls:
        with pytest.raises(StateError) as info:
            call()
        assert str(info.value) == message


def test_speed_bound_validates_through_the_class_attribute(monkeypatch):
    # a tracer that wraps EulerModel.validate counts every bound
    calls = []
    validate = EulerModel.validate

    def counted(self, U, out=None):
        calls.append(U.shape)
        return validate(self, U, out)

    monkeypatch.setattr(EulerModel, "validate", counted)
    U = EULER.conserved(np.array([1.0, 0.5]), np.array([0.3, -0.2]), np.array([1.0, 0.1]))
    max_wave_speed(_field(U), EULER, out=Workspace())
    EULER.speed_bound(U)
    assert calls == [(3, 2), (3, 2)]


def test_exact_riemann_sod_star_state():
    fan = exact_riemann((1.0, 0.0, 1.0), (0.125, 0.0, 0.1))
    assert fan.p_star == pytest.approx(0.30313, abs=2e-5)
    assert fan.u_star == pytest.approx(0.92745, abs=2e-5)
    assert fan.rho_star_left == pytest.approx(0.42632, abs=2e-5)
    assert fan.rho_star_right == pytest.approx(0.26557, abs=2e-5)
    lo, hi = fan.density_range()
    assert (lo, hi) == (0.125, 1.0)


def test_exact_riemann_sample_limits():
    fan = exact_riemann((1.0, 0.0, 1.0), (0.125, 0.0, 0.1))
    rho, u, P = fan.sample(np.array([-10.0, 10.0]))
    np.testing.assert_allclose([rho[0], u[0], P[0]], [1.0, 0.0, 1.0])
    np.testing.assert_allclose([rho[1], u[1], P[1]], [0.125, 0.0, 0.1])


def test_exact_riemann_symmetric_double_rarefaction():
    fan = exact_riemann((1.0, -0.5, 1.0), (1.0, 0.5, 1.0))
    assert fan.u_star == pytest.approx(0.0, abs=1e-12)
    assert fan.p_star < 1.0


def _mirror(state):
    rho, u, P = state
    return rho, -u, P


@pytest.mark.parametrize("left, right", [
    ((1.0, 0.0, 1.0), (0.125, 0.0, 0.1)),                          # Sod
    ((0.445, 0.698, 3.528), (0.5, 0.0, 0.571)),                    # Lax
    ((1.0, -2.0, 0.4), (1.0, 2.0, 0.4)),                           # 123
    ((5.99924, 19.5975, 460.894), (5.99242, -6.19633, 46.0950)),   # two shocks
], ids=["sod", "lax", "123", "two-shock"])
def test_exact_riemann_mirror_symmetry(left, right):
    # x -> -x swaps the sides and flips u; the contact itself, where the fan
    # takes the left limit, is left out
    fan = exact_riemann(left, right)
    xi = np.linspace(-30.0, 30.0, 6001)
    xi = xi[xi != fan.u_star]
    rho, u, P = fan.sample(xi)
    rho_m, u_m, P_m = exact_riemann(_mirror(right), _mirror(left)).sample(-xi)
    np.testing.assert_array_equal(rho_m, rho)
    np.testing.assert_array_equal(u_m, -u)
    np.testing.assert_array_equal(P_m, P)
