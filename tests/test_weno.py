"""Smoothness indicators, nonlinear weight families, reconstruction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvweno import weno
from fvweno.errors import ConfigurationError
from fvweno.mesh import Grid1D, cell_average_of
from fvweno.weno import (
    D_EDGE,
    WeightScheme,
    henrick_map,
    nonlinear_weights,
    reconstruct_gauss_point,
    reconstruct_interface,
    smoothness_indicators,
)

from oracle_utils import (
    ALL_SCHEMES,
    NODE_X,
    SIX_SCHEMES,
    oracle_big,
    oracle_indicators,
    oracle_substencil,
    oracle_weights,
    same_bits,
)

EPS = np.finfo(float).eps


# --- smoothness indicators ---------------------------------------------------

def test_smoothness_constant_window_is_exactly_zero():
    beta = smoothness_indicators([3.7] * 5)
    assert np.all(beta == 0.0)


def test_smoothness_single_jump_window():
    # window (u_L, u_L, u_L, u_L, u_R) with jump delta = 1 only excites the
    # rightmost substencil: (0, 0, 4/3)
    beta = smoothness_indicators([1.0, 1.0, 1.0, 1.0, 0.0])
    assert beta[0] == 0.0 and beta[1] == 0.0
    np.testing.assert_allclose(beta[2], 4.0 / 3.0, rtol=1e-15)


def test_smoothness_linear_data():
    np.testing.assert_allclose(smoothness_indicators([0, 1, 2, 3, 4]),
                               [1.0, 1.0, 1.0], rtol=1e-14)


# --- weight families ---------------------------------------------------------

@st.composite
def _padded_rows(draw):
    """A (..., N) array with 0-2 leading axes, N >= 5, at one of four
    scales, with jumps and flat runs."""
    lead = draw(st.lists(st.integers(1, 3), max_size=2))
    n = draw(st.integers(5, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.normal(size=tuple(lead) + (n,)) * draw(st.sampled_from([1e-8, 1.0, 1e3, 1e100]))
    u[..., draw(st.integers(0, n - 1)):] += draw(st.sampled_from([0.0, 1.0, -50.0]))
    flat = draw(st.integers(0, n))
    u[..., :flat] = u[..., :1]
    return u


@settings(deadline=None, derandomize=True, max_examples=60)
@given(u=_padded_rows())
def test_indicators_match_the_scalar_oracle_bit_for_bit(u):
    got = weno._indicators(u, weno.Workspace())
    assert got.shape == (3,) + u.shape[:-1] + (u.shape[-1] - 4,)
    for index in np.ndindex(u.shape[:-1]):
        for k in range(u.shape[-1] - 4):
            want = oracle_indicators(u[index][k:k + 5])
            assert tuple(got[(slice(None),) + index + (k,)]) == want, (index, k)


def test_js_equal_indicators_give_linear_weights():
    np.testing.assert_allclose(nonlinear_weights(np.zeros(3), WeightScheme.js(eps=1e-12)),
                               D_EDGE, rtol=1e-14)


def test_js_single_jump_window_weights():
    beta = np.array([0.0, 0.0, 4.0 / 3.0])
    om = nonlinear_weights(beta, WeightScheme.js(eps=1e-12))
    np.testing.assert_allclose(om[:2], [0.142857, 0.857143], atol=5e-7)
    np.testing.assert_allclose(om[2], 2.411e-25, rtol=1e-3)


def test_js_matches_exact_rational_evaluation():
    # second-stage center-window indicators at nu = 1/2, delta = 1
    beta = [Fraction(5, 6), Fraction(1, 4), Fraction(5, 6)]
    eps = Fraction(1, 10**12)
    d = [Fraction(1, 10), Fraction(3, 5), Fraction(3, 10)]
    alpha = [ds / (b + eps) ** 2 for ds, b in zip(d, beta)]
    expected = [float(a / sum(alpha)) for a in alpha]
    got = nonlinear_weights(np.array([5 / 6, 1 / 4, 5 / 6]), WeightScheme.js(eps=1e-12))
    np.testing.assert_allclose(got, expected, rtol=1e-13)


def test_henrick_map_fixed_points():
    for d in D_EDGE:
        assert henrick_map(d, d) == pytest.approx(d, abs=4 * EPS)
        assert henrick_map(0.0, d) == 0.0
        assert henrick_map(1.0, d) == pytest.approx(1.0, abs=4 * EPS)


def test_henrick_map_known_value():
    assert henrick_map(1 / 7, 0.1) == pytest.approx(143 / 1421, rel=1e-14)


def test_m_weights_zero_indicators():
    np.testing.assert_allclose(nonlinear_weights(np.zeros(3), WeightScheme.m()), D_EDGE,
                               atol=1e-15)


def test_m_weights_single_jump():
    om = nonlinear_weights(np.array([0.0, 0.0, 4.0 / 3.0]), WeightScheme.m())
    np.testing.assert_allclose(om[:2], [0.127255, 0.872745], atol=5e-7)
    np.testing.assert_allclose(om[2], 1.321e-80, rtol=1e-3)


def test_m_weights_downwind_jump_window():
    # (beta0 large, beta1/beta2 tiny): mapped weights drive omega0 to zero
    # and renormalize toward (0, 6164/9241, 3077/9241)
    om = nonlinear_weights(np.array([4.0 / 3.0, 0.0, 0.0]), WeightScheme.m())
    assert om[0] < 1e-75
    np.testing.assert_allclose(om[1], 6164 / 9241, atol=1e-6)
    np.testing.assert_allclose(om[2], 3077 / 9241, atol=1e-6)


def test_z_weights_equal_indicators():
    for c in (0.0, 0.37, 5.0):
        np.testing.assert_allclose(nonlinear_weights(np.full(3, c), WeightScheme.z()), D_EDGE,
                                   rtol=4 * EPS)


def test_z_weights_single_jump():
    om = nonlinear_weights(np.array([0.0, 0.0, 4.0 / 3.0]), WeightScheme.z())
    np.testing.assert_allclose(om[:2], [0.142857, 0.857143], atol=5e-7)
    np.testing.assert_allclose(om[2], 6.429e-41, rtol=1e-3)


def test_z_weights_exact_rational_evaluation():
    beta = [Fraction(1), Fraction(2), Fraction(5)]
    d = [Fraction(1, 10), Fraction(3, 5), Fraction(3, 10)]
    tau = abs(beta[0] - beta[2])
    eps = Fraction(1, 10**40)
    alpha = [ds * (1 + tau / (b + eps)) for ds, b in zip(d, beta)]
    expected = [float(a / sum(alpha)) for a in alpha]
    got = nonlinear_weights(np.array([1.0, 2.0, 5.0]), WeightScheme.z())
    np.testing.assert_allclose(got, expected, rtol=1e-13)


def test_zr_single_jump_p2():
    om = nonlinear_weights(np.array([0.0, 0.0, 4.0 / 3.0]), WeightScheme.zr(p=2))
    np.testing.assert_allclose(om[:2], [0.142857, 0.857143], atol=5e-7)
    np.testing.assert_allclose(om[2], 6.429e-81, rtol=1e-3)


def test_zr_p3_reproduces_comparison_table_tail():
    # the published single-step tables carry the cube-root variant
    om = nonlinear_weights(np.array([0.0, 0.0, 4.0 / 3.0]), WeightScheme.zr(p=3))
    np.testing.assert_allclose(om[2], 6.429e-121, rtol=1e-3)


def test_zr_p1_equals_z_on_random_triples():
    rng = np.random.default_rng(42)
    beta = rng.uniform(0.0, 10.0, size=(10_000, 3))
    np.testing.assert_allclose(nonlinear_weights(beta, WeightScheme.zr(p=1)),
                               nonlinear_weights(beta, WeightScheme.z()), atol=1e-12)


def test_zl_zero_indicators():
    np.testing.assert_allclose(nonlinear_weights(np.zeros(3), WeightScheme.zl(p=1, q=1)),
                               D_EDGE, rtol=4 * EPS)


def test_zl_jump_window_all_parameter_combos():
    # downwind-jump window (beta = (10/3, 4/3, 0), delta = 1)
    beta = np.array([10.0 / 3.0, 4.0 / 3.0, 0.0])
    expected = {
        (1, 1): (3.273e-41, 2.864e-40),
        (2, 1): (5.546e-41, 4.228e-40),
        (1, 2): (1.850e-81, 2.055e-80),
        (2, 2): (6.501e-81, 4.846e-80),
    }
    for (p, q), (w0, w1) in expected.items():
        om = nonlinear_weights(beta, WeightScheme.zl(p=p, q=q))
        np.testing.assert_allclose(om[0], w0, rtol=1e-3)
        np.testing.assert_allclose(om[1], w1, rtol=1e-3)
        np.testing.assert_allclose(om[2], 1.0, rtol=1e-14)


def test_zl_large_p_returns_linear_weights():
    rng = np.random.default_rng(3)
    beta = rng.uniform(0.1, 10.0, size=(2000, 3))
    for q in (1.0, 2.0):
        om = nonlinear_weights(beta, WeightScheme.zl(p=1e12, q=q))
        assert np.max(np.abs(om - D_EDGE)) < 1e-10


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
def test_weights_partition_of_unity_and_positivity(scheme):
    rng = np.random.default_rng(12345)
    beta = rng.uniform(0.0, 10.0, size=(100_000, 3))
    om = nonlinear_weights(beta, scheme)
    assert np.all(om >= 0.0)
    np.testing.assert_allclose(om.sum(axis=1), 1.0, atol=4 * EPS)


_INDICATOR = st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(0.0, 1e-6))


@pytest.mark.parametrize("scheme", SIX_SCHEMES, ids=lambda s: s.label)
@settings(deadline=None, derandomize=True, max_examples=50)
@given(triples=st.lists(st.tuples(_INDICATOR, _INDICATOR, _INDICATOR), min_size=1, max_size=8))
def test_weights_reflection_symmetry(scheme, triples):
    # reversing the substencils (the indicator triple and the linear
    # weights) reverses the weights bit for bit: the normalization sums
    # (alpha0 + alpha2) + alpha1
    beta = np.array(triples)
    for d in (D_EDGE, weno.D_GAUSS_MINUS, weno.D_GAUSS_PLUS, weno.GAMMA_PLUS,
              weno.GAMMA_MINUS):
        mirrored = nonlinear_weights(beta[:, ::-1], scheme, d=d[::-1])
        assert same_bits(mirrored, nonlinear_weights(beta, scheme, d=d)[:, ::-1]), d


# JS at two guards, M, Z, and ZR and ZL at several parameters, all clear
# of the overflow of large indicators.  ZL's tau, a difference of two
# logarithms, cancels when beta0 and beta2 are a few ulps apart; the
# bound holds for draws clear of that.
ORACLE_SCHEMES = (WeightScheme.js(eps=1e-6), WeightScheme.js(eps=1e-12), WeightScheme.m(),
                  WeightScheme.z(), *(WeightScheme.zr(p=p) for p in (1, 2, 3)),
                  *(WeightScheme.zl(p=p, q=q) for p, q in ((1, 1), (2, 2), (1 / 7, 2), (5, 1))))
# the edge pair and the four Gauss-node sets, as one stack
ORACLE_D = np.stack([D_EDGE, D_EDGE[::-1], weno.D_GAUSS_MINUS, weno.GAMMA_PLUS,
                     weno.D_GAUSS_PLUS, weno.GAMMA_MINUS])
_ORACLE_INDICATOR = st.one_of(st.just(0.0), st.floats(1e-10, 1e4))


@pytest.mark.parametrize("scheme", ORACLE_SCHEMES, ids=lambda s: f"{s.label},eps={s.eps:g}")
@settings(deadline=None, derandomize=True, max_examples=40)
@given(triples=st.lists(st.tuples(*[_ORACLE_INDICATOR] * 3), min_size=1, max_size=6))
def test_weights_match_the_decimal_oracle(scheme, triples):
    got = nonlinear_weights(np.array(triples), scheme, d=ORACLE_D)
    for k, beta in enumerate(triples):
        for j, d in enumerate(ORACLE_D):
            want = np.array(oracle_weights(beta, d, scheme), dtype=float)
            assert np.max(np.abs(got[k, j] - want)) <= 2.0 ** -46, (beta, d)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
def test_jump_window_argmax_survives_data_scaling(scheme):
    # doubling a jump-dominated window must not change which weight wins
    rng = np.random.default_rng(99)
    for _ in range(300):
        w = 0.02 * rng.normal(size=5)
        w[rng.integers(1, 5):] += rng.uniform(1.0, 5.0)
        om1 = nonlinear_weights(smoothness_indicators(w), scheme)
        om2 = nonlinear_weights(smoothness_indicators(2.0 * w), scheme)
        assert om1.argmax() == om2.argmax()


def _max_weight_deviation(n, scheme, fn=np.sin):
    """max_s |omega_s - d_s| over cells away from critical points."""
    dx = 2.0 / n
    centers = np.arange(-n // 2, n // 2 + 1) * dx
    edges_l = centers - dx / 2
    edges_r = centers + dx / 2
    avg = (np.cos(np.pi * edges_l) - np.cos(np.pi * edges_r)) / (np.pi * dx)
    W = np.lib.stride_tricks.sliding_window_view(avg, 5)
    beta = smoothness_indicators(W)
    om = nonlinear_weights(beta, scheme)
    mask = np.abs(np.cos(np.pi * centers[2:-2])) > 0.3
    return np.max(np.abs(om - D_EDGE)[mask])


@pytest.mark.parametrize(
    "scheme,min_order",
    [
        (WeightScheme.js(), 1.9),
        (WeightScheme.z(), 1.9),
        (WeightScheme.zr(p=2), 1.9),
        (WeightScheme.zl(p=2, q=2), 1.9),
        (WeightScheme.m(), 2.9),
    ],
    ids=lambda v: v.label if isinstance(v, WeightScheme) else str(v),
)
def test_smooth_data_weight_deviation_order(scheme, min_order):
    devs = [_max_weight_deviation(n, scheme) for n in (40, 80, 160)]
    orders = np.log2(np.array(devs[:-1]) / np.array(devs[1:]))
    assert np.all(orders >= min_order), (devs, orders)


def test_zl_q2_critical_point_deviation_order():
    # v = sin(pi x) + sin(2 pi x)/2 has a first-order critical point at
    # x = 1/3 with no local symmetry; sample grids with a cell centered there
    scheme = WeightScheme.zl(p=2, q=2)

    def antideriv(x):
        return -np.cos(np.pi * x) / np.pi - np.cos(2 * np.pi * x) / (4 * np.pi)

    devs = []
    for n in (40, 80, 160):
        dx = 2.0 / n
        centers = 1.0 / 3.0 + np.arange(-6, 7) * dx
        avg = (antideriv(centers + dx / 2) - antideriv(centers - dx / 2)) / dx
        beta = smoothness_indicators(
            np.lib.stride_tricks.sliding_window_view(avg, 5))
        om = nonlinear_weights(beta, scheme)
        mid = om.shape[0] // 2  # window centered at the critical point
        devs.append(np.max(np.abs(om[mid] - D_EDGE)))
    orders = np.log2(np.array(devs[:-1]) / np.array(devs[1:]))
    assert np.all(orders >= 1.9), (devs, orders)


# --- reconstruction ----------------------------------------------------------

@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
def test_interface_consistency_constant_data(scheme):
    assert reconstruct_interface([2.5] * 5, scheme) == pytest.approx(2.5, abs=8 * EPS)


@pytest.mark.parametrize("scheme", ALL_SCHEMES + [WeightScheme.linear()],
                         ids=lambda s: s.label)
def test_interface_states_weights_equal_per_window_weights(scheme):
    # the array kernel evaluates one weight factor for both orientations; the
    # weights it records must be exactly those of each window and its mirror
    rng = np.random.default_rng(17)
    upad = rng.normal(size=(3, 40))
    upad[:, 5:12] = 0.7                                   # flat: zero indicators
    upad[:, 24:] += rng.uniform(1.0, 5.0, size=(3, 1))    # one jump per row
    _, _, (om_minus, om_plus) = weno.interface_states(upad, scheme, record=True)
    beta = smoothness_indicators(np.lib.stride_tricks.sliding_window_view(upad, 5, axis=-1))
    np.testing.assert_array_equal(om_minus, nonlinear_weights(beta, scheme)[:, :-1])
    np.testing.assert_array_equal(om_plus,
                                  nonlinear_weights(beta[..., ::-1], scheme)[:, 1:])


@pytest.mark.parametrize("scheme", ALL_SCHEMES + [WeightScheme.linear()],
                         ids=lambda s: s.label)
def test_gauss_point_values_equal_per_node_reconstructions(scheme):
    # the kernel evaluates the weights of all three nodes once per window;
    # each node must still be its own weights applied to its own candidates
    rng = np.random.default_rng(23)
    ubar = rng.normal(size=(3, 40))
    ubar[:, 5:12] = 0.7                                   # flat: zero indicators
    ubar[:, 24:] += rng.uniform(1.0, 5.0, size=(3, 1))    # one jump per row
    vals = weno.gauss_point_values(ubar, scheme)
    W = np.lib.stride_tricks.sliding_window_view(ubar, 5, axis=-1)
    beta = smoothness_indicators(W)
    # the kernel's layout: triples on axis 0, node sets on axis 1
    center = np.moveaxis(weno._gauss_weights(np.moveaxis(beta, -1, 0), scheme)[:, 1],
                         0, -1)
    if scheme.family == "linear":
        split = np.broadcast_to(weno.D_GAUSS_CENTER, beta.shape)
    else:
        split = (weno.SIGMA_PLUS * nonlinear_weights(beta, scheme, d=weno.GAMMA_PLUS)
                 - weno.SIGMA_MINUS * nonlinear_weights(beta, scheme, d=weno.GAMMA_MINUS))
    np.testing.assert_array_equal(center, split)
    nodes = (
        (nonlinear_weights(beta, scheme, d=weno.D_GAUSS_MINUS), weno.CAND_GAUSS_MINUS),
        (center, weno.CAND_GAUSS_CENTER),
        (nonlinear_weights(beta, scheme, d=weno.D_GAUSS_PLUS), weno.CAND_GAUSS_PLUS),
    )
    assert vals.shape == W.shape[:-1] + (3,)
    for k, (omega, table) in enumerate(nodes):
        expected = (omega * (W @ table.T)).sum(axis=-1)
        # relative to the size of the summed terms: the center weights have
        # mixed signs, and so may the candidates
        scale = (np.abs(omega) * (np.abs(W) @ np.abs(table).T)).sum(axis=-1)
        assert np.all(np.abs(vals[..., k] - expected) <= 4 * EPS * scale), k


def test_interface_linear_weights_equal_big_stencil():
    rng = np.random.default_rng(7)
    scheme = WeightScheme.linear()
    for _ in range(10_000):
        w = rng.normal(size=5)
        v = reconstruct_interface(w, scheme)
        b = w @ weno.BIG_EDGE
        assert abs(v - b) <= 4 * EPS * max(1.0, abs(b))


def test_interface_linear_data():
    assert reconstruct_interface([1, 2, 3, 4, 5], WeightScheme.linear()) == \
        pytest.approx(3.5, rel=1e-15)


def test_interface_near_jump_rounds_to_upstream_value():
    # (1,1,1,1,0) with JS: value = 1 + omega2/6, omega2 ~ 2.4e-25, which is
    # 1.0 to double precision
    v = reconstruct_interface([1.0, 1.0, 1.0, 1.0, 0.0], WeightScheme.js(eps=1e-12))
    assert abs(v - 1.0) <= 2 * EPS


@pytest.mark.parametrize("node", ["minus", "center", "plus"])
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
def test_gauss_point_constant_data(node, scheme):
    v = reconstruct_gauss_point([1.7] * 5, scheme, node)
    assert v == pytest.approx(1.7, abs=16 * EPS)


def test_gauss_center_linear_data_exact():
    v = reconstruct_gauss_point([0, 1, 2, 3, 4], WeightScheme.linear(), "center")
    assert v == pytest.approx(2.0, abs=16 * EPS)


def test_gauss_plus_quadratic_exact():
    # cell averages of x^2 on unit cells: xbar_j = j^2 + 1/12; the plus-node
    # value of the center cell (j=0) is (xi/2)^2 with xi = sqrt(3/5)
    avg = np.array([j * j + 1.0 / 12.0 for j in (-2, -1, 0, 1, 2)])
    v = reconstruct_gauss_point(avg, WeightScheme.linear(), "plus")
    assert v == pytest.approx(0.15, rel=1e-13)  # (sqrt(3/5)/2)^2 = 3/20


def test_candidate_tables_match_primitive_oracle():
    rng = np.random.default_rng(2024)
    tables = {
        "edge": weno.CAND_EDGE,
        "minus": weno.CAND_GAUSS_MINUS,
        "center": weno.CAND_GAUSS_CENTER,
        "plus": weno.CAND_GAUSS_PLUS,
    }
    bigs = {
        "edge": weno.BIG_EDGE,
        "minus": weno.BIG_GAUSS_MINUS,
        "center": weno.BIG_GAUSS_CENTER,
        "plus": weno.BIG_GAUSS_PLUS,
    }
    for _ in range(100):
        w = rng.normal(size=5)
        for node, x in NODE_X.items():
            cand = tables[node] @ w
            for s in range(3):
                assert abs(cand[s] - oracle_substencil(w, s, x)) < 1e-12
            assert abs(bigs[node] @ w - oracle_big(w, x)) < 1e-12


def test_gauss_linear_weight_identities_exact_rational():
    # the split recombines to the center linear weights exactly, and every
    # node's linear weights push the candidates onto the quartic value
    for s in range(3):
        assert (weno.SIGMA_PLUS_EXACT * weno.GAMMA_PLUS_EXACT[s]
                - weno.SIGMA_MINUS_EXACT * weno.GAMMA_MINUS_EXACT[s]) == \
            weno.D_GAUSS_CENTER_EXACT[s][0]
        assert weno.D_GAUSS_CENTER_EXACT[s][1] == 0

    def combine(cands_exact, d_exact):
        # sum_s d_s * cand_s in (rational, rational*sqrt15) arithmetic
        out = [(Fraction(0), Fraction(0))] * 5
        for s in range(3):
            da, db = d_exact[s] if isinstance(d_exact[s], tuple) else (d_exact[s], Fraction(0))
            for j, (ca, cb) in enumerate(cands_exact[s]):
                oa, ob = out[j]
                # (da + db r)(ca + cb r) with r^2 = 15
                out[j] = (oa + da * ca + 15 * db * cb, ob + da * cb + db * ca)
        return out

    cases = [
        (weno.CAND_EDGE_EXACT, weno.D_EDGE_EXACT, weno.BIG_EDGE_EXACT[0]),
        (weno.CAND_GAUSS_MINUS_EXACT, weno.D_GAUSS_MINUS_EXACT, weno.BIG_GAUSS_MINUS_EXACT[0]),
        (weno.CAND_GAUSS_CENTER_EXACT, weno.D_GAUSS_CENTER_EXACT, weno.BIG_GAUSS_CENTER_EXACT[0]),
        (weno.CAND_GAUSS_PLUS_EXACT, weno.D_GAUSS_PLUS_EXACT, weno.BIG_GAUSS_PLUS_EXACT[0]),
    ]
    for cands, d, big in cases:
        assert combine(cands, d) == list(big)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
def test_gauss_center_split_weights_sum_to_one(scheme):
    rng = np.random.default_rng(11)
    beta = rng.uniform(0.0, 10.0, size=(20_000, 3))
    om = weno._gauss_weights(beta.T, scheme)[:, 1].T
    np.testing.assert_allclose(om.sum(axis=1), 1.0, atol=4 * EPS)


def test_scheme_validation():
    with pytest.raises(ConfigurationError):
        WeightScheme("nope")
    with pytest.raises(ConfigurationError):
        WeightScheme.zr(p=0.5)
    with pytest.raises(ConfigurationError):
        WeightScheme.zl(p=-1.0)
    with pytest.raises(ConfigurationError):
        WeightScheme.zl(p=1.0, q=0.5)
    with pytest.raises(ConfigurationError):
        WeightScheme.js(eps=0.0)


@pytest.mark.parametrize("family, label", [
    ("js", "JS"), ("m", "M"), ("z", "Z"), ("zr", "ZR(p=2)"), ("zl", "ZL(p=1,q=1)"),
    ("linear", "Linear")])
def test_family_name_takes_the_family_defaults(family, label):
    scheme = WeightScheme(family)
    assert scheme == getattr(WeightScheme, family)()
    assert scheme.label == label
    assert scheme.eps == (1e-6 if family == "js" else 1e-40)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("param", ["eps", "p", "q"])
@pytest.mark.parametrize("family", ["js", "m", "z", "zr", "zl", "linear"])
def test_scheme_rejects_non_finite_parameters(family, param, value):
    with pytest.raises(ConfigurationError):
        WeightScheme(family, **{param: value})


def test_smooth_interface_reconstruction_is_fifth_order():
    errs = []
    for n in (20, 40):
        grid = Grid1D(-1.0, 1.0, n)
        avg = cell_average_of(lambda x: np.sin(np.pi * x), grid).interior[0]
        padded = np.concatenate([avg[-3:], avg, avg[:3]])
        W = np.lib.stride_tricks.sliding_window_view(padded, 5)
        sch = WeightScheme.z()
        vals = np.array([reconstruct_interface(w, sch) for w in W])
        # window k is centered at padded cell k+2 whose right edge is a + k*dx
        xs = grid.a + np.arange(len(vals)) * grid.dx
        errs.append(np.max(np.abs(vals - np.sin(np.pi * xs))))
    assert np.log2(errs[0] / errs[1]) > 4.5


def test_zr_zero_indicators_give_linear_weights():
    np.testing.assert_allclose(nonlinear_weights(np.zeros(3), WeightScheme.zr(p=2)), D_EDGE,
                               rtol=4 * EPS)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
def test_gauss_edge_node_weights_positive_and_normalized(scheme):
    rng = np.random.default_rng(21)
    beta = rng.uniform(0.0, 10.0, size=(20_000, 3))
    for d in (weno.D_GAUSS_MINUS, weno.D_GAUSS_PLUS):
        om = nonlinear_weights(beta, scheme, d=d)
        assert np.all(om >= 0.0)
        np.testing.assert_allclose(om.sum(axis=1), 1.0, atol=4 * EPS)


# --- memory layout of the kernel inputs ---------------------------------------


@pytest.mark.parametrize("scheme", SIX_SCHEMES, ids=lambda s: s.label)
def test_kernels_ignore_the_memory_layout_of_their_input(scheme):
    rng = np.random.default_rng(31)
    a = rng.uniform(-1.0, 1.0, (28, 19))
    a[8:18, 6:] = 0.25                     # flat block with jumps
    view = a[::2].T                        # (19, 14), neither C- nor F-ordered
    copy = np.ascontiguousarray(view)
    assert not (view.flags.c_contiguous or view.flags.f_contiguous)

    def states(u):
        u_minus, u_plus, omegas = weno.interface_states(u, scheme, record=True)
        return (u_minus, u_plus, *omegas)

    for got, want in zip(states(view), states(copy)):
        assert same_bits(got, want)
    assert same_bits(weno.gauss_point_values(view, scheme),
                     weno.gauss_point_values(copy, scheme))
    # the one-window entry points take a stack of windows the same way
    windows = view[:, 3:8]
    for side in ("left", "right"):
        assert same_bits(weno.reconstruct_interface(windows, scheme, side),
                         weno.reconstruct_interface(windows.copy(), scheme, side))
    assert same_bits(weno.reconstruct_gauss_point(windows, scheme, "plus"),
                     weno.reconstruct_gauss_point(windows.copy(), scheme, "plus"))
