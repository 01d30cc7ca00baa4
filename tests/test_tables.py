"""The exact coefficient tables of ``fvweno.weno``, from first principles.

Every check here is exact: numbers a + b sqrt(15) with rational a and b are
kept as pairs (a, b) of ``Fraction`` and multiplied as such.  The cells of a
window have unit width and centres -2..2, so the centre cell is [-1/2, 1/2],
its right edge is x = 1/2 and its Gauss nodes are x = -sqrt(15)/10, 0 and
sqrt(15)/10 (xi dx/2 with xi = sqrt(3/5)).  A row of a candidate (quadratic)
or big (quartic) table maps the cell averages of the window to the value of
the reconstruction at its point, so it must reproduce the monomials up to
its degree exactly.  Only the rendered floats are compared within a bound:
2 ulp of their exact values, with sqrt(15) taken to 60 digits.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest

from fvweno import weno

ZERO = (F(0), F(0))
EDGE, MINUS, CENTER, PLUS = (F(1, 2), F(0)), (F(0), F(-1, 10)), ZERO, (F(0), F(1, 10))

# point: (candidate table, big table, linear weights), exact and rendered
POINTS = {
    "edge": (EDGE, (weno.CAND_EDGE_EXACT, weno.BIG_EDGE_EXACT[0], weno.D_EDGE_EXACT),
             (weno.CAND_EDGE, weno.BIG_EDGE, weno.D_EDGE)),
    "gauss-minus": (MINUS, (weno.CAND_GAUSS_MINUS_EXACT, weno.BIG_GAUSS_MINUS_EXACT[0],
                            weno.D_GAUSS_MINUS_EXACT),
                    (weno.CAND_GAUSS_MINUS, weno.BIG_GAUSS_MINUS, weno.D_GAUSS_MINUS)),
    "gauss-center": (CENTER, (weno.CAND_GAUSS_CENTER_EXACT, weno.BIG_GAUSS_CENTER_EXACT[0],
                              weno.D_GAUSS_CENTER_EXACT),
                     (weno.CAND_GAUSS_CENTER, weno.BIG_GAUSS_CENTER, weno.D_GAUSS_CENTER)),
    "gauss-plus": (PLUS, (weno.CAND_GAUSS_PLUS_EXACT, weno.BIG_GAUSS_PLUS_EXACT[0],
                          weno.D_GAUSS_PLUS_EXACT),
                   (weno.CAND_GAUSS_PLUS, weno.BIG_GAUSS_PLUS, weno.D_GAUSS_PLUS)),
}


def _pair(c):
    """A table entry (a ``Coeff`` or a bare rational) as a pair (a, b)."""
    return (F(c[0]), F(c[1])) if isinstance(c, tuple) else (F(c), F(0))


def _add(p, q):
    return p[0] + q[0], p[1] + q[1]


def _mul(p, q):
    return p[0] * q[0] + 15 * p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _power(p, k):
    out = (F(1), F(0))
    for _ in range(k):
        out = _mul(out, p)
    return out


def _average(j, k):
    """Average of x^k over the unit cell centred at j, as a pair."""
    hi, lo = F(2 * j + 1, 2), F(2 * j - 1, 2)
    return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1), F(0)


def _apply(row, k):
    """The value a row of five coefficients gives for the averages of x^k."""
    total = ZERO
    for j, c in zip(range(-2, 3), row, strict=True):
        total = _add(total, _mul(_pair(c), _average(j, k)))
    return total


@pytest.mark.parametrize("point", POINTS)
def test_each_candidate_is_exact_for_quadratics_on_its_substencil(point):
    x, (cand, _, _), _ = POINTS[point]
    for s, row in enumerate(cand):
        assert all(_pair(c) == ZERO for j, c in enumerate(row) if not s <= j <= s + 2)
        for k in range(3):
            assert _apply(row, k) == _power(x, k), (point, s, k)


@pytest.mark.parametrize("point", POINTS)
def test_the_big_row_is_exact_for_quartics(point):
    x, (_, big, _), _ = POINTS[point]
    for k in range(5):
        assert _apply(big, k) == _power(x, k), (point, k)


@pytest.mark.parametrize("point", POINTS)
def test_the_linear_weights_combine_the_candidates_into_the_big_row(point):
    _, (cand, big, d), _ = POINTS[point]
    for j in range(5):
        combined = ZERO
        for s in range(3):
            combined = _add(combined, _mul(_pair(d[s]), _pair(cand[s][j])))
        assert combined == _pair(big[j]), (point, j)


def test_the_split_of_the_center_weights_is_exact():
    for gamma in (weno.GAMMA_PLUS_EXACT, weno.GAMMA_MINUS_EXACT):
        assert sum(gamma) == 1
        assert all(g > 0 for g in gamma)
    for s in range(3):
        split = (weno.SIGMA_PLUS_EXACT * weno.GAMMA_PLUS_EXACT[s]
                 - weno.SIGMA_MINUS_EXACT * weno.GAMMA_MINUS_EXACT[s])
        assert (split, F(0)) == _pair(weno.D_GAUSS_CENTER_EXACT[s])


def _rendered_pairs():
    """(name, rendered float, exact pair) of every entry of every table."""
    tables = [table for _, exact, rendered in POINTS.values()
              for table in zip(rendered, exact)]
    tables += [(weno.GAMMA_PLUS, weno.GAMMA_PLUS_EXACT), (weno.GAMMA_MINUS, weno.GAMMA_MINUS_EXACT),
               (weno.SIGMA_PLUS, weno.SIGMA_PLUS_EXACT), (weno.SIGMA_MINUS, weno.SIGMA_MINUS_EXACT)]
    for rendered, exact in tables:
        rendered = np.asarray(rendered)
        for index in np.ndindex(rendered.shape):
            entry = exact
            for i in index:
                entry = entry[i]
            yield float(rendered[index]), _pair(entry)


def test_every_rendered_float_is_within_two_ulp_of_its_exact_value():
    # the rational entries are the nearest double; an entry with a sqrt(15)
    # term is rendered as float(a) + float(b) * sqrt(15), within 1.5 ulp here
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 60
        root = Decimal(15).sqrt()
        for value, (a, b) in _rendered_pairs():
            if b == 0:
                assert value == float(a), (value, a)
                continue
            exact = (Decimal(a.numerator) / a.denominator
                     + Decimal(b.numerator) / b.denominator * root)
            ulps = abs(Decimal(value) - exact) / Decimal(math.ulp(value))
            worst = max(worst, float(ulps))
            assert ulps <= 2, (value, a, b, ulps)
    assert worst > 0.0          # the sqrt(15) entries were reached
