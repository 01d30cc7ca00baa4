"""Fifth-order WENO reconstruction from cell averages.

Reconstructs interface and interior Gauss-point values of a function from
five consecutive cell averages (the big stencil ``i-2 .. i+2``), combining
three quadratic candidates with data-dependent nonlinear weights.  Five
weight families are provided:

* ``js``  -- classical smoothness-indicator weights,
* ``m``   -- Henrick-mapped weights,
* ``z``   -- global-indicator weights built on ``tau = |beta0 - beta2|``,
* ``zr``  -- Z-type weights built on p-th roots of the indicators,
* ``zl``  -- Z-type weights built on a logarithmic indicator
  ``tau = |ln((1+beta0)/(1+beta2))| / p`` raised to the power ``q``,

plus ``linear`` which bypasses the nonlinearity entirely.

Coefficient tables are kept as exact rationals (terms in ``sqrt(15)`` are
stored as rational pairs) and rendered to floating point once at import, so
reconstructed values are reproducible bit-for-bit across platforms with the
same FPU semantics.

All reconstruction kernels operate on windows stacked along the last axis;
leading axes (solution components, rows of a 2D grid) broadcast.  Each
writes its result and its temporaries into the :class:`Workspace` given as
``out`` (by default a fresh one, so the result is the caller's).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigurationError
from .workspace import Workspace, const

F = Fraction
SQRT15 = math.sqrt(15.0)


class Coeff(NamedTuple):
    """An exact coefficient a + b*sqrt(15), a and b rational."""

    a: Fraction
    b: Fraction


def _c(a, b=0) -> Coeff:
    return Coeff(F(a), F(b))


def _render(exact):
    """Floats of exact coefficients (a :class:`Coeff` or a bare rational),
    nested in tuples to any depth."""
    if isinstance(exact, Coeff):
        return float(exact.a) + float(exact.b) * SQRT15
    if isinstance(exact, Fraction):
        return float(exact)
    # read-only: the workspaces bind their linear weights and candidates to
    # the module's tables
    return const([_render(e) for e in exact])


# ---------------------------------------------------------------------------
# Exact coefficient tables.
#
# Candidate rows are the three quadratic reconstructions over the substencils
# {i-2,i-1,i}, {i-1,i,i+1}, {i,i+1,i+2}, expressed against the full window
# (vbar_{i-2}, ..., vbar_{i+2}).  "Big" rows are the quartic reconstruction
# over the whole window.  Evaluation points: the right cell edge x_{i+1/2}
# and the three Gauss-Legendre nodes x_i + {-xi, 0, +xi} * dx/2 with
# xi = sqrt(3/5).
# ---------------------------------------------------------------------------

_ZERO = _c(0)

CAND_EDGE_EXACT = (
    (_c(F(1, 3)), _c(F(-7, 6)), _c(F(11, 6)), _ZERO, _ZERO),
    (_ZERO, _c(F(-1, 6)), _c(F(5, 6)), _c(F(1, 3)), _ZERO),
    (_ZERO, _ZERO, _c(F(1, 3)), _c(F(5, 6)), _c(F(-1, 6))),
)
BIG_EDGE_EXACT = (
    (_c(F(1, 30)), _c(F(-13, 60)), _c(F(47, 60)), _c(F(9, 20)), _c(F(-1, 20))),
)
D_EDGE_EXACT = (_c(F(1, 10)), _c(F(3, 5)), _c(F(3, 10)))

CAND_GAUSS_MINUS_EXACT = (
    (_c(F(1, 30), F(-1, 20)), _c(F(-1, 15), F(1, 5)), _c(F(31, 30), F(-3, 20)), _ZERO, _ZERO),
    (_ZERO, _c(F(1, 30), F(1, 20)), _c(F(14, 15)), _c(F(1, 30), F(-1, 20)), _ZERO),
    (_ZERO, _ZERO, _c(F(31, 30), F(3, 20)), _c(F(-1, 15), F(-1, 5)), _c(F(1, 30), F(1, 20))),
)
BIG_GAUSS_MINUS_EXACT = (
    (
        _c(F(-3, 800), F(-11, 1200)),
        _c(F(29, 600), F(41, 600)),
        _c(F(1093, 1200)),
        _c(F(29, 600), F(-41, 600)),
        _c(F(-3, 800), F(11, 1200)),
    ),
)
D_GAUSS_MINUS_EXACT = (
    _c(F(126, 655), F(71, 5240)),
    _c(F(403, 655)),
    _c(F(126, 655), F(-71, 5240)),
)

CAND_GAUSS_CENTER_EXACT = (
    (_c(F(-1, 24)), _c(F(1, 12)), _c(F(23, 24)), _ZERO, _ZERO),
    (_ZERO, _c(F(-1, 24)), _c(F(13, 12)), _c(F(-1, 24)), _ZERO),
    (_ZERO, _ZERO, _c(F(23, 24)), _c(F(1, 12)), _c(F(-1, 24))),
)
BIG_GAUSS_CENTER_EXACT = (
    (_c(F(3, 640)), _c(F(-29, 480)), _c(F(1067, 960)), _c(F(-29, 480)), _c(F(3, 640))),
)
# The center-node linear weights are not all positive; they are split into
# two positive convex sets gamma+/- scaled by sigma+/- so that
# d_s = sigma+ * gamma+_s - sigma- * gamma-_s.
D_GAUSS_CENTER_EXACT = (_c(F(-9, 80)), _c(F(49, 40)), _c(F(-9, 80)))
GAMMA_PLUS_EXACT = (F(9, 214), F(98, 107), F(9, 214))
GAMMA_MINUS_EXACT = (F(9, 67), F(49, 67), F(9, 67))
SIGMA_PLUS_EXACT = F(107, 40)
SIGMA_MINUS_EXACT = F(67, 40)

def _mirror_cand(table):
    """Reflect a candidate table: swap substencils and reverse each row."""
    return tuple(tuple(reversed(row)) for row in reversed(table))


CAND_GAUSS_PLUS_EXACT = _mirror_cand(CAND_GAUSS_MINUS_EXACT)
BIG_GAUSS_PLUS_EXACT = (tuple(reversed(BIG_GAUSS_MINUS_EXACT[0])),)
D_GAUSS_PLUS_EXACT = tuple(reversed(D_GAUSS_MINUS_EXACT))

CAND_EDGE = _render(CAND_EDGE_EXACT)
BIG_EDGE = _render(BIG_EDGE_EXACT[0])
D_EDGE = _render(D_EDGE_EXACT)

CAND_GAUSS_MINUS = _render(CAND_GAUSS_MINUS_EXACT)
CAND_GAUSS_CENTER = _render(CAND_GAUSS_CENTER_EXACT)
CAND_GAUSS_PLUS = _render(CAND_GAUSS_PLUS_EXACT)
BIG_GAUSS_MINUS = _render(BIG_GAUSS_MINUS_EXACT[0])
BIG_GAUSS_CENTER = _render(BIG_GAUSS_CENTER_EXACT[0])
BIG_GAUSS_PLUS = _render(BIG_GAUSS_PLUS_EXACT[0])
D_GAUSS_MINUS = _render(D_GAUSS_MINUS_EXACT)
D_GAUSS_PLUS = _render(D_GAUSS_PLUS_EXACT)
D_GAUSS_CENTER = _render(D_GAUSS_CENTER_EXACT)
GAMMA_PLUS = _render(GAMMA_PLUS_EXACT)
GAMMA_MINUS = _render(GAMMA_MINUS_EXACT)
SIGMA_PLUS = _render(SIGMA_PLUS_EXACT)
SIGMA_MINUS = _render(SIGMA_MINUS_EXACT)

# The kernels' constant operands, as 0-d arrays (the call convention of
# :mod:`.workspace`); the public constants above stay floats.
_SIGMA_PLUS, _SIGMA_MINUS = const(SIGMA_PLUS), const(SIGMA_MINUS)
_THIRTEEN_TWELFTHS, _THREE, _QUARTER, _ONE = map(const, (13.0 / 12.0, 3.0, 0.25, 1.0))

GAUSS_NODES = ("minus", "center", "plus")
# 3-point Gauss-Legendre rule on [-1, 1], ordered to match GAUSS_NODES.
GAUSS_XI = math.sqrt(3.0 / 5.0)
GAUSS_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

# Per family: the label format, and the defaults of eps and of the
# parameters the family reads; p and q stay None where unread.
FAMILIES = {
    "js": ("JS", {"eps": 1e-6}),
    "m": ("M", {"eps": 1e-40}),
    "z": ("Z", {"eps": 1e-40}),
    "zr": ("ZR(p={p:g})", {"eps": 1e-40, "p": 2.0}),
    "zl": ("ZL(p={p:g},q={q:g})", {"eps": 1e-40, "p": 1.0, "q": 1.0}),
    "linear": ("Linear", {"eps": 1e-40}),
}


@dataclass(frozen=True)
class WeightScheme:
    """Selects a nonlinear-weight family and its parameters.

    ``eps`` guards the denominators.  ``p`` is the root exponent of the
    ``zr`` family and the logarithm tuner of ``zl``; ``q`` is the power
    applied to the ``zl`` indicator ratio.  A parameter left at None takes
    the family's default: eps is 1e-6 for ``js`` and 1e-40 for the other
    families, p is 2 for ``zr`` and 1 for ``zl``, and q is 1 for ``zl``;
    the others stay None.  A ``p`` or ``q`` given to a family that does not
    read it is a configuration error, so two schemes that compute the same
    weights compare equal.
    """

    family: str
    eps: float = None
    p: float = None
    q: float = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown weight family {self.family!r}")
        defaults = FAMILIES[self.family][1]
        for name in ("p", "q"):
            if getattr(self, name) is not None and name not in defaults:
                raise ConfigurationError(f"{self.family} does not read {name}")
        for name, default in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if self.family != "linear" and not self.eps > 0.0:
            raise ConfigurationError("eps must be positive")
        if self.family == "zr" and not self.p >= 1.0:
            raise ConfigurationError("zr requires p >= 1")
        if self.family == "zl":
            if not self.p > 0.0:
                raise ConfigurationError("zl requires p > 0")
            if not self.q >= 1.0:
                raise ConfigurationError("zl requires q >= 1")
        # eps, p, q and zr's 1/p as the kernels' 0-d operands (None where
        # unread); not fields, so equality, hashing and repr do not see them
        root = 1.0 / self.p if self.family == "zr" else None
        object.__setattr__(self, "_operands", tuple(
            None if v is None else const(v) for v in (self.eps, self.p, self.q, root)))

    @classmethod
    def js(cls, eps=None):
        return cls("js", eps=eps)

    @classmethod
    def m(cls, eps=None):
        return cls("m", eps=eps)

    @classmethod
    def z(cls, eps=None):
        return cls("z", eps=eps)

    @classmethod
    def zr(cls, p=None, eps=None):
        return cls("zr", eps=eps, p=p)

    @classmethod
    def zl(cls, p=None, q=None, eps=None):
        return cls("zl", eps=eps, p=p, q=q)

    @classmethod
    def linear(cls):
        return cls("linear")

    @property
    def label(self):
        return FAMILIES[self.family][0].format(p=self.p, q=self.q)


def smoothness_indicators(window):
    """Smoothness indicators (beta0, beta1, beta2) of a five-cell window.

    ``window`` has the five cell averages along its last axis; leading axes
    broadcast.  Constant substencils give exactly zero.
    """
    beta = _indicators(_window(window), Workspace())[..., 0]
    return np.ascontiguousarray(np.moveaxis(beta, 0, -1))


# The array kernels keep a triple (one value per substencil) on axis 0 and
# the window positions on the last axis, so every array operation runs
# along the long axis and the formulas index substencils as beta[0],
# beta[1], beta[2].  Each layer keeps its buffers, and the views the binding
# rule of :mod:`.workspace` lets it keep, in one attribute of the workspace
# named after the layer: a tuple made by a ``_*_views`` builder through
# ``Workspace.bind``, of the buffers, then the views, then what the views
# are bound to.  A call on those arrays slices nothing it keeps; any other
# call binds the layer anew.


def _rows(a):
    """Views of the three rows of ``a`` (0-d ones for a single triple)."""
    return a[0, ...], a[1, ...], a[2, ...]


def _indicator_views(w, u):
    K = u.shape[-1] - 4
    lead = u.shape[:-1]
    d, curv, slope, triple, beta = w.take("indicators", lead + (K + 3,), lead + (K + 2,),
                                          (3,) + lead + (K,), lead + (K + 3,),
                                          (3,) + lead + (K,))
    # read-only windows: a window's three curvatures, (3 d1, 3 d2) and (d0, d3)
    windows = [as_strided(x, (n,) + lead + (K,), (k * x.itemsize,) + x.strides, writeable=False)
               for x, n, k in ((curv, 3, 1), (triple[..., 1:], 2, 1), (d, 2, 3))]
    return (d, curv, triple, slope, beta, u[..., 1:], u[..., :-1], d[..., 1:], d[..., :-1],
            d[..., 1:K + 1], d[..., 2:K + 2], slope[::2], slope[1], *windows, u)


def _indicators(u, w):
    """Smoothness indicators of every window of a padded array (..., N):
    shape (3, ..., N-4), one row per substencil.

    Built from first differences so constant (and, for the curvature terms,
    linear) data cancel exactly: the Z-type global indicators divide by
    eps = 1e-40 and would amplify any spurious residue on flat regions.
    """
    b = getattr(w, "indicators", None)
    if b is None or b[-1] is not u:
        b = w.bind("indicators", _indicator_views, u)
    d, curv, triple, slope, beta, u_hi, u_lo, d_hi, d_lo, d1, d2, s02, s1, c, tripled, ends, _ = b
    np.subtract(u_hi, u_lo, d)
    np.subtract(d_hi, d_lo, curv)
    # (13/12) (c c), once per cell
    np.multiply(curv, curv, curv)
    np.multiply(_THIRTEEN_TWELFTHS, curv, curv)
    # first-derivative terms of the three substencils: 3 d1 - d0, d1 + d2, 3 d2 - d3
    np.multiply(_THREE, d, triple)
    np.subtract(tripled, ends, s02)
    np.add(d1, d2, s1)
    # (13/12) (c c) + 0.25 slope^2
    np.square(slope, slope)
    np.multiply(_QUARTER, slope, slope)
    return np.add(c, slope, beta)


def _henrick_coefficients(d):
    """The d-only terms of the Henrick map: 3 d, d + d d, d d, 1 - 2 d."""
    return 3.0 * d, d + d * d, d * d, 1.0 - 2.0 * d


def _henrick_views(w, omega):
    g, den = w.take("henrick", omega.shape, omega.shape)
    return g, den, _rows(g), omega


def _henrick(omega, coefficients, g, den):
    """:func:`henrick_map` of ``omega`` from the d-only ``coefficients``
    into ``g``, with ``den`` as scratch, in numpy's order of evaluation of
    omega ((d + d d) - 3 d omega + omega omega) / (d d + (1 - 2 d) omega)."""
    three_d, d_dd, dd, one_2d = coefficients
    np.multiply(three_d, omega, g)
    np.subtract(d_dd, g, g)
    np.multiply(omega, omega, den)
    np.add(g, den, g)
    np.multiply(omega, g, g)
    np.multiply(one_2d, omega, den)
    np.add(dd, den, den)
    return np.divide(g, den, g)


def henrick_map(omega, d):
    """Henrick mapping g(omega) of the M weights (Henrick, Aslam & Powers
    2005, JCP 207); fixes d, 0 and 1, flattens near omega=d.  The kernel's
    sequence on fresh arrays of the broadcast shape: the kernel's bits."""
    omega, d = np.broadcast_arrays(np.asarray(omega, dtype=float), np.asarray(d, dtype=float))
    g = _henrick(omega, _henrick_coefficients(d), np.empty(omega.shape), np.empty(omega.shape))
    return g[()]    # a scalar for 0-d inputs, as numpy's arithmetic gives


def _normalize(rows, alpha, total, out):
    """``alpha / ((alpha[0] + alpha[2]) + alpha[1])`` into ``out``, given
    ``rows``, the three rows of ``alpha``.

    The outer pair is summed first, so the sum does not change when the
    triple is reversed, and the weights of a reflected window are the
    weights of the window reversed, bit for bit."""
    np.add(rows[0], rows[2], total)
    np.add(total, rows[1], total)
    return np.divide(alpha, total, out)


def _factor_views(w, beta, family):
    rows = {"zr": 3, "zl": 2}.get(family)
    phi, tau, aux = w.take("factor", beta.shape,
                           None if family in ("js", "m") else beta.shape[1:],
                           None if rows is None else (rows,) + beta.shape[1:])
    # the two indicators tau is the distance of, and the base of the ratio
    lo = hi = base = None
    if family == "z":
        lo, hi, base = beta[0, ...], beta[2, ...], beta
    elif family == "zr":
        lo, hi, base = aux[0, ...], aux[2, ...], aux
    elif family == "zl":
        lo, hi, base = aux[0, ...], aux[1, ...], beta
    # phi as the weights read it: itself, and with an axis for a stack of
    # weight sets (at 3)
    return (phi, tau, aux, phi[:, None], beta[::2] if family == "zl" else None,
            lo, hi, base, family, beta)


def _factor(beta, scheme: WeightScheme, w):
    """Per-window factor phi of the unnormalized weights of a family: the
    binding of the factor layer, which holds phi and the views of it the
    weights read (see :func:`_factor_views`), bound to beta and the family.

    ``alpha = d / phi`` for ``js`` and ``m``, ``alpha = d * phi`` for ``z``,
    ``zr`` and ``zl``.  phi does not depend on ``d``, so one phi serves
    every linear-weight set of a window: the edge pair of both
    reconstruction orientations and the Gauss sets.

    The layer holds only the scratch the family reads: ``tau`` for the
    Z-type families, and ``aux`` for the roots of ``zr`` and the logarithms
    of beta0 and beta2 of ``zl``.
    """
    family = scheme.family
    eps, p, q, root = scheme._operands
    b = getattr(w, "factor", None)
    if b is None or b[-1] is not beta or b[-2] != family:
        b = w.bind("factor", _factor_views, beta, family)
    phi, tau, aux, _, ends, lo, hi, base, _, _ = b
    if family in ("js", "m"):
        np.add(beta, eps, phi)                  # (beta + eps) ** 2
        np.square(phi, phi)
        return b
    if family == "zr":
        np.power(beta, root, aux)
    elif family == "zl":                        # tau reads beta0 and beta2 only
        np.log1p(ends, aux)
    np.subtract(lo, hi, tau)                    # tau = |lo - hi|
    np.absolute(tau, tau)
    if family == "zl":
        np.divide(tau, p, tau)
    # 1 + tau / (base + eps), to the power p for zr and q for zl
    np.add(base, eps, phi)
    np.divide(tau, phi, phi)
    if family != "z":
        np.power(phi, p if family == "zr" else q, phi)
    np.add(_ONE, phi, phi)
    return b


def _weight_views(w, beta, d, axis, given):
    table = np.asarray(d, dtype=float).T  # linear weights on axis 0, sets on 1
    if table.ndim not in (1, 2) or len(table) != 3:
        raise ConfigurationError(f"d has shape (3,) or (k, 3), not {np.shape(d)}")
    extra = table.shape[1:]
    shape = (3,) + extra + beta.shape[1:]
    table = table.reshape(table.shape + (1,) * (len(shape) - table.ndim))  # broadcasting
    omega, total = w.take("weights", shape, shape[1:])
    result = omega
    if axis == -1:
        lead = (1, 0) if extra else (0,)
        result = omega.transpose(tuple(range(len(lead), omega.ndim)) + lead)
    # a table that may change under the binding binds for one call only
    key = d if isinstance(d, np.ndarray) and not d.flags.writeable else None
    return (omega, total, _rows(omega), table, 3 if extra else 0,
            _henrick_coefficients(table), result, beta, axis, key, given)


def _triples(beta, axis):
    """``beta`` as float triples along axis 0, checked, and the object a
    later call may pass for them: ``beta`` itself if it is already a float
    array (the triples are then a view of it), else the converted copy,
    which no caller holds."""
    a = np.asarray(beta, dtype=float)
    if axis not in (0, -1):
        raise ConfigurationError(f"triples lie along axis 0 or -1, not {axis!r}")
    if a.shape[axis:][:1] != (3,):
        raise ConfigurationError(f"triples of three along axis {axis}, not shape {a.shape}")
    given = beta if a is beta else a
    if axis == -1:
        a = a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1)))
    return a, given


def nonlinear_weights(beta, scheme: WeightScheme, d=D_EDGE, axis=-1, *, out=None):
    """Nonlinear weights of the given family for indicator triples ``beta``.

    ``d`` are the linear weights of the evaluation point (any positive
    convex triple; the Gauss-point tables pass their own).  The triples lie
    along ``axis`` of ``beta``: -1 (default), or 0 as the array kernels
    keep them; the weights come back in the same layout.

    A stack of k triples ``d``, shape (k, 3), puts the weights of each set
    on a new axis: shape ``(..., k, 3)`` for ``axis=-1``, ``(3, k, ...)``
    for ``axis=0``.  One per-window factor serves them all, bit for bit
    what separate calls return.  The kernels take every set of a window in
    one call: the Gauss nodes' sets, and the edge pair
    ``(D_EDGE, D_EDGE[::-1])``.  Reflection is exact: the weights of
    ``beta[..., ::-1]`` with ``d[::-1]`` are those of ``beta`` with ``d``,
    reversed bit for bit, so the edge pair's second set, reversed, is the
    weights of the reflected window (the right-biased reconstruction).

    ``out`` is the :class:`Workspace` the weights and their temporaries go
    into; for ``axis=0`` the weights returned are one of those temporaries
    and hold until the next kernel call on it.  Its weights layer keeps the
    linear weights, and for M their Henrick coefficients, for as long as it
    is called with the same read-only table ``d``, as the module's are.  It
    is bound to ``beta``, ``d`` and ``axis``: a call with the float array it
    is bound to (the kernels pass their indicator buffer) is not checked
    again, and any other ``beta`` is converted, checked and bound anew.
    """
    w = Workspace() if out is None else out
    b = getattr(w, "weights", None)
    if b is not None and b[-1] is beta and b[-2] is d and b[-3] is axis:
        beta = b[-4]
    else:
        beta, given = _triples(beta, axis)
        b = None
    family = scheme.family
    if family != "linear":
        # the factor first, in the order of LAYOUT: a region the weights
        # layer grows then drops the factor's views of beta with it.  A
        # region the factor grows drops the weights layer after ``b`` was
        # read; its buffers then still serve this call, and the next binds
        factor = _factor(beta, scheme, w)
    if b is None:
        b = w.bind("weights", _weight_views, beta, d, axis, given)
    omega, total, rows, table, phi_at, coefficients, result = b[:7]
    if family == "linear":
        np.copyto(omega, table)
    else:
        combine = np.divide if family in ("js", "m") else np.multiply
        combine(table, factor[phi_at], omega)
        _normalize(rows, omega, total, omega)
        if family == "m":
            h = getattr(w, "henrick", None)
            if h is None or h[-1] is not omega:
                h = w.bind("henrick", _henrick_views, omega)
            g, den, g_rows, _ = h
            _normalize(g_rows, _henrick(omega, coefficients, g, den), total, omega)
    return result if axis == 0 else np.ascontiguousarray(result)


def _window(window):
    w = np.ascontiguousarray(window, dtype=float)
    if w.shape[-1:] != (5,):
        raise ConfigurationError("a window holds five cell averages along its last axis")
    return w


def reconstruct_interface(window, scheme: WeightScheme, orientation="left"):
    """Interface value from one five-cell window: ``orientation='left'``
    gives the left-biased value at the right edge of the center cell (v-),
    ``'right'`` the right-biased value at its left edge (v+): the array
    kernel's value, bit for bit, on the window extended by edge copies.
    """
    if orientation not in ("left", "right"):
        raise ConfigurationError(f"unknown orientation {orientation!r}")
    # the center cell is cell 3 of the seven: interfaces 0 and 1 are its edges
    u_minus, u_plus = interface_states(_window(window)[..., [0, 0, 1, 2, 3, 4, 4]], scheme)
    return u_plus[..., 0] if orientation == "right" else u_minus[..., 1]


# Linear weights of the Gauss nodes for one weight call: minus, gamma+,
# plus, gamma-; the split pair in rows 1 and 3 combines into row 1, so rows
# 0..2 follow GAUSS_NODES.  The linear scheme takes D_GAUSS_CENTER as is.
_D_GAUSS_SETS = const(np.stack([D_GAUSS_MINUS, GAMMA_PLUS, D_GAUSS_PLUS, GAMMA_MINUS]))
_D_GAUSS_LINEAR = const(np.stack([D_GAUSS_MINUS, D_GAUSS_CENTER, D_GAUSS_PLUS]))


def _gauss_weights(beta, scheme: WeightScheme, out=None):
    """Weights of the Gauss nodes from one weight call on triples along
    axis 0 of ``beta``: shape (3, 3, ...), the node sets on axis 1."""
    if scheme.family == "linear":
        return nonlinear_weights(beta, scheme, d=_D_GAUSS_LINEAR, axis=0, out=out)
    omega = nonlinear_weights(beta, scheme, d=_D_GAUSS_SETS, axis=0, out=out)
    plus, minus = omega[:, 1], omega[:, 3]
    # sigma+ gamma+ - sigma- gamma-; set 3 is not returned
    np.multiply(_SIGMA_PLUS, plus, plus)
    np.multiply(_SIGMA_MINUS, minus, minus)
    np.subtract(plus, minus, plus)
    return omega[:, :3]


def reconstruct_gauss_point(window, scheme: WeightScheme, node):
    """Value at a Gauss node inside the center cell from one window:
    ``node`` is ``'minus'``, ``'center'`` or ``'plus'`` for
    ``x_i - xi*dx/2``, ``x_i``, ``x_i + xi*dx/2`` with ``xi = sqrt(3/5)``:
    the array kernel's value, bit for bit, on the window extended by an
    edge copy.
    """
    if node not in GAUSS_NODES:
        raise ConfigurationError(f"unknown gauss node {node!r}")
    values = gauss_point_values(_window(window)[..., [0, 1, 2, 3, 4, 4]], scheme)
    return values[..., 0, GAUSS_NODES.index(node)]


# ---------------------------------------------------------------------------
# Array kernels used by the semi-discrete operators.
# ---------------------------------------------------------------------------


# Candidate tables of the array kernels, row k*s + j for candidate s at point
# j.  Edge point 1 is the reflected window's candidate 2-s (the right-biased
# value at the left edge), to pair with weight s of D_EDGE[::-1], which is
# weight 2-s of the reflected window.
_D_EDGE_PAIR = const(np.stack([D_EDGE, D_EDGE[::-1]]))
_CAND_PAIR = const(np.stack([CAND_EDGE, CAND_EDGE[::-1, ::-1]], axis=1).reshape(6, 5))
_CAND_GAUSS = const(np.stack([CAND_GAUSS_MINUS, CAND_GAUSS_CENTER, CAND_GAUSS_PLUS],
                               axis=1).reshape(9, 5))


def _combine_views(w, u, table):
    # rows first, so products and sums run over contiguous blocks; the
    # matmul writes through a view with the rows where it puts them, and the
    # products overwrite the candidates they are made of
    (cand,) = w.take("combine", (len(table),) + u.shape[:-1] + (u.shape[-1] - 4,))
    prod = cand.reshape((3, len(table) // 3) + cand.shape[1:])
    windows = as_strided(u, u.shape[:-1] + (5, u.shape[-1] - 4), u.strides + u.strides[-1:],
                         writeable=False)                                  # (..., 5, N-4)
    return np.moveaxis(cand, 0, -2), prod, *_rows(prod), windows, table, u


def _combine(u, table, omega, w, out):
    """Weighted candidate sums at k points for every window of a padded
    array (..., N): ``omega`` (3, k, ..., N-4) -> ``out`` (k, ..., N-4)."""
    b = getattr(w, "combine", None)
    if b is None or b[-1] is not u or b[-2] is not table:
        b = w.bind("combine", _combine_views, u, table)
    cand, prod, p0, p1, p2, windows, _, _ = b
    np.matmul(table, windows, cand)                       # (..., 3k, N-4)
    np.multiply(omega, prod, prod)                        # (3, k, ..., N-4)
    # (p0 + p2) + p1: the order in which numpy's einsum sums three products
    np.add(p0, p2, out)
    return np.add(out, p1, out)


def _trace_views(w, u):
    v = np.empty((2,) + u.shape[:-1] + (u.shape[-1] - 4,))
    return v, (v[0, ..., :-1], v[1, ..., 1:]), u


def interface_states(upad, scheme: WeightScheme, record=False, *, out=None):
    """Left/right interface traces from a padded cell-average array.

    ``upad`` has shape (..., N); windows are formed along the last axis.
    Returns ``(u_minus, u_plus)`` of shape (..., N-5): the traces at the
    N-5 interfaces interior to the window range, i.e. between padded cells
    2..N-3.  On a field of n cells padded by ``mesh.GHOST`` = 3 on each
    side these are exactly its n+1 interfaces.

    With ``record=True`` also returns ``(omega_minus, omega_plus)``, the
    weight triples of each returned trace, shape (..., N-5, 3): for u+ the
    weights of the reflected window, substencil s being the window's
    candidate 2-s.

    All of them are views of buffers in ``out``, the :class:`Workspace`
    (a fresh one by default); the weights are temporaries there and hold
    until the next kernel call on it.  ``upad`` is checked when the trace
    layer binds to it, and not again on a call with that array; ``upad``
    that is not a C-contiguous float array is copied on every call.
    """
    w = Workspace() if out is None else out
    b = getattr(w, "trace", None)
    if b is None or b[-1] is not upad:
        u = np.ascontiguousarray(upad, dtype=float)
        if u.shape[-1] < 6:
            raise ConfigurationError("padded array too short for a 5-cell stencil")
        if b is None or b[-1] is not u:
            b = w.bind("trace", _trace_views, u)
    u = b[-1]
    # the left-biased value at the right edge and the right-biased value at
    # the left edge of every window, (2, ..., N-4), with their weights
    omega = nonlinear_weights(_indicators(u, w), scheme, d=_D_EDGE_PAIR, axis=0, out=w)
    _combine(u, _CAND_PAIR, omega, w, b[0])
    if record:
        return (*b[1], (np.moveaxis(omega[:, 0, ..., :-1], 0, -1),
                        np.moveaxis(omega[::-1, 1, ..., 1:], 0, -1)))
    return b[1]


def _value_views(w, u):
    vals = np.empty(u.shape[:-1] + (u.shape[-1] - 4, 3))
    return vals, np.moveaxis(vals, -1, 0), u


def gauss_point_values(ubar, scheme: WeightScheme, *, out=None):
    """Values at the three in-cell Gauss nodes from windowed cell averages.

    ``ubar`` has shape (..., N); returns shape (..., N-4, 3) with the last
    axis ordered (minus, center, plus).  The smoothness indicators and the
    weights of all three nodes come from one evaluation per window.  The
    values are a buffer of ``out``, the :class:`Workspace` (a fresh one by
    default).  ``ubar`` is checked when the values layer binds to it, and
    not again on a call with that array; ``ubar`` that is not a C-contiguous
    float array is copied on every call.
    """
    w = Workspace() if out is None else out
    b = getattr(w, "values", None)
    u = ubar
    if b is None or b[-1] is not u:
        u = np.ascontiguousarray(ubar, dtype=float)
        if u.shape[-1:] < (5,):
            raise ConfigurationError("rows too short for a 5-cell stencil")
    omega = _gauss_weights(_indicators(u, w), scheme, w)
    if b is None or b[-1] is not u:
        # bound after the weights, so that the values are not live while a
        # first call grows the regions
        b = w.bind("values", _value_views, u)
    _combine(u, _CAND_GAUSS, omega, w, b[1])
    return b[0]
