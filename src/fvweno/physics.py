"""Flux catalog: scalar model problems, the 1D Euler system, and the
Lax-Friedrichs numerical flux with a global wave-speed bound.

Every model's ``flux(u, out=None)`` returns f(u): into ``out``, an array of
u's shape, or ``u`` itself (advection) or a new array; without ``out`` into
a fresh array.  Its ``speed_bound(u, out=None)`` may use ``out``, an array
of u's shape, as scratch.  The Euler and Burgers fluxes and bounds write
into ``out`` in numpy's order of evaluation, so they keep the bits of the
allocating expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StateError
from .mesh import CellField
from .workspace import Workspace

GAMMA = 1.4


@dataclass(frozen=True)
class ScalarFluxModel:
    """A scalar conservation-law flux f(u) with a wave-speed bound.

    ``speed_bound(u, out=None)`` returns max |f'| over the range of the
    values ``u``; the Lax-Friedrichs dissipation coefficient is this bound
    over the current data.
    """

    name: str
    flux: Callable
    dflux: Callable
    speed_bound: Callable


def _advection_flux(u, out=None):
    return np.asarray(u, dtype=float)


def _advection_speed(u, out=None):
    return 1.0


def _burgers_flux(u, out=None):
    # == 0.5 * np.square(u)
    out = np.square(u, out=np.empty(np.shape(u)) if out is None else out)
    return np.multiply(0.5, out, out=out)


def _burgers_speed(u, out=None):
    return float(np.absolute(u, out=out).max())


def _interval_speed(dflux, critical):
    """Bound of |f'| over [min u, max u]: |f'| peaks at an endpoint or at an
    interior critical point of f' (a root of f'')."""

    def speed_bound(u, out=None):
        lo, hi = float(u.min()), float(u.max())
        cands = [lo, hi] + [c for c in critical if lo < c < hi]
        return float(max(abs(dflux(c)) for c in cands))

    return speed_bound


def _quartic_flux(u, out=None):
    u = np.asarray(u, dtype=float)
    return 0.25 * (u * u - 1.0) * (u * u - 4.0)


def _quartic_dflux(u):
    u = np.asarray(u, dtype=float)
    return u * (u * u - 2.5)


def _buckley_flux(u, out=None):
    u = np.asarray(u, dtype=float)
    return 4.0 * u * u / (4.0 * u * u + (1.0 - u) ** 2)


def _buckley_dflux(u):
    u = np.asarray(u, dtype=float)
    return 8.0 * u * (1.0 - u) / (4.0 * u * u + (1.0 - u) ** 2) ** 2


ADVECTION = ScalarFluxModel("advection", _advection_flux,
                            lambda u: np.ones_like(np.asarray(u, dtype=float)),
                            _advection_speed)
BURGERS = ScalarFluxModel("burgers", _burgers_flux,
                          lambda u: np.asarray(u, dtype=float), _burgers_speed)
# f'' = 3u^2 - 5/2
QUARTIC_NONCONVEX = ScalarFluxModel(
    "quartic", _quartic_flux, _quartic_dflux,
    _interval_speed(_quartic_dflux, (-np.sqrt(5.0 / 6.0), np.sqrt(5.0 / 6.0))))
# f'' has the sign of 10u^3 - 15u^2 + 1, whose real roots are
# 1/2 + cos((arccos(3/5) - 2 pi k) / 3), k = 0, 1, 2
BUCKLEY_LEVERETT = ScalarFluxModel(
    "buckley-leverett", _buckley_flux, _buckley_dflux,
    _interval_speed(_buckley_dflux, tuple(
        0.5 + np.cos((np.arccos(0.6) - 2.0 * np.pi * k) / 3.0) for k in range(3))))

@dataclass(frozen=True)
class FluxPair2D:
    """Directional fluxes (f, g) of a 2D scalar conservation law."""

    fx: ScalarFluxModel
    fy: ScalarFluxModel

    def speed_bound(self, u, out=None):
        """The pair (alpha_x, alpha_y) of directional bounds."""
        return self.fx.speed_bound(u, out), self.fy.speed_bound(u, out)


@dataclass(frozen=True)
class EulerModel:
    """1D Euler equations of an ideal gas in conserved variables
    (rho, rho*u, E) with E = P/(GAMMA-1) + rho*u^2/2."""

    def conserved(self, rho, u, P):
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        P = np.asarray(P, dtype=float)
        E = P / (GAMMA - 1.0) + 0.5 * rho * u * u
        return np.stack([rho, rho * u, E])

    def primitive(self, U):
        rho = U[0]
        u = U[1] / rho
        P = (GAMMA - 1.0) * (U[2] - 0.5 * U[1] * u)
        return rho, u, P

    @staticmethod
    def _primitive_into(U, u, P):
        """primitive(U), with u and P written into the arrays ``u`` and
        ``P`` in numpy's order of evaluation."""
        np.divide(U[1], U[0], out=u)
        np.multiply(0.5, U[1], out=P)
        np.multiply(P, u, out=P)
        np.subtract(U[2], P, out=P)
        np.multiply(GAMMA - 1.0, P, out=P)
        return U[0], u, P

    def flux(self, U, out=None):
        # rows: u and P, then U1 u + P, then u (U2 + P), then U1; [k, ...]
        # keeps a row of a (3,) state an array
        f = np.empty(np.shape(U)) if out is None else out
        _, u, P = self._primitive_into(U, f[0, ...], f[2, ...])
        m = f[1, ...]
        np.multiply(U[1], u, out=m)
        np.add(m, P, out=m)
        np.add(U[2], P, out=P)
        np.multiply(u, P, out=P)
        np.copyto(u, U[1])
        return f

    def validate(self, U, out=None):
        """Primitives (rho, u, P) of ``U``, u and P in rows 1 and 2 of
        ``out`` (an array of U's shape, fresh by default); a nonpositive
        density or pressure raises :class:`StateError`."""
        w = np.empty(np.shape(U)) if out is None else out
        rho, u, P = self._primitive_into(U, w[1, ...], w[2, ...])
        # min() is NaN if any value is: a NaN state fails too
        low = rho.min()
        if not low > 0.0:
            raise StateError(f"nonpositive density (min {low:.3e})")
        low = P.min()
        if not low > 0.0:
            raise StateError(f"nonpositive pressure (min {low:.3e})")
        return rho, u, P

    def speed_bound(self, U, out=None):
        """max(|u| + c) over the states ``U``, validated on the way, with
        ``out`` (an array of U's shape) as scratch."""
        rho, u, c = self.validate(U, out)
        # == np.abs(u) + np.sqrt(GAMMA * P / rho)
        np.multiply(GAMMA, c, out=c)
        np.divide(c, rho, out=c)
        np.sqrt(c, out=c)
        np.absolute(u, out=u)
        return float(np.add(u, c, out=u).max())


EULER = EulerModel()


def _lf_views(w, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = np.broadcast_shapes(a.shape, b.shape)
    return w.result("lf", 0, shape), w.result("lf", 1, shape), a, b


def lf_flux(a, b, flux, alpha, *, out=None):
    """Lax-Friedrichs flux h(a, b) = (f(a) + f(b) - alpha*(b - a)) / 2.

    ``alpha`` must bound the wave speed over the relevant range; the flux is
    then monotone (nondecreasing in a, nonincreasing in b).  Componentwise
    for systems.  The flux and its temporary are buffers of ``out``, a
    :class:`~fvweno.workspace.Workspace` (a fresh one by default); f(a) is
    evaluated into the temporary and f(b) into the flux.
    """
    w = Workspace() if out is None else out
    bound = getattr(w, "lf", None)
    if bound is None or bound[-2] is not a or bound[-1] is not b:
        bound = w.bind("lf", _lf_views, a, b)
    h, jump, a, b = bound
    # in numpy's order of evaluation
    np.add(flux(a, jump), flux(b, h), out=h)
    np.subtract(b, a, out=jump)
    np.multiply(alpha, jump, out=jump)
    np.subtract(h, jump, out=h)
    return np.multiply(0.5, h, out=h)


def _speed_views(w, field):
    interior = field.interior
    return *w.take("speed", interior.shape), interior, field.data


def max_wave_speed(field: CellField, model, *, out=None):
    """Global wave-speed bound of the interior data: the model's own
    ``speed_bound`` (a float, or an (alpha_x, alpha_y) pair in 2D).

    Its scratch is a temporary of ``out``, a
    :class:`~fvweno.workspace.Workspace` (a fresh one by default), bound
    with the interior view to the first field array of the shape it meets.
    The interior of another array of that shape (``cfl_dt`` meets a new one
    every step) is sliced on the call, onto the same scratch.
    """
    w = Workspace() if out is None else out
    bound = getattr(w, "speed", None)
    if bound is not None and bound[-1] is field.data:
        return model.speed_bound(bound[1], bound[0])
    if bound is None or bound[-1].shape != field.data.shape:
        bound = w.bind("speed", _speed_views, field)
    return model.speed_bound(field.interior, bound[0])


# ---------------------------------------------------------------------------
# Exact solution of the Euler Riemann problem (ideal gas), used for shock
# tube references and admissible density ranges.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiemannFan:
    """Self-similar solution of a 1D Euler Riemann problem.

    ``left``/``right`` are (rho, u, P) triples; star values describe the
    intermediate states separated by the contact.
    """

    left: tuple
    right: tuple
    p_star: float
    u_star: float
    rho_star_left: float
    rho_star_right: float

    def density_range(self):
        rhos = [self.left[0], self.right[0], self.rho_star_left, self.rho_star_right]
        return min(rhos), max(rhos)

    def sample(self, xi):
        """Primitive state (rho, u, P) at similarity coordinates xi = x/t."""
        xi = np.asarray(xi, dtype=float)
        out = (np.empty_like(xi), np.empty_like(xi), np.empty_like(xi))
        left_of_contact = xi <= self.u_star
        self._wave(xi, -1.0, left_of_contact, out)
        self._wave(xi, 1.0, ~left_of_contact, out)
        return out

    def _wave(self, xi, s, side, out):
        """Write the wave on side ``s`` of the contact (-1 left, +1 right)
        into ``out`` = (rho, u, P) where ``side`` holds.  Times s, a position
        grows away from the contact, so one set of comparisons serves both."""
        g = GAMMA
        rk, uk, pk = self.left if s < 0 else self.right
        rho_star = self.rho_star_left if s < 0 else self.rho_star_right
        ck = np.sqrt(g * pk / rk)
        ps, us = self.p_star, self.u_star
        rho, u, P = out
        sxi = s * xi
        if ps > pk:  # shock
            front = uk + s * ck * np.sqrt((g + 1.0) / (2.0 * g) * ps / pk + (g - 1.0) / (2.0 * g))
            outer = side & (sxi > s * front)
            star = side & (sxi <= s * front)
        else:  # rarefaction
            head = uk + s * ck
            tail = us + s * ck * (ps / pk) ** ((g - 1.0) / (2.0 * g))
            outer = side & (sxi > s * head)
            star = side & (sxi < s * tail)
            fan = side & (sxi >= s * tail) & (sxi <= s * head)
            cfan = (2.0 / (g + 1.0)) * (ck - s * 0.5 * (g - 1.0) * (uk - xi[fan]))
            u[fan] = (2.0 / (g + 1.0)) * (-s * ck + 0.5 * (g - 1.0) * uk + xi[fan])
            rho[fan] = rk * (cfan / ck) ** (2.0 / (g - 1.0))
            P[fan] = pk * (cfan / ck) ** (2.0 * g / (g - 1.0))
        rho[outer], u[outer], P[outer] = rk, uk, pk
        rho[star], u[star], P[star] = rho_star, us, ps


def _pressure_fn(p, state):
    rho, u, P = state
    c = np.sqrt(GAMMA * P / rho)
    if p > P:  # shock branch
        A = 2.0 / ((GAMMA + 1.0) * rho)
        B = (GAMMA - 1.0) / (GAMMA + 1.0) * P
        f = (p - P) * np.sqrt(A / (p + B))
        df = np.sqrt(A / (B + p)) * (1.0 - 0.5 * (p - P) / (B + p))
    else:  # rarefaction branch
        f = 2.0 * c / (GAMMA - 1.0) * ((p / P) ** ((GAMMA - 1.0) / (2.0 * GAMMA)) - 1.0)
        df = 1.0 / (rho * c) * (p / P) ** (-(GAMMA + 1.0) / (2.0 * GAMMA))
    return f, df


def _star_density(p, state):
    """Density behind the wave that takes ``state`` to the star pressure p."""
    rho, _, P = state
    if p > P:  # shock
        gm = (GAMMA - 1.0) / (GAMMA + 1.0)
        return rho * (p / P + gm) / (gm * p / P + 1.0)
    return rho * (p / P) ** (1.0 / GAMMA)


def exact_riemann(left, right) -> RiemannFan:
    """Solve the Riemann problem for primitive states (rho, u, P).

    Newton iteration on the pressure function with a two-rarefaction
    initial guess; falls back to bisection if Newton stalls.
    """
    rl, ul, pl = left
    rr, ur, pr = right
    cl = np.sqrt(GAMMA * pl / rl)
    cr = np.sqrt(GAMMA * pr / rr)
    du = ur - ul

    # two-rarefaction guess
    z = (GAMMA - 1.0) / (2.0 * GAMMA)
    p = ((cl + cr - 0.5 * (GAMMA - 1.0) * du) / (cl / pl**z + cr / pr**z)) ** (1.0 / z)
    p = max(p, 1e-12)

    def total(p):
        fl, dfl = _pressure_fn(p, left)
        fr, dfr = _pressure_fn(p, right)
        return fl + fr + du, dfl + dfr

    converged = False
    for _ in range(100):
        f, df = total(p)
        step = f / df
        pn = p - step
        if pn <= 0.0:
            pn = 0.5 * p
        if abs(pn - p) <= 1e-14 * max(pn, p):
            p = pn
            converged = True
            break
        p = pn
    if not converged:
        lo, hi = 1e-12, max(pl, pr)
        while total(hi)[0] < 0.0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if total(mid)[0] > 0.0:
                hi = mid
            else:
                lo = mid
        p = 0.5 * (lo + hi)

    fl, _ = _pressure_fn(p, left)
    fr, _ = _pressure_fn(p, right)
    us = 0.5 * (ul + ur) + 0.5 * (fr - fl)

    rsl = _star_density(p, left)
    rsr = _star_density(p, right)

    return RiemannFan(tuple(left), tuple(right), float(p), float(us),
                      float(rsl), float(rsr))
