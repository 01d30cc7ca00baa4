"""The numpy calls of a steady RK3 step: none is given a Python number or a
keyword, and their count does not grow.

At the paper's sizes a step costs numpy dispatch, not arithmetic, so each
call is the unit of cost: a Python float operand costs a call about 220 ns
more than a float64 0-d array, and a keyword ``out=`` 40-57 ns more than a
positional one (the call convention of ``fvweno.workspace``).  Every ufunc
of numpy is wrapped, for the one step counted, in an object that notes its
calls and those of its ``reduce``.
"""

import numpy as np
import pytest

from fvweno.harness.problems import get_problem
from fvweno.integrate import cfl_dt, rk3_step
from fvweno.physics import max_wave_speed
from fvweno.solver import SemiDiscreteOp1D, SemiDiscreteOp2D
from fvweno.weno import WeightScheme
from fvweno.workspace import workspace

PYTHON_NUMBERS = (bool, int, float)


class _Noted:
    """A ufunc whose calls, and those of its ``reduce``, are noted in
    ``calls`` as (name, types of the Python numbers among the arguments,
    keywords); other attributes are the ufunc's."""

    def __init__(self, ufunc, calls):
        self._ufunc, self._calls = ufunc, calls

    def _note(self, name, args, kwargs):
        numbers = [type(x).__name__ for x in (*args, *kwargs.values())
                   if type(x) in PYTHON_NUMBERS]
        self._calls.append((name, numbers, sorted(kwargs)))

    def __call__(self, *args, **kwargs):
        self._note(self._ufunc.__name__, args, kwargs)
        return self._ufunc(*args, **kwargs)

    def reduce(self, *args, **kwargs):
        self._note(f"{self._ufunc.__name__}.reduce", args, kwargs)
        return self._ufunc.reduce(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ufunc, name)


def _fixed_dt(pid, scheme, n, dt_per_dx):
    problem = get_problem(pid)
    u = problem.initial(problem.make_grid(n))
    op = (SemiDiscreteOp2D if isinstance(n, tuple) else SemiDiscreteOp1D)(
        problem.model, scheme, problem.bc)
    return u, lambda u: rk3_step(u, op, dt_per_dx * u.grid.dx)


def _cfl(pid, scheme, n):
    # a CFL step as integrate_to takes it: one bound for dt and stage 1
    problem = get_problem(pid)
    u = problem.initial(problem.make_grid(n))
    op = SemiDiscreteOp1D(problem.model, scheme, problem.bc)

    def step(u):
        alpha = max_wave_speed(u, problem.model, out=workspace())
        return rk3_step(u, op, cfl_dt(u, problem.model, 0.4, alpha=alpha), alpha=alpha)

    return u, step


# the case, and the most ufunc calls its steady step may make: the counts of
# the step that made every operand a 0-d array, less the three sums of the
# stage checks a dot with zeros replaced (a dot is not a ufunc)
CASES = {
    "advection-js-20": (lambda: _fixed_dt("advection1d-accuracy", WeightScheme.js(), 20, 0.1), 93),
    "advection-m-20": (lambda: _fixed_dt("advection1d-accuracy", WeightScheme.m(), 20, 0.1), 126),
    "advection-z-20": (lambda: _fixed_dt("advection1d-accuracy", WeightScheme.z(), 20, 0.1), 102),
    "advection-zr-20": (lambda: _fixed_dt("advection1d-accuracy", WeightScheme.zr(p=2.0), 20,
                                          0.1), 108),
    "advection-zl-20": (lambda: _fixed_dt("advection1d-accuracy", WeightScheme.zl(p=2.0, q=2.0),
                                          20, 0.1), 111),
    "sod-z-50": (lambda: _cfl("sod", WeightScheme.z(), 50), 159),
    "advection2d-z-10x10": (lambda: _fixed_dt("advection2d-accuracy", WeightScheme.z(), (10, 10),
                                              0.4), 195),
}


@pytest.mark.parametrize("case", CASES, ids=CASES)
def test_a_steady_step_gives_numpy_no_python_number_nor_keyword(case, monkeypatch):
    make, most = CASES[case]
    u, step = make()
    for _ in range(2):                      # bind every layer: the next step is steady
        u = step(u)
    calls = []
    for name in dir(np):
        if isinstance(getattr(np, name), np.ufunc):
            monkeypatch.setattr(np, name, _Noted(getattr(np, name), calls))
    step(u)
    monkeypatch.undo()
    assert [call for call in calls if call[1] or call[2]] == []
    assert 0 < len(calls) <= most
