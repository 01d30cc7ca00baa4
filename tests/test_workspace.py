"""Reused buffers: what the solver hands out never aliases a workspace.

The operators write every temporary into the calling thread's one
workspace, shared by all operators and shapes.  These tests keep what a
call hands out, make further calls in the same thread, and
require the kept arrays to be unchanged and every result to match a run
with nothing else interleaved.  The views a workspace keeps are bound to
the arrays a kernel is called with: other arrays bind them anew, steady
stepping binds none, and a grown region takes them with it.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fvweno import weno as weno_module
from fvweno import workspace as workspace_module
from fvweno.errors import ConfigurationError, DivergenceError
from fvweno.harness.problems import get_problem
from fvweno.integrate import cfl_dt, integrate_to, rk3_step
from fvweno.mesh import (
    OUTFLOW,
    PERIODIC,
    CellField,
    Grid1D,
    Grid2D,
    cell_average_of,
    fill_ghosts,
)
from fvweno.physics import ADVECTION, BURGERS, EULER, FluxPair2D, lf_flux
from fvweno.solver import SemiDiscreteOp1D, SemiDiscreteOp2D
from fvweno.weno import (
    _D_EDGE_PAIR,
    WeightScheme,
    gauss_point_values,
    henrick_map,
    interface_states,
    nonlinear_weights,
)
from fvweno.workspace import Workspace, workspace

from oracle_utils import same_bits

N = 600


def _fields(n=N, count=2):
    """``count`` different fields with jumps on one periodic grid."""
    grid = Grid1D(0.0, 1.0, n)
    return [cell_average_of(lambda x, k=k: np.sin(2 * np.pi * (x + 0.1 * k))
                            + np.where((x > 0.3 + 0.05 * k) & (x < 0.6), 1.0, 0.0), grid)
            for k in range(count)]


def _op(scheme, model=BURGERS):
    return SemiDiscreteOp1D(model, scheme, PERIODIC)


_BURGERS_2D = SemiDiscreteOp2D(FluxPair2D(BURGERS, BURGERS), WeightScheme.z(), PERIODIC)


def test_recorded_arrays_and_tendency_survive_later_tendencies():
    u, v = _fields()
    op = _op(WeightScheme.z())
    tend, rec = op.tendency_recorded(u)
    kept = [tend.data, rec.omega_minus, rec.omega_plus, rec.flux]
    snaps = [a.copy() for a in kept]
    _op(WeightScheme.m()).tendency_recorded(v)
    op.tendency_recorded(v)
    op(v)
    for a, snap in zip(kept, snaps):
        assert same_bits(a, snap)


def _fields_2d():
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 12, 9)
    return [CellField.from_interior(grid, np.sin(np.arange(108.0) * k).reshape(12, 9))
            for k in (1, 2)]


@pytest.mark.parametrize("op, fields", [
    (_op(WeightScheme.zl(p=2, q=2)), _fields()),
    (SemiDiscreteOp2D(FluxPair2D(BURGERS, BURGERS), WeightScheme.zl(p=2, q=2), PERIODIC),
     _fields_2d()),
], ids=("1d", "2d"))
def test_operator_result_survives_the_next_call(op, fields):
    first = op(fields[0])
    snap = first.data.copy()
    second = op(fields[1])
    assert same_bits(first.data, snap)
    assert not np.shares_memory(first.data, second.data)


def _arrays(result):
    """The arrays of a kernel's result, nested in tuples to any depth; what
    is neither is left out."""
    if isinstance(result, np.ndarray):
        return [result]
    if not isinstance(result, tuple):
        return []
    return [a for part in result for a in _arrays(part)]


def test_public_kernel_results_belong_to_the_caller():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 3, 40))
    calls = [
        lambda x: interface_states(x, WeightScheme.z(), record=True),
        lambda x: gauss_point_values(x, WeightScheme.m()),
        lambda x: nonlinear_weights(np.abs(x[..., :3]), WeightScheme.zr(p=2)),
        lambda x: henrick_map(np.abs(x) / (1.0 + np.abs(x)), 0.3),
        lambda x: lf_flux(x, x[::-1], BURGERS.flux, 2.0),
    ]
    for call in calls:
        first = _arrays(call(a))
        snaps = [r.copy() for r in first]
        call(b)
        assert all(same_bits(r, s) for r, s in zip(first, snaps))
    field = _fields(12)[0]
    filled = fill_ghosts(field, PERIODIC)
    snap = filled.data.copy()
    fill_ghosts(_fields(12, 2)[1], PERIODIC)
    assert same_bits(filled.data, snap)


def _run(op, u, dt, steps, records, keep=lambda a: a):
    """``steps`` RK3 steps, appending ``keep`` of the weights and fluxes of
    every stage to ``records``."""
    def observer(stage, field, rec):
        records.append([keep(a) for a in (rec.omega_minus, rec.omega_plus, rec.flux)])

    for _ in range(steps):
        u = rk3_step(u, op, dt, observer=observer)
    return u


def test_two_schemes_stepped_alternately_match_solo_runs():
    # the solo runs keep copies taken as each stage ends; the alternating
    # runs keep the arrays handed out, compared after every step is done
    u, _ = _fields()
    dt = cfl_dt(u, BURGERS, 0.4)
    ops = [_op(WeightScheme.m()), _op(WeightScheme.zl(p=2, q=2))]
    solo = []
    for op in ops:
        records = []
        solo.append((_run(op, u, dt, 4, records, keep=np.copy), records))
    fields, records = [u, u], [[], []]
    for _ in range(4):
        for k, op in enumerate(ops):
            fields[k] = _run(op, fields[k], dt, 1, records[k])
    for (want, want_recs), got, got_recs in zip(solo, fields, records):
        assert same_bits(got.data, want.data)
        assert len(got_recs) == len(want_recs) == 12
        for r, s in zip(got_recs, want_recs):
            assert all(same_bits(a, b) for a, b in zip(r, s))


def test_threads_stepping_one_shape_match_serial_runs():
    # more threads than cores and a short switch interval, so the threads
    # interleave inside every step; each keeps its own workspace
    u, _ = _fields(2_000)
    dt = cfl_dt(u, BURGERS, 0.4)
    schemes = [WeightScheme.js(), WeightScheme.m(), WeightScheme.z(),
               WeightScheme.zl(p=2, q=2)]
    serial = [_run(_op(s), u, dt, 6, []) for s in schemes]
    results = [None] * len(schemes)

    def work(k):
        try:
            results[k] = _run(_op(schemes[k]), u, dt, 6, [])
        except Exception as exc:  # reported by the assertion below
            results[k] = exc

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(schemes))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        assert isinstance(got, CellField), got
        assert same_bits(got.data, want.data)


def test_one_workspace_per_thread():
    u, = _fields(20, 1)
    mine = workspace()
    rk3_step(u, _op(WeightScheme.z()), 0.01)
    rk3_step(_fields_2d()[0], _BURGERS_2D, 0.01)
    assert workspace() is mine
    assert _in_new_thread(workspace) is not mine


def _shape_cases():
    """Fields of four padded shapes with their operators and steps: 1D
    advection at N = 20 and 40, Sod at N = 40 and 12² 2D Burgers."""
    sod = get_problem("sod")
    cases = [(cell_average_of(lambda x: np.sin(np.pi * x) + 0.5, Grid1D(-1.0, 1.0, n)),
              _op(WeightScheme.z(), ADVECTION), 0.02) for n in (20, 40)]
    u = sod.initial(sod.make_grid(40))
    cases.append((u, SemiDiscreteOp1D(EULER, WeightScheme.zl(p=2, q=2), sod.bc),
                  cfl_dt(u, EULER, 0.4)))
    cases.append((CellField.from_interior(Grid2D(-1.0, 1.0, -1.0, 1.0, 12, 12),
                                          np.sin(np.arange(144.0)).reshape(12, 12)),
                  SemiDiscreteOp2D(FluxPair2D(BURGERS, BURGERS), WeightScheme.m(), PERIODIC),
                  0.01))
    return cases


def test_shapes_stepped_alternately_in_one_thread_match_solo_runs():
    # the thread's one workspace binds each layer anew on each new shape,
    # and a small shape after a large one carves from the grown regions
    cases = _shape_cases()
    solo = [_in_new_thread(lambda c=c: _steps(*c, 3)) for c in cases]
    order = (3, 0, 2, 1, 0, 3, 2, 1, 0, 3, 1, 2)         # each case three times

    def alternate():
        fields = [u for u, _, _ in cases]
        for k in order:
            _, op, dt = cases[k]
            fields[k] = rk3_step(fields[k], op, dt)
        return fields

    for got, want in zip(_in_new_thread(alternate), solo):
        assert np.array_equal(got.data, want.data)


def _steps(u, op, dt, steps):
    for _ in range(steps):
        u = rk3_step(u, op, dt)
    return u


@pytest.mark.parametrize("op, valid, field, message", [
    (_op(WeightScheme.z()), _fields(20, 1)[0], _fields_2d()[0],
     "SemiDiscreteOp1D requires a 1D field"),
    (_BURGERS_2D, _fields_2d()[0], _fields(20, 1)[0], "SemiDiscreteOp2D requires a 2D field"),
    (_BURGERS_2D, _fields_2d()[0], CellField.zeros(Grid2D(-1.0, 1.0, -1.0, 1.0, 12, 9), ncomp=3),
     "2D solver is scalar only"),
], ids=("1d-op-2d-field", "2d-op-1d-field", "2d-op-3-components"))
def test_operators_refuse_a_field_after_a_steady_step(op, valid, field, message):
    # two steps of a valid field leave the thread's one workspace holding
    # the operator's bindings to it; the refusal leaves them usable
    def work():
        u = _steps(valid, op, 0.01, 2)
        with pytest.raises(ConfigurationError, match=message):
            op(field)
        return _steps(u, op, 0.01, 1).data

    assert np.array_equal(_in_new_thread(work),
                          _in_new_thread(lambda: _steps(valid, op, 0.01, 3).data))


def test_sibling_workspaces_share_temporaries_not_results():
    # the Gauss pass on the stacked traces first, so the regions it carves
    # are large enough for the interface sweep after it; its first call grows
    # them layer by layer, and the second carves every layer anew
    rows = np.random.default_rng(5).normal(size=(2, 7, 30))
    base = Workspace()
    sibling = Workspace(scratch=base)
    for _ in range(2):
        vals = gauss_point_values(rows, WeightScheme.m(), out=sibling)
    kept = vals.copy()
    traces = interface_states(rows[0], WeightScheme.m(), out=base)
    h = lf_flux(traces[0], traces[1], BURGERS.flux, 2.0, out=base)
    assert same_bits(vals, kept)
    layers = ("indicators", "factor", "weights", "henrick", "combine")
    for layer in layers:
        assert np.shares_memory(getattr(base, layer)[0], getattr(sibling, layer)[0])
    temporaries = [a for ws in (base, sibling) for layer in layers
                   for a in getattr(ws, layer) if a is not None]
    for result in (vals, *traces, h):
        assert not any(np.shares_memory(result, t) for t in temporaries)


def test_a_grown_region_drops_the_layers_carved_from_it():
    base = Workspace()
    sibling = Workspace(scratch=base)
    rows = np.random.default_rng(7).normal(size=(3, 40))
    for _ in range(2):                      # the second call finds every layer bound
        traces = interface_states(rows, WeightScheme.m(), out=base)
    kept = [t.copy() for t in traces]
    layers = ("indicators", "factor", "weights", "henrick", "combine")
    assert all(hasattr(base, layer) for layer in layers)
    sibling.combine = sibling.take("combine", (4, 10))
    old = base._memory["b"]
    sibling.take("weights", (old.size + 1,), None)          # region b grows
    # every layer carved from any region goes, in every workspace sharing
    # them, and with the views they kept nothing holds the old memory
    assert not any(hasattr(ws, layer) for ws in (base, sibling)
                   for layer in workspace_module.LAYOUT)
    assert not any(np.shares_memory(a, old) for ws in (base, sibling)
                   for a in _arrays(tuple(vars(ws).values())))
    # the results stay, and the next call binds anew to the same values
    assert all(same_bits(t, k) for t, k in zip(traces, kept))
    again = interface_states(rows, WeightScheme.m(), out=base)
    assert all(same_bits(t, k) for t, k in zip(again, kept))
    small = Workspace(scratch=base).take("combine", (2, 10))[0]
    assert np.shares_memory(small, sibling.take("combine", (4, 10))[0])


def _step_peak_per_cell(scheme, n=96):
    """``tracemalloc`` peak of one RK3 step of 2D Burgers on n² cells, in a
    new thread whose workspace starts empty, per padded cell (bytes)."""
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, n, n)
    u = cell_average_of(lambda x, y: 0.25 + 0.5 * np.sin(np.pi * (x + y)), grid)
    model = FluxPair2D(BURGERS, BURGERS)
    op = SemiDiscreteOp2D(model, scheme, PERIODIC)
    dt = cfl_dt(u, model, 0.4)
    stepped = []
    tracemalloc.start()
    try:
        worker = threading.Thread(target=lambda: stepped.append(rk3_step(u, op, dt)))
        worker.start()
        worker.join(timeout=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not worker.is_alive() and stepped
    return peak / (n + 6) ** 2


# Before the temporaries were planned by lifetime and the two traces stacked
# for one Gauss pass, a step took 764.6 (Z) and 1032.2 (M) bytes per padded
# cell here; then 621.8 and 782.6, 584.2 and 768.9 with the model fluxes in
# place, 567.7 and 753.8 with the sweeps reconstructing only the rows their
# faces read, the face buffers made when the sweeps bind (so live while the
# first step grows the regions), 568.1 and 768.2, and now, with the jump of
# the Lax-Friedrichs flux a temporary, 551.2 and 768.2.  A square grid of
# at most solver.STACK_FACES faces reconstructs both axes in one pass, on
# twice the temporaries: at 40² a step took 962.1 (Z) and 1316.7 (M) bytes
# per padded cell, bound here at 5 % above that; 96² takes a pass per axis.
@pytest.mark.parametrize("scheme, n, bound", [(WeightScheme.z(), 96, 625.0),
                                              (WeightScheme.m(), 96, 785.0),
                                              (WeightScheme.z(), 40, 1010.0),
                                              (WeightScheme.m(), 40, 1383.0)],
                         ids=("z", "m", "z-40x40", "m-40x40"))
def test_2d_step_memory_per_padded_cell(scheme, n, bound):
    assert _step_peak_per_cell(scheme, n) <= bound


SCHEMES = (WeightScheme.js(), WeightScheme.m(), WeightScheme.z(), WeightScheme.zr(p=2),
           WeightScheme.zl(p=2, q=2), WeightScheme.linear())


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_two_inputs_alternated_on_one_workspace_match_fresh_calls(scheme):
    # each layer keeps views bound to the arrays it was called with; a call
    # on other arrays of the same shape must bind anew, not read the old ones
    rng = np.random.default_rng(11)
    rows = [rng.normal(size=(3, 40)) for _ in range(2)]
    rows[1][:, 20:] += 5.0
    betas = [np.abs(r[:, :30]) for r in rows]
    calls = [
        (rows, lambda x, w: interface_states(x, scheme, record=True, out=w)),
        (rows, lambda x, w: gauss_point_values(x, scheme, out=w)),
        (betas, lambda x, w: nonlinear_weights(x, scheme, axis=0, out=w)),
        (betas, lambda x, w: nonlinear_weights(x, scheme, d=_D_EDGE_PAIR, axis=0, out=w)),
    ]
    for inputs, call in calls:
        w = Workspace()
        for k in range(4):
            x = inputs[k % 2]
            got, want = _arrays(call(x, w)), _arrays(call(x, Workspace()))
            assert len(got) == len(want)
            assert all(same_bits(a, b) for a, b in zip(got, want))


def test_arguments_that_may_change_are_read_anew_on_every_call():
    # the weights keep their linear weights and Henrick coefficients only
    # for a read-only table, as the module's are, and the ghost fill its
    # steps only for conditions in a tuple
    beta = np.abs(np.random.default_rng(12).normal(size=(3, 20)))
    d = np.array([0.2, 0.5, 0.3])
    w = Workspace()
    for _ in range(2):                      # the second call finds every layer bound
        nonlinear_weights(beta, WeightScheme.m(), d=d, axis=0, out=w)
    d[:] = [0.1, 0.6, 0.3]
    got = nonlinear_weights(beta, WeightScheme.m(), d=d, axis=0, out=w)
    assert same_bits(got, nonlinear_weights(beta, WeightScheme.m(), d=d.copy(), axis=0))
    field = _fields(12, 1)[0]
    sides = [OUTFLOW, OUTFLOW]
    for _ in range(2):
        fill_ghosts(field, sides, out=w)
    sides[:] = [PERIODIC, PERIODIC]
    got = fill_ghosts(field, sides, out=w)
    assert same_bits(got.data, fill_ghosts(field, tuple(sides)).data)


def _in_new_thread(fn):
    """``fn()`` in a new thread, whose workspace starts empty."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=60)
    assert out
    return out[0]


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_bound_layers_still_check_what_they_are_not_bound_to(scheme):
    # a layer converts and checks its input when it binds, and a call with
    # the array it is bound to is not checked again; every other input is
    rng = np.random.default_rng(14)
    beta = np.abs(rng.normal(size=(3, 20)))
    w = Workspace()
    for _ in range(2):                      # the second call finds every layer bound
        nonlinear_weights(beta, scheme, axis=0, out=w)
    for bad in (beta.T, beta[:2]):          # another shape; 2 on the triple axis
        with pytest.raises(ConfigurationError):
            nonlinear_weights(bad, scheme, axis=0, out=w)
    want = nonlinear_weights(beta, scheme, axis=0)
    for x in (beta.tolist(), beta):         # a list equal to the bound array, then it
        assert same_bits(nonlinear_weights(x, scheme, axis=0, out=w), want)
    upad = rng.normal(size=(3, 26))
    for _ in range(2):
        interface_states(upad, scheme, record=True, out=w)
    strided = rng.normal(size=(3, 52))[:, ::2]
    for x in (strided, np.arange(78).reshape(3, 26) % 7, upad):
        got = _arrays(interface_states(x, scheme, record=True, out=w))
        want = _arrays(interface_states(x, scheme, record=True))
        assert all(same_bits(a, b) for a, b in zip(got, want, strict=True))
    for _ in range(2):
        gauss_point_values(upad, scheme, out=w)
    with pytest.raises(ConfigurationError):
        gauss_point_values(upad[:, :4], scheme, out=w)
    for x in (strided, np.arange(78).reshape(3, 26) % 7, upad):
        assert same_bits(gauss_point_values(x, scheme, out=w), gauss_point_values(x, scheme))


def test_one_operator_alternating_grids_of_one_shape_matches_fresh_runs():
    # the tendencies bind -dx (and dy in 2D) to the grid: another grid of the
    # same padded shape and another dx and dy binds anew
    cases = [([cell_average_of(lambda x: np.sin(np.pi * x) + 0.5, grid)
               for grid in (Grid1D(-1.0, 1.0, 20), Grid1D(0.0, 3.0, 20))], _op(WeightScheme.z())),
             ([cell_average_of(lambda x, y: np.sin(np.pi * (x + y)) + 0.5, grid)
               for grid in (Grid2D(-1.0, 1.0, -1.0, 1.0, 12, 12),
                            Grid2D(0.0, 3.0, 0.0, 0.5, 12, 12))], _BURGERS_2D)]
    for fields, op in cases:
        wants = [_in_new_thread(lambda f=f: op(f).data) for f in fields]
        gots = _in_new_thread(lambda: [op(fields[k % 2]).data for k in range(6)])
        assert all(same_bits(got, wants[k % 2]) for k, got in enumerate(gots))


def _stepping_case(label):
    """A function that makes a field, each call on a new grid object of one
    padded shape, as ``Problem.make_grid`` does for each solve; an operator
    for a scheme; and a function that steps a field with the operator,
    calling ``after(step)`` after each of at least seven steps."""
    if label == "sod-40":
        # integrate_to in CFL mode: cfl_dt bounds the wave speed every step
        sod = get_problem("sod")

        def run(u, op, after):
            integrate_to(u, op, 0.6, sod.time, step_callback=lambda step, t, v: after(step))

        return (lambda: sod.initial(sod.make_grid(40)),
                lambda s: SemiDiscreteOp1D(EULER, s, sod.bc), run)

    def run(u, op, after):
        for step in range(1, 8):
            u = rk3_step(u, op, 0.01)
            after(step)

    if label == "1d":
        return lambda: _fields(20, 1)[0], _op, run
    nx, ny = map(int, label[3:].split("x"))
    return (lambda: cell_average_of(lambda x, y: 0.25 + 0.5 * np.sin(np.pi * (x + y)),
                                    Grid2D(-1.0, 1.0, -1.0, 1.0, nx, ny)),
            lambda s: SemiDiscreteOp2D(FluxPair2D(BURGERS, BURGERS), s, PERIODIC), run)


@pytest.mark.parametrize("label", ["1d", "2d-12x12", "2d-13x9", "sod-40"])
def test_steady_stepping_binds_no_views(label, monkeypatch):
    # each scheme steps a field on a new grid of the shape, as every solve
    # of the harness does; after two warm-up steps every kernel meets the
    # arrays it is bound to, binds nothing and converts no weight input: on
    # the square grid the x and y sweeps share their workspaces
    make_field, make_op, run = _stepping_case(label)
    builds = []
    bind, triples = Workspace.bind, weno_module._triples

    def counted(self, layer, build, *args):
        builds.append(layer)
        return bind(self, layer, build, *args)

    def converted(beta, axis):
        builds.append("triples")
        return triples(beta, axis)

    monkeypatch.setattr(Workspace, "bind", counted)
    monkeypatch.setattr(weno_module, "_triples", converted)
    counts = {}

    def work():                     # a new thread: its workspace starts empty
        for s in SCHEMES:
            del builds[:]
            marks = {}              # binds and conversions by the end of each step
            run(make_field(), make_op(s), lambda step: marks.setdefault(step, len(builds)))
            counts[s.label] = (len(marks), marks[2], builds[marks[2]:])

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=60)
    assert len(counts) == len(SCHEMES)
    for name, (steps, warm, steady) in counts.items():
        assert steps >= 7 and warm > 0 and steady == [], (label, name, steps, steady)


# --- the buffer plan against a plan with a region per temporary --------------


def _plan_outputs():
    """Copies of what the kernels hand out and of two RK3 steps, under the
    plan in force: the interface traces with their weights and the
    Gauss-point values on a (2, 37) jump for six schemes, and two steps of
    Sod at N = 40, of the 12² diamond and of 13×9 burgers2d for five."""
    x = np.arange(37.0)
    jump = np.stack([np.where(x < 18, 1.0, 0.0) + 0.1 * np.sin(x), np.where(x < 9, -2.0, 0.5)])
    outputs = []
    for s in SCHEMES:
        outputs += [a.copy() for a in _arrays(interface_states(jump, s, record=True))]
        outputs.append(gauss_point_values(jump, s).copy())
    for pid, n in (("sod", 40), ("advection2d-accuracy", 12), ("burgers2d", (13, 9))):
        prob = get_problem(pid)
        u = prob.initial(prob.make_grid(n))
        make_op = SemiDiscreteOp2D if isinstance(prob.model, FluxPair2D) else SemiDiscreteOp1D
        dt = cfl_dt(u, prob.model, 0.4)
        for s in SCHEMES[:5]:
            op, v = make_op(prob.model, s, prob.bc), u
            for _ in range(2):
                v = rk3_step(v, op, dt)
            outputs.append(v.data)
    return outputs


def _under_plan(monkeypatch, layout):
    """``_plan_outputs`` in a new thread, whose workspace starts empty, with
    the temporaries carved by ``layout`` in place of the package's plan;
    what it raises is returned."""
    with monkeypatch.context() as patch:
        patch.setattr(workspace_module, "LAYOUT", layout)
        result = []

        def work():
            try:
                result.append(_plan_outputs())
            except DivergenceError as exc:
                result.append(exc)

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=120)
    assert not worker.is_alive() and result
    return result[0]


def test_shared_plan_matches_a_region_per_temporary(monkeypatch):
    # a temporary read after a region-mate overwrote it shows here, where a
    # fresh and a reused call, carved by the same plan, agree
    layout = workspace_module.LAYOUT
    shared = _under_plan(monkeypatch, layout)
    names = iter("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
    own = {layer: "".join(next(names) for _ in regions) for layer, regions in layout.items()}
    alone = _under_plan(monkeypatch, own)
    assert len(shared) == len(alone) == 45
    assert all(same_bits(a, b) for a, b in zip(shared, alone))
    # the oracle sees a plan that puts the weights in the factor's region,
    # where phi is still read
    broken = _under_plan(monkeypatch, {**layout, "weights": "ac"})
    assert isinstance(broken, DivergenceError) or not all(
        same_bits(a, b) for a, b in zip(shared, broken))
