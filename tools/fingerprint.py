"""Print a fingerprint of the package's outputs: one ``name sha256`` line each.

Every output is hashed through the uint64 bit patterns of its float64
values (and its shape), so two lines match only when every bit matches,
signs of zero included.  The script calls only public entry points with
arguments that older checkouts accept as well, so the ``diff`` of its
output on two checkouts is the evidence that a change kept the bits:

    PYTHONPATH=src python tools/fingerprint.py > after.txt

A change that moves bits says what moved and by how much.  ``--save``
keeps every hashed value in an ``.npz`` as well, and ``--compare`` prints,
for each name whose bits differ between two such files, the count of
differing values, the largest |difference| and the largest
|difference| / |reference| (the first file is the reference):

    PYTHONPATH=src python tools/fingerprint.py --save before.npz > before.txt
    PYTHONPATH=src python tools/fingerprint.py --compare before.npz after.npz

It covers the reconstruction kernels on seeded rows, also with two inputs
alternated on one workspace, the M weights with two linear-weight tables
alternated on one workspace, the Henrick map, the model fluxes, wave-speed
bounds and Lax-Friedrichs fluxes on seeded states (also on two rows of one array and
on two traces of one buffer one cell apart, alternated on one workspace;
the stacked form of the 2D sweeps is covered by the 2D steps), every field
of the single-step dissection reports, the final-time tables, the initial
data of every registry problem on a small grid (and its exact solution at
t = 0 and at its final time where it has one), a set of registry runs
(among them a boundary layer on a grid of unequal sides, with inflow and
outflow ghosts), and RK3 stepping where the solver reuses its buffers: 1D
steps at N = 5 000, 2D Burgers steps at 160², two schemes stepped
alternately on one 1D shape and on a square 2D grid (whose x and y sweeps
run as one stacked pass), steps of the 2D accuracy study at 10², 20² and
40², a square grid whose axes have different fluxes, a stacked tendency
and step given unequal alphas (1.5, 0.75), two Euler schemes stepped alternately on one shape with
a CFL time step every step, blast-wave steps between reflective walls, 1D
steps interleaved with 2D steps of five schemes on a grid of unequal
sides, and plain and recorded tendencies interleaved (a few seconds on one
core).
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from fvweno.dissect import (
    RiemannSetup,
    analyze_step,
    classic_schemes,
    final_time_comparison,
    final_time_schemes,
    render_table,
    zl_schemes,
)
from fvweno.harness.problems import REGISTRY, get_problem
from fvweno.harness.runs import RunConfig, run_problem
from fvweno.integrate import cfl_dt, rk3_step
from fvweno.mesh import PERIODIC, CellField, Grid1D, Grid2D, cell_average_of
from fvweno.physics import (
    ADVECTION,
    BUCKLEY_LEVERETT,
    BURGERS,
    EULER,
    QUARTIC_NONCONVEX,
    FluxPair2D,
    lf_flux,
    max_wave_speed,
)
from fvweno.solver import SemiDiscreteOp1D, SemiDiscreteOp2D
from fvweno.weno import (
    D_EDGE,
    WeightScheme,
    gauss_point_values,
    henrick_map,
    interface_states,
    nonlinear_weights,
)
from fvweno.workspace import Workspace

KERNEL_SCHEMES = (
    WeightScheme.js(),
    WeightScheme.m(),
    WeightScheme.z(),
    WeightScheme.zr(p=2.0),
    WeightScheme.zl(p=2.0, q=1.0),
    WeightScheme.linear(),
)
DISSECT_SETS = {
    "classic": classic_schemes(),
    "zl": zl_schemes(),
    "linear": (WeightScheme.linear(),),
}
REPORT_FIELDS = ("x_interfaces", "x_cells", "weights", "fluxes",
                 "solutions", "exact", "measured_errors", "formula_errors",
                 "mismatches")
RUNS = (("sod", None), ("lax", None), ("burgers1d", None),
        ("nonconvex-riemann", None), ("burgers2d", (20, 20)),
        ("boundary-layer", (20, 20)), ("boundary-layer", (24, 16)))
RUN_SCHEMES = (WeightScheme.js(), WeightScheme.z(), WeightScheme.zl(p=2.0, q=1.0))
STEP_SCHEMES = (
    WeightScheme.js(),
    WeightScheme.m(),
    WeightScheme.z(),
    WeightScheme.zr(p=2.0),
    WeightScheme.zr(p=3.0),
    WeightScheme.zl(p=2.0, q=1.0),
    WeightScheme.zl(p=2.0, q=2.0),
    WeightScheme.linear(),
)
UNEQUAL_SCHEMES = (
    WeightScheme.z(),
    WeightScheme.js(),
    WeightScheme.m(),
    WeightScheme.zr(p=2.0),
    WeightScheme.zl(p=2.0, q=2.0),
)
# The schemes of the benchmark's accuracy-2d workload.
ACCURACY_2D_SCHEMES = (
    WeightScheme.js(),
    WeightScheme.m(),
    WeightScheme.z(),
    WeightScheme.zr(p=2.0),
    WeightScheme.zl(p=5.0, q=1.0),
)
BURGERS_2D = FluxPair2D(BURGERS, BURGERS)
# The linear weights of the edge pair as a read-only stack: the right-biased
# set is the left-biased one reversed.
EDGE_PAIR = np.stack([D_EDGE, D_EDGE[::-1]])
EDGE_PAIR.flags.writeable = False


def digest(value):
    """SHA-256 of the shape and uint64 bit patterns of a float64 array, or
    of the UTF-8 bytes of a string."""
    if isinstance(value, str):
        return hashlib.sha256(value.encode()).hexdigest()
    a = np.ascontiguousarray(value, dtype=np.float64)
    h = hashlib.sha256(repr(a.shape).encode())
    h.update(a.view(np.uint64).tobytes())
    return h.hexdigest()


def printer(saved=None):
    """``emit(name, value)``: print the line of ``value``, and keep a copy
    of it in the dict ``saved`` if one is given."""
    def emit(name, value):
        if saved is not None:
            saved[name] = np.array(value) if isinstance(value, str) else \
                np.array(value, dtype=np.float64)
        print(f"{name} {digest(value)}", flush=True)
    return emit


def compare(before, after):
    """Print, per name whose bits differ between two ``--save`` files, the
    count of differing values, max |after - before| and max |after -
    before| / |before|; then how many names differ."""
    a, b = np.load(before), np.load(after)
    names = list(a.files) + [n for n in b.files if n not in a.files]
    moved = 0
    for name in names:
        if name not in a.files or name not in b.files:
            print(f"{name} only in {before if name in a.files else after}")
            moved += 1
            continue
        x, y = a[name], b[name]
        if x.dtype.kind == "U" or y.dtype.kind == "U":
            if x.shape != y.shape or not (x == y).all():
                print(f"{name} text differs")
                moved += 1
            continue
        if x.shape != y.shape:
            print(f"{name} shape {x.shape} -> {y.shape}")
            moved += 1
            continue
        differ = x.view(np.uint64) != y.view(np.uint64)
        count = int(differ.sum())
        if count == 0:
            continue
        moved += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.abs(y[differ] - x[differ])
            rel = delta / np.abs(x[differ])
        print(f"{name} {count}/{x.size} values, max|d| {np.nanmax(delta):.3e}, "
              f"max|d|/|ref| {np.nanmax(rel):.3e}")
    print(f"{moved} of {len(names)} names differ")


def kernels(emit):
    rng = np.random.default_rng(2026)
    rows = rng.normal(size=(4, 48))
    rows[1, 24:] += 10.0                                   # one jump
    rows[2] = np.where(np.arange(48) < 20, 1.0, 0.0)       # flat runs
    rows[3] *= 1e-3
    for s in KERNEL_SCHEMES:
        u_minus, u_plus, (w_minus, w_plus) = interface_states(rows, s, record=True)
        for name, a in (("u_minus", u_minus), ("u_plus", u_plus),
                        ("omega_minus", w_minus), ("omega_plus", w_plus)):
            emit(f"interface_states/{s.label}/{name}", a)
        emit(f"gauss_point_values/{s.label}", gauss_point_values(rows, s))
    # two inputs of one shape alternated on one workspace per kernel; each
    # result is hashed before the next call overwrites it
    inputs = (rows, rows[::-1] * 3.0 + 1.0)
    betas = tuple(np.abs(x[:3, :40]) for x in inputs)
    for s in KERNEL_SCHEMES:
        calls = {
            "interface_states": (inputs, lambda x, w: interface_states(x, s, out=w)),
            "gauss_point_values": (inputs, lambda x, w: gauss_point_values(x, s, out=w)),
            "nonlinear_weights": (betas, lambda x, w: nonlinear_weights(x, s, axis=0, out=w)),
            "nonlinear_weights/edge_pair": (
                betas, lambda x, w: nonlinear_weights(x, s, d=EDGE_PAIR, axis=0, out=w)),
        }
        for name, (xs, call) in calls.items():
            w = Workspace()
            for k in range(4):
                result = call(xs[k % 2], w)
                for j, a in enumerate(result if isinstance(result, tuple) else (result,)):
                    emit(f"alternating_inputs/{s.label}/{name}/call{k}/{j}", a)
    # the M weights with the module's read-only table and a writable copy of
    # it, alternated on one workspace: every call binds the weights anew
    tables = (D_EDGE, D_EDGE.copy())
    w = Workspace()
    for k in range(4):
        emit(f"alternating_tables/M/call{k}",
             nonlinear_weights(betas[0], WeightScheme.m(), d=tables[k % 2], axis=0, out=w))
    # the Henrick map on convex weights, triples on the last and on the first axis
    omega = rng.dirichlet(np.ones(3), size=250)
    emit("henrick_map/rows", henrick_map(omega[:200], D_EDGE))
    emit("henrick_map/columns", henrick_map(omega[200:].T.copy(), D_EDGE[:, None]))


def models(emit):
    rng = np.random.default_rng(2027)
    # Euler states of positive density and pressure, with a jump
    rho = rng.uniform(0.1, 3.0, size=(2, 41))
    vel = rng.uniform(-2.0, 2.0, size=(2, 41))
    P = rng.uniform(0.05, 5.0, size=(2, 41))
    P[:, 20:] *= 40.0
    states = [EULER.conserved(rho[k], vel[k], P[k]) for k in range(2)]
    scalars = [rng.normal(size=(1, 41)), rng.uniform(-0.5, 1.5, size=(1, 41))]
    cases = [(EULER, states)] + [(m, scalars) for m in (
        ADVECTION, BURGERS, QUARTIC_NONCONVEX, BUCKLEY_LEVERETT)]
    for model, (a, b) in cases:
        name = getattr(model, "name", "euler")
        emit(f"models/{name}/flux", model.flux(a))
        emit(f"models/{name}/speed_bound", model.speed_bound(np.concatenate((a, b), -1)))
        alpha = model.speed_bound(a)
        emit(f"models/{name}/lf_flux", lf_flux(a, b, model.flux, alpha))
        # two pairs alternated on one workspace; each result is hashed
        # before the next call overwrites it
        w = Workspace()
        for k in range(4):
            x, y = (a, b) if k % 2 == 0 else (b, a)
            emit(f"models/{name}/lf_flux/alternating/call{k}",
                 lf_flux(x, y, model.flux, alpha, out=w))
        # the two rows of one array, and the two traces of one buffer one
        # cell apart, as the 1D operator hands them over; alternated on one
        # workspace, each pair a new pair of views
        rows = np.stack((a, b))
        shifted = np.stack((a, np.roll(b, -1, axis=-1)))
        pairs = ((rows[0], rows[1]), (rows[1], rows[0]),
                 (shifted[0, ..., :-1], shifted[1, ..., 1:]),
                 (shifted[1, ..., 1:], shifted[0, ..., :-1]))
        for k, (x, y) in enumerate(pairs):
            emit(f"models/{name}/lf_flux/rows/call{k}", lf_flux(x, y, model.flux, alpha))
        w = Workspace()
        for k in range(8):
            x, y = pairs[k % 4]
            emit(f"models/{name}/lf_flux/rows/alternating/call{k}",
                 lf_flux(x, y, model.flux, alpha, out=w))
        field = CellField.from_interior(Grid1D(0.0, 1.0, 41), a)
        emit(f"models/{name}/max_wave_speed", max_wave_speed(field, model))


def dissection(emit):
    for nu in (0.1, 0.3, 0.5):
        for set_name, schemes in DISSECT_SETS.items():
            for rep in analyze_step(RiemannSetup(nu=nu, schemes=schemes)):
                base = f"analyze_step/nu={nu}/{set_name}/stage{rep.stage}"
                for name in REPORT_FIELDS:
                    value = getattr(rep, name)
                    if not isinstance(value, dict):
                        emit(f"{base}/{name}", value)
                        continue
                    for label, a in value.items():
                        if name == "mismatches":
                            a = np.array(a, dtype=float).reshape(-1, 3)
                        emit(f"{base}/{name}/{label}", a)
                for kind in ("weights", "fluxes", "solutions"):
                    emit(f"{base}/table/{kind}", render_table(rep, kind).to_csv())
    for t_final in (0.5, 1.0, 2.0):
        for set_name, schemes in (("final", final_time_schemes()), ("zl", zl_schemes())):
            table = final_time_comparison(RiemannSetup(schemes=schemes), t_final)
            base = f"final_time/T={t_final:g}/{set_name}"
            emit(f"{base}/columns", table.columns)
            emit(f"{base}/values", table.values)
            emit(f"{base}/csv", table.to_csv())
            emit(f"{base}/text", table.to_text())


def registry(emit):
    for pid, problem in REGISTRY.items():
        grid = problem.make_grid(24 if np.isscalar(problem.default_n) else (12, 9))
        emit(f"registry/{pid}/initial", problem.initial(grid).data)
        if problem.exact is not None:
            for t in (0.0, problem.tfinal):
                emit(f"registry/{pid}/exact/t={t:g}", problem.exact(grid, t).data)


def runs(emit):
    for pid, n in RUNS:
        for s in RUN_SCHEMES:
            result = run_problem(RunConfig(pid, s, n=n, with_reference=False))
            size = "" if n is None else "/{}x{}".format(*n)
            base = f"run_problem/{pid}{size}/{s.label}"
            emit(f"{base}/final", result.final.data)
            emit(f"{base}/steps", float(result.steps))
            if result.exact is not None:
                emit(f"{base}/exact", result.exact.data)


def field_1d(n):
    """A smooth profile with two jumps on [0, 1]."""
    return cell_average_of(
        lambda x: np.sin(2 * np.pi * x) + 0.25 * np.sin(14 * np.pi * x)
        + np.where((x > 0.3) & (x < 0.55), 1.0, 0.0), Grid1D(0.0, 1.0, n))


def field_2d(nx, ny):
    """A smooth bump on a square with one jump along x."""
    return cell_average_of(
        lambda x, y: 0.25 + 0.5 * np.sin(np.pi * (x + y)) * np.exp(-2 * (x * x + y * y))
        + np.where(x > 0.2, 0.5, 0.0), Grid2D(-1.0, 1.0, -1.0, 1.0, nx, ny))


def trajectory(u, op, dt, count):
    """``u`` and the fields after each of ``count`` RK3 steps from it."""
    fields = [u]
    for _ in range(count):
        fields.append(rk3_step(fields[-1], op, dt))
    return fields


def stepping(emit):
    # every output is kept until the end, so a later call that wrote into an
    # array handed out earlier changes its hash
    kept = []
    u1 = field_1d(5_000)
    for model in (ADVECTION, BURGERS):
        dt = cfl_dt(u1, model, 0.4)
        for s in STEP_SCHEMES:
            op = SemiDiscreteOp1D(model, s, PERIODIC)
            kept.append((f"steps/1d/{model.name}/N=5000/{s.label}",
                         trajectory(u1, op, dt, 10)[-1]))
    u2 = field_2d(160, 160)
    dt2 = cfl_dt(u2, BURGERS_2D, 0.4)
    for s in KERNEL_SCHEMES:
        op = SemiDiscreteOp2D(BURGERS_2D, s, PERIODIC)
        kept.append((f"steps/2d/burgers/160x160/{s.label}", trajectory(u2, op, dt2, 3)[-1]))
    # two schemes on one shape, stepped alternately
    dt = cfl_dt(u1, BURGERS, 0.4)
    ops = [SemiDiscreteOp1D(BURGERS, s, PERIODIC)
           for s in (WeightScheme.m(), WeightScheme.zl(p=2.0, q=2.0))]
    us = [u1, u1]
    for k in range(6):
        for j, op in enumerate(ops):
            us[j] = rk3_step(us[j], op, dt)
            kept.append((f"alternating/{op.scheme.label}/step{k}", us[j]))
    # two schemes stepped alternately on a square 2D grid
    sq = field_2d(20, 20)
    dt_sq = cfl_dt(sq, BURGERS_2D, 0.4)
    ops = [SemiDiscreteOp2D(BURGERS_2D, s, PERIODIC)
           for s in (WeightScheme.m(), WeightScheme.zl(p=2.0, q=2.0))]
    sqs = [sq, sq]
    for k in range(4):
        for j, op in enumerate(ops):
            sqs[j] = rk3_step(sqs[j], op, dt_sq)
            kept.append((f"alternating/2d/20x20/{op.scheme.label}/step{k}", sqs[j]))
    # the accuracy study's advected diamond at the sizes whose axes take one
    # stacked pass (10², 20², 40²), five steps of each of its schemes
    diamond = get_problem("advection2d-accuracy")
    for n in (10, 20, 40):
        v = diamond.initial(diamond.make_grid((n, n)))
        for s in ACCURACY_2D_SCHEMES:
            op = SemiDiscreteOp2D(diamond.model, s, diamond.bc)
            kept.append((f"steps/2d/diamond/{n}x{n}/{s.label}",
                         trajectory(v, op, 0.4 * v.grid.dx, 5)[-1]))
    # a square grid whose axes have different fluxes (a pass per axis), and
    # a tendency and a step of a stacked square grid given unequal alphas
    mixed = FluxPair2D(BURGERS, ADVECTION)
    for s in (WeightScheme.z(), WeightScheme.m()):
        op = SemiDiscreteOp2D(mixed, s, PERIODIC)
        kept.append((f"steps/2d/mixed/20x20/{s.label}",
                     trajectory(sq, op, cfl_dt(sq, mixed, 0.4), 3)[-1]))
        op = SemiDiscreteOp2D(BURGERS_2D, s, PERIODIC)
        kept += [(f"alpha/2d/20x20/{s.label}/tendency", op(sq, alpha=(1.5, 0.75))),
                 (f"alpha/2d/20x20/{s.label}/step",
                  rk3_step(sq, op, dt_sq, alpha=(1.5, 0.75)))]
    # two Euler schemes on one shape, stepped alternately, each with its own
    # CFL time step
    sod = get_problem("sod")
    ops = [SemiDiscreteOp1D(EULER, s, sod.bc)
           for s in (WeightScheme.m(), WeightScheme.zl(p=2.0, q=2.0))]
    tubes = [sod.initial(sod.make_grid(100))] * 2
    for k in range(6):
        for j, op in enumerate(ops):
            dt_tube = cfl_dt(tubes[j], EULER, 0.4)
            tubes[j] = rk3_step(tubes[j], op, dt_tube)
            kept += [(f"euler/alternating/{op.scheme.label}/step{k}", tubes[j]),
                     (f"euler/alternating/{op.scheme.label}/dt{k}", dt_tube)]
    # the blast wave between reflective walls, a few steps only
    blast = get_problem("blastwave")
    for s in (WeightScheme.js(), WeightScheme.z()):
        op = SemiDiscreteOp1D(EULER, s, blast.bc)
        v = blast.initial(blast.make_grid(200))
        for k in range(3):
            v = rk3_step(v, op, cfl_dt(v, EULER, 0.4))
            kept.append((f"euler/blastwave/{s.label}/step{k}", v))
    # 1D and 2D steps interleaved, on a 2D grid of unequal sides, whose x and
    # y sweeps run on arrays of different shapes
    op_a = SemiDiscreteOp1D(BURGERS, WeightScheme.z(), PERIODIC)
    for s in UNEQUAL_SCHEMES:
        a, b = field_1d(40), field_2d(24, 17)
        op_b = SemiDiscreteOp2D(BURGERS_2D, s, PERIODIC)
        dt_a, dt_b = cfl_dt(a, BURGERS, 0.4), cfl_dt(b, BURGERS_2D, 0.4)
        for k in range(5):
            a, b = rk3_step(a, op_a, dt_a), rk3_step(b, op_b, dt_b)
            kept += [(f"interleaved/{s.label}/1d/step{k}", a),
                     (f"interleaved/{s.label}/2d/step{k}", b)]
    # plain and recorded tendencies interleaved, on one shape
    op = SemiDiscreteOp1D(BURGERS, WeightScheme.zr(p=2.0), PERIODIC)
    for k, u in enumerate(trajectory(u1, op, dt, 3)):
        plain = op(u)
        recorded, rec = op.tendency_recorded(u)
        kept += [(f"tendencies/{k}/plain", plain), (f"tendencies/{k}/recorded", recorded),
                 (f"tendencies/{k}/omega_minus", rec.omega_minus),
                 (f"tendencies/{k}/omega_plus", rec.omega_plus),
                 (f"tendencies/{k}/flux", rec.flux)]
    for name, value in kept:
        emit(name, getattr(value, "data", value))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--save", metavar="PATH.npz",
                        help="also keep every hashed value in this file")
    parser.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"),
                        help="list what differs between two saved runs, A the reference")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return
    saved = {} if args.save else None
    emit = printer(saved)
    for part in (kernels, models, dissection, registry, runs, stepping):
        part(emit)
    if args.save:
        np.savez(args.save, **saved)


if __name__ == "__main__":
    main()
