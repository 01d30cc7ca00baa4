"""Print the cost of one RK3 step per weight family: one line per case.

    PYTHONPATH=src python tools/stepcost.py

Each line gives the fastest of a run of steps (and that time per cell),
the median step beside it, and the minor page faults a step, for JS, M, Z,
ZR(2) and ZL(2,2) on:

- 1D periodic advection of a smooth profile with jumps, N = 20, 5 000 and
  100 000 cells, dt = 0.1 dx;
- the 1D Euler Sod shock tube of the problem registry, N = 200, with a
  CFL 0.4 time step (``cfl_dt``) taken in every timed step;
- 2D periodic Burgers of a smooth bump, 40², 160² and 400² cells, CFL 0.4;
- the 2D accuracy study's advected diamond of the problem registry, 10²
  and 20² cells, dt = 0.4 dx, the sizes of the benchmark's accuracy-2d
  workload.

A median well above the fastest step says the host was busy during the
run, not that the family is slower.

Two untimed steps come first, so the faults counted are those of steady
stepping.  Faults are the process's own
``resource.getrusage(RUSAGE_SELF).ru_minflt`` over the timed steps; the
script reads no other process and changes no system setting.  It takes
under a minute on one core; the time per step depends on the host and
its neighbours, the fault counts do not.

A 2D line also gives the memory of one step: the ``tracemalloc`` peak of
one more, untimed step, taken after the timed ones in a new thread, whose
workspaces start empty, so it counts every buffer a step makes.  Like the
fault counts, and unlike ``ru_maxrss``, it does not depend on the host.
"""

from __future__ import annotations

import resource
import threading
import time
import tracemalloc

import numpy as np

from fvweno.harness.problems import get_problem
from fvweno.integrate import cfl_dt, rk3_step
from fvweno.mesh import PERIODIC, Grid1D, Grid2D, cell_average_of
from fvweno.physics import ADVECTION, BURGERS, EULER, FluxPair2D
from fvweno.solver import SemiDiscreteOp1D, SemiDiscreteOp2D
from fvweno.weno import WeightScheme

SCHEMES = (
    WeightScheme.js(),
    WeightScheme.m(),
    WeightScheme.z(),
    WeightScheme.zr(p=2.0),
    WeightScheme.zl(p=2.0, q=2.0),
)
# (label, cells across, timed steps)
CASES_1D = (("1d-advection", 20, 400), ("1d-advection", 5_000, 40),
            ("1d-advection", 100_000, 8))
CASES_EULER = (("1d-euler-sod", 200, 100),)
CASES_2D = (("2d-burgers", 40, 40), ("2d-burgers", 160, 8), ("2d-burgers", 400, 3))
CASES_ACCURACY = (("2d-diamond", 10, 200), ("2d-diamond", 20, 100))
WARMUP = 2


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(u, op, dt, steps):
    """Fastest and median step (s) and minor faults a step over ``steps``
    timed steps after ``WARMUP`` untimed ones; ``dt(u)`` is the time step
    from ``u``, taken within the step."""
    for _ in range(WARMUP):
        u = rk3_step(u, op, dt(u))
    times = []
    faults = _minflt()
    for _ in range(steps):
        t0 = time.perf_counter()
        u = rk3_step(u, op, dt(u))
        times.append(time.perf_counter() - t0)
    faults = (_minflt() - faults) / steps
    return min(times), float(np.median(times)), faults


def step_peak(u, op, dt):
    """``tracemalloc`` peak (bytes) of one RK3 step in a new thread."""
    stepped = []
    tracemalloc.start()
    try:
        worker = threading.Thread(target=lambda: stepped.append(rk3_step(u, op, dt(u))))
        worker.start()
        worker.join()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if not stepped:
        raise RuntimeError(f"the step of {op.scheme.label} failed")
    return peak


def fixed(dt):
    """A time step that does not depend on the field."""
    return lambda u: dt


def field_1d(n):
    grid = Grid1D(0.0, 1.0, n)
    return cell_average_of(
        lambda x: np.sin(2 * np.pi * x) + 0.25 * np.sin(14 * np.pi * x)
        + np.where((x > 0.3) & (x < 0.55), 1.0, 0.0), grid)


def field_2d(n):
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, n, n)
    return cell_average_of(
        lambda x, y: 0.25 + 0.5 * np.sin(np.pi * (x + y)) * np.exp(-2 * (x * x + y * y)),
        grid)


def report(label, n, cells, scheme, best, median, faults, peak=None):
    memory = "" if peak is None else f"  peak {peak / 2**20:7.1f} MiB"
    print(f"{label:13s} {n:>7d}  {scheme.label:14s} step {best * 1e3:9.3f} ms "
          f"{best / cells * 1e9:9.1f} ns/cell  median {median * 1e3:9.3f} ms  "
          f"faults/step {faults:8.1f}{memory}", flush=True)


def main():
    for label, n, steps in CASES_1D:
        u = field_1d(n)
        for s in SCHEMES:
            op = SemiDiscreteOp1D(ADVECTION, s, (PERIODIC, PERIODIC))
            report(label, n, n, s, *measure(u, op, fixed(0.1 * u.grid.dx), steps))
    sod = get_problem("sod")
    for label, n, steps in CASES_EULER:
        u = sod.initial(sod.make_grid(n))
        for s in SCHEMES:
            op = SemiDiscreteOp1D(EULER, s, sod.bc)
            report(label, n, n, s, *measure(u, op, lambda v: cfl_dt(v, EULER, 0.4), steps))
    model = FluxPair2D(BURGERS, BURGERS)
    for label, n, steps in CASES_2D:
        u = field_2d(n)
        dt = fixed(cfl_dt(u, model, 0.4))
        for s in SCHEMES:
            op = SemiDiscreteOp2D(model, s, PERIODIC)
            report(label, n, n * n, s, *measure(u, op, dt, steps), step_peak(u, op, dt))
    diamond = get_problem("advection2d-accuracy")
    for label, n, steps in CASES_ACCURACY:
        u = diamond.initial(diamond.make_grid((n, n)))
        dt = fixed(0.4 * u.grid.dx)
        for s in SCHEMES:
            op = SemiDiscreteOp2D(diamond.model, s, diamond.bc)
            report(label, n, n * n, s, *measure(u, op, dt, steps), step_peak(u, op, dt))


if __name__ == "__main__":
    main()
