"""Time the RK3 steps of two source trees interleaved in one process.

    python tools/abstep.py --base PARENT --head CHANGE --target 2d:z:20 --target 2d:m:40

``--base`` and ``--head`` are checkouts of this repository (each with its
``src/fvweno``).  Each tree's package is imported under a name of its own
(``fvweno_base``, ``fvweno_head``), so both run in one interpreter on one
heap, on the same core, through the same quiet and busy phases of the host.

A target is ``KIND:FAMILY[:P[:Q]]:N``:

- ``2d``: the advected diamond of the accuracy study (``advection2d-accuracy``)
  on N² cells, dt = 0.4 dx, the steps of the benchmark's accuracy-2d;
- ``burgers2d``: periodic 2D Burgers (``burgers2d``) on N² cells, one
  CFL 0.4 step size from the initial data;
- ``1d``: periodic 1D advection (``advection1d-accuracy``) on N cells,
  dt = 0.1 dx.

FAMILY is js, m, z, zr, zl or linear; P and Q are ZR's p and ZL's p and q
(``2d:zl:5:1:20`` is the accuracy-2d ZL).  Each tree builds its inputs
once.  A round times, for every target, a pass on each side: in a new
thread, whose workspaces start empty (so each pass places its buffers
anew), two untimed steps from the initial data, then ``--steps`` timed
ones, of which it keeps the fastest.  The side that goes first alternates
(A B, B A, ...).  Per target the script prints the fastest step of each
side over all rounds, the median over rounds of the ratio head / base of
the round's fastest steps, a bootstrap 95 % interval of that median
(resampling rounds), and in how many rounds the head was faster.  The
last line is the same as JSON.

Two copies of one tree (A/A) should give intervals that contain 1; their
width is the resolution of the host.  BLAS threads are set to 1 before
numpy is imported, as the benchmark does.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import sys
import threading
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

KINDS = {
    # kind: (registry problem, dimensions, dt per dx or None for CFL 0.4)
    "2d": ("advection2d-accuracy", 2, 0.4),
    "burgers2d": ("burgers2d", 2, None),
    "1d": ("advection1d-accuracy", 1, 0.1),
}
WARMUP = 2


def load_tree(tree, name):
    """The ``fvweno`` package of the checkout ``tree``, imported as ``name``."""
    init = Path(tree, "src", "fvweno", "__init__.py")
    if not init.is_file():
        raise SystemExit(f"no src/fvweno in {tree}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.harness.problems")
    return module


def parse_target(text):
    """(kind, family, parameters, n) of ``KIND:FAMILY[:P[:Q]]:N``."""
    kind, family, *fields = text.split(":")
    if kind not in KINDS or not fields:
        raise SystemExit(f"target {text!r}: want KIND:FAMILY[:P[:Q]]:N, KIND in {sorted(KINDS)}")
    *params, n = fields
    names = {"zr": ("p",), "zl": ("p", "q")}.get(family, ())
    if len(params) > len(names):
        raise SystemExit(f"target {text!r}: {family} takes {len(names)} parameters")
    try:
        return kind, family, {k: float(v) for k, v in zip(names, params)}, int(n)
    except ValueError:
        raise SystemExit(f"target {text!r}: parameters must be numbers, N an integer") from None


def build_case(pkg, target):
    """A function that runs one pass of ``steps`` timed steps of ``target``
    with the package ``pkg`` and returns its fastest step (s)."""
    kind, family, params, n = target
    pid, dims, dt_scale = KINDS[kind]
    problem = pkg.harness.problems.get_problem(pid)
    u0 = problem.initial(problem.make_grid((n, n) if dims == 2 else n))
    scheme = pkg.WeightScheme(family, **params)
    op = (pkg.SemiDiscreteOp2D if dims == 2 else pkg.SemiDiscreteOp1D)(
        problem.model, scheme, problem.bc)
    dt = dt_scale * u0.grid.dx if dt_scale else pkg.cfl_dt(u0, problem.model, 0.4)
    step = pkg.rk3_step

    def steps_from_u0(steps, clock=time.perf_counter):
        u, best = u0, np.inf
        for k in range(-WARMUP, steps):
            t0 = clock()
            u = step(u, op, dt)
            if k >= 0:
                best = min(best, clock() - t0)
        times.append(best)

    def run(steps):
        # a new thread: the workspaces start empty, so the buffers of each
        # pass are placed anew and no side keeps a lucky alignment
        worker = threading.Thread(target=steps_from_u0, args=(steps,))
        worker.start()
        worker.join()
        return times.pop()

    times = []
    return run


def summarize(base, head, rng, resamples=10_000):
    """Fastest steps, the median per-round ratio head / base, its bootstrap
    95 % interval, and the rounds the head was faster in."""
    base, head = np.asarray(base), np.asarray(head)
    ratios = head / base
    picks = rng.integers(0, len(ratios), size=(resamples, len(ratios)))
    medians = np.median(ratios[picks], axis=1)
    low, high = np.percentile(medians, [2.5, 97.5])
    return {"base_min_us": base.min() * 1e6, "head_min_us": head.min() * 1e6,
            "ratio_of_minima": head.min() / base.min(),
            "median_ratio": float(np.median(ratios)), "ci95": [float(low), float(high)],
            "head_faster": int((ratios < 1.0).sum()), "rounds": len(ratios)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", required=True, help="checkout timed as the reference (A)")
    parser.add_argument("--head", required=True, help="checkout timed against it (B)")
    parser.add_argument("--target", action="append", required=True,
                        help="KIND:FAMILY[:P[:Q]]:N, repeatable")
    parser.add_argument("--rounds", type=int, default=24)
    parser.add_argument("--steps", type=int, default=20, help="timed steps a pass")
    parser.add_argument("--seed", type=int, default=0, help="seed of the bootstrap")
    args = parser.parse_args(argv)
    targets = [parse_target(t) for t in args.target]
    sides = [load_tree(tree, f"fvweno_{name}")
             for tree, name in ((args.base, "base"), (args.head, "head"))]
    cases = [[build_case(pkg, t) for t in targets] for pkg in sides]
    best = [[[] for _ in targets] for _ in sides]
    for r in range(args.rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            for k, run in enumerate(cases[side]):
                gc.collect()
                best[side][k].append(run(args.steps))
    rng = np.random.default_rng(args.seed)
    results = {}
    for k, text in enumerate(args.target):
        s = results[text] = summarize(best[0][k], best[1][k], rng)
        print(f"{text}: base min {s['base_min_us']:.1f} us, head min {s['head_min_us']:.1f} us, "
              f"ratio of minima {s['ratio_of_minima']:.3f}, median per-round ratio "
              f"{s['median_ratio']:.3f} [{s['ci95'][0]:.3f}, {s['ci95'][1]:.3f}], "
              f"head faster in {s['head_faster']}/{s['rounds']} rounds", flush=True)
    print(json.dumps(results))


if __name__ == "__main__":
    main()
