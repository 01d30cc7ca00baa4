"""Time the RK3 steps of two source trees interleaved in one process.

    python tools/abstep.py --base PARENT --head CHANGE --target 2d:z:20 --target 2d:m:40

``--base`` and ``--head`` are checkouts of this repository (each with its
``src/fvweno``).  Each tree's package is imported under a name of its own
(``fvweno_base``, ``fvweno_head``), so both run in one interpreter on one
heap, on the same core, through the same quiet and busy phases of the host.
The base tree is imported a second time (``fvweno_null``, side A'), and
timed as a third side: A'/A is the in-run null, what the host alone makes
of two copies of one tree in the same rounds as B/A.

A target is ``KIND:FAMILY[:P[:Q]]:N``:

- ``2d``: the advected diamond of the accuracy study (``advection2d-accuracy``)
  on N² cells, dt = 0.4 dx, the steps of the benchmark's accuracy-2d;
- ``burgers2d``: periodic 2D Burgers (``burgers2d``) on N² cells, one
  CFL 0.4 step size from the initial data;
- ``1d``: periodic 1D advection (``advection1d-accuracy``) on N cells,
  dt = 0.1 dx;
- ``sod``: the 1D Euler Sod shock tube (``sod``) on N cells, one CFL 0.4
  step size from the initial data.

FAMILY is js, m, z, zr, zl or linear; P and Q are ZR's p and ZL's p and q
(``2d:zl:5:1:20`` is the accuracy-2d ZL).  Each tree builds its inputs
twice, on two equal grid objects.  A round times, for every target, a
pass on each side: in a new thread, whose workspace starts empty (so each
pass places its buffers anew), two untimed steps from the initial data on
the second grid, then ``--steps`` timed ones from the initial data on the
first, of which it keeps the fastest.  The timed steps thus meet the
workspace as every solve of the harness after the first of a shape does:
bound to another grid object and to other arrays of the same shape.  The
order of the three sides runs through their six permutations, one a
round.  A run takes ``--rounds`` rounds, 64 by default: at 32, two runs
of one tree against itself gave intervals that exclude 1.  Per target the
script prints the fastest step of each side over all rounds, the median
over rounds of the ratio head / base of the round's fastest steps, a
bootstrap 95 % interval of that median, and in how many rounds the head
was faster; then the median and interval of A'/A.  The last line is the
same as JSON, the null under ``"null"``.  A claim needs B/A's interval to
exclude 1 while A'/A's contains 1 in the same run.

``--json PATH`` also appends the run (its rounds, steps, seed, printed
lines and results) to the list under the ``interleaved`` key of the JSON
file ``PATH``, a ``BENCH_<label>.json``, keeping its other keys; the file is
made if it does not exist:

    python tools/abstep.py --base PARENT --head CHANGE --target 1d:z:20 \
        --steps 10 --json BENCH_pr27.json

A busy phase of the host spans several adjacent rounds, so the bootstrap
resamples blocks of ceil(sqrt(R)) adjacent rounds of the R (a moving-block
bootstrap): resampling single rounds would treat the rounds of one phase
as independent and give too narrow an interval.

Two copies of one tree should give intervals that contain 1; their width
is the resolution of the host.  BLAS threads are set to 1 before
numpy is imported, as the benchmark does.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import json
import math
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
    "sod": ("sod", 1, None),
}
WARMUP = 2
# the order of the sides base, head and null in round r is ORDERS[r % 6]
ORDERS = list(itertools.permutations(range(3)))


def load_tree(tree, name):
    """The ``fvweno`` package of the checkout ``tree``, imported as ``name``."""
    init = Path(tree, "src", "fvweno", "__init__.py")
    if not init.is_file():
        raise SystemExit(f"no src/fvweno in {tree}")
    for stale in [m for m in sys.modules if m.split(".")[0] == name]:   # an earlier run's
        del sys.modules[stale]
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
    # the warm-up's field is over a second, equal grid object, as the
    # harness makes a new grid for each solve
    u0, warm = (problem.initial(problem.make_grid((n, n) if dims == 2 else n)) for _ in range(2))
    scheme = pkg.WeightScheme(family, **params)
    op = (pkg.SemiDiscreteOp2D if dims == 2 else pkg.SemiDiscreteOp1D)(
        problem.model, scheme, problem.bc)
    dt = dt_scale * u0.grid.dx if dt_scale else pkg.cfl_dt(u0, problem.model, 0.4)
    step = pkg.rk3_step

    def steps_from_u0(steps, clock=time.perf_counter):
        u = warm
        for _ in range(WARMUP):
            u = step(u, op, dt)
        u, best = u0, np.inf
        for _ in range(steps):
            t0 = clock()
            u = step(u, op, dt)
            best = min(best, clock() - t0)
        times.append(best)

    def run(steps):
        # a new thread: the workspace starts empty, so the buffers of each
        # pass are placed anew and no side keeps a lucky alignment
        worker = threading.Thread(target=steps_from_u0, args=(steps,))
        worker.start()
        worker.join()
        return times.pop()

    times = []
    return run


def summarize(base, head, rng, resamples=10_000):
    """Fastest steps, the median per-round ratio head / base, its moving-block
    bootstrap 95 % interval, and the rounds the head was faster in."""
    base, head = np.asarray(base), np.asarray(head)
    ratios = head / base
    rounds = len(ratios)
    block = math.ceil(math.sqrt(rounds))
    starts = rng.integers(0, rounds - block + 1, size=(resamples, math.ceil(rounds / block), 1))
    picks = (starts + np.arange(block)).reshape(resamples, -1)[:, :rounds]
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
    parser.add_argument("--rounds", type=int, default=64)
    parser.add_argument("--steps", type=int, default=20, help="timed steps a pass")
    parser.add_argument("--seed", type=int, default=0, help="seed of the bootstrap")
    parser.add_argument("--json", metavar="PATH",
                        help="append the run under 'interleaved' in this BENCH_*.json")
    args = parser.parse_args(argv)
    targets = [parse_target(t) for t in args.target]
    sides = [load_tree(tree, f"fvweno_{name}")
             for tree, name in ((args.base, "base"), (args.head, "head"), (args.base, "null"))]
    cases = [[build_case(pkg, t) for t in targets] for pkg in sides]
    best = [[[] for _ in targets] for _ in sides]
    for r in range(args.rounds):
        for side in ORDERS[r % len(ORDERS)]:
            for k, run in enumerate(cases[side]):
                gc.collect()
                best[side][k].append(run(args.steps))
    rng = np.random.default_rng(args.seed)
    results, lines = {}, []
    for k, text in enumerate(args.target):
        s = results[text] = summarize(best[0][k], best[1][k], rng)
        null = s["null"] = summarize(best[0][k], best[2][k], rng)
        lines.append(f"{text}: base min {s['base_min_us']:.1f} us, head min "
                     f"{s['head_min_us']:.1f} us, ratio of minima {s['ratio_of_minima']:.3f}, "
                     f"median per-round ratio {s['median_ratio']:.3f} [{s['ci95'][0]:.3f}, "
                     f"{s['ci95'][1]:.3f}], head faster in {s['head_faster']}/{s['rounds']} "
                     f"rounds; null A'/A {null['median_ratio']:.3f} [{null['ci95'][0]:.3f}, "
                     f"{null['ci95'][1]:.3f}]")
        print(lines[-1], flush=True)
    if args.json:
        save_run(args.json, {"rounds": args.rounds, "steps": args.steps, "seed": args.seed,
                             "lines": lines, "results": results})
    print(json.dumps(results))


def save_run(path, run):
    """Append ``run`` to the list under ``interleaved`` in the JSON file
    ``path``, made if missing, its other keys kept."""
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {}
    runs = data.setdefault("interleaved", [])
    if not isinstance(runs, list):
        raise SystemExit(f"{path}: 'interleaved' is not a list of runs")
    runs.append(run)
    path.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
