"""Repeated passes of one workload in a fresh interpreter; started by run.py.

The process imports fvweno from the checkout's ``src`` directory, builds the
workload's inputs, optionally binds the trace hooks, binds the step clock,
and then runs passes until another one would no longer end within
``--seconds`` (at least one).  Every pass starts with the package's memo
caches cleared and is checked in full.  The process prints one JSON line:
its clock readings (CLOCK_MONOTONIC, shared by all processes on Linux), each
pass's timed segments and check results, peak resident memory and, when
traced, the per-layer values of each pass.  ``--mode setup`` stops once the
inputs are ready.

    python3 perfbench/child.py --workload sweep-1d --seed 0 --mode measure --seconds 5
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _since(after, before):
    """Per-name tracer totals accumulated between two snapshots."""
    zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0}
    return {name: {k: v - before.get(name, zero)[k] for k, v in tot.items()}
            for name, tot in after.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), default="measure")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="start no pass that would end after this many seconds of passes")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the recorded spans to this .npz file")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import fvweno

    if Path(fvweno.__file__).resolve().parent != (SRC / "fvweno").resolve():
        print(f"imported fvweno from {fvweno.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from machine import context
    from tracing import Tracer, layer_values
    from workloads import WORKLOADS, Checks, StepClock, Units, clear_memo_caches

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    clock = StepClock()
    clock.install()
    inputs = workload.setup(args.seed)
    out = {"t_ready": time.perf_counter()}
    if args.mode == "measure":
        passes = []
        new_case = tracer.new_case if tracer else (lambda: None)
        start = time.perf_counter()
        while True:
            clear_memo_caches()
            chk, units = Checks(), Units(clock)
            before = tracer.totals() if tracer else None
            t0 = time.perf_counter()
            workload.run(inputs, chk, units, new_case)
            now = time.perf_counter()
            rec = {"wall_s": now - t0, "layout": units.layout, "segments": units.segments,
                   "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   "attempted": chk.attempted, "failed": chk.failed,
                   "tol_used_max": chk.tol_used_max, "failures": chk.failures[:20]}
            if tracer is not None:
                rec["layers"] = layer_values(_since(tracer.totals(), before), tracer.missing)
            passes.append(rec)
            if now - start + (now - t0) > args.seconds:
                break
        out["passes"] = passes
        out["context"] = context(SRC)
        out["step_hooks_missing"] = clock.missing
        if tracer is not None:
            out["hooks_missing"] = tracer.missing
            out["spans"] = tracer.span_count()
            if args.spans:
                tracer.save(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
