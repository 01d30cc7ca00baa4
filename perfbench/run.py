"""Benchmark of the fvweno package: end-to-end metrics per workload, and
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload sweep-1d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 0          # every workload, both runs
    python3 perfbench/run.py --workload all --seconds 0 --smoke  # tiny sizes, seconds

Run it from anywhere inside a checkout; it imports fvweno from the checkout's
``src``.  The passes of a run repeat in one fresh interpreter started by this
script; each pass starts with the package's memo caches cleared, and a timed
call that is served from one fails its case.

A pass is cut into timed segments: every RK3 step, and the rest of every
public call.  On a shared host a segment takes its quiet time or up to 1.9x
that, depending on the neighbours, so ``wall_s`` counts every segment at its
quietest: a step at the fastest step of its solve over the run's passes, the
rest of a call at its fastest repeat (README.md, "How time is measured").
``setup_s`` is the median over several fresh interpreters that stop once the
inputs are ready.

``--trace 0`` measures untraced passes for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` measures untraced and then traced passes
for half of ``--seconds`` each, reports the per-layer metrics of the traced
ones (each the smallest over the passes) and the tracing overhead, and checks
the RK3 step count of every traced pass against the workload's definition.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the machine context, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from machine import BLAS_THREADS, THREAD_ENV  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (name, unit) of the end-to-end metrics of an untraced run
END_TO_END = (
    ("wall_s", "s"),
    ("ns_per_cell_step", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "fraction"),
    ("tol_used_max", "ratio"),
)
SETUP_SAMPLES = 10      # set-up-only starts of each untraced run (1 in smoke mode)
RUN_LIMIT_S = 170.0     # no child may outlive this many seconds of the run


class BenchError(Exception):
    """A child could not be run or did not report."""


class Runner:
    """Starts children for one workload and collects their records."""

    def __init__(self, workload, seed, smoke):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        **{k: BLAS_THREADS for k in THREAD_ENV})

    def child(self, mode, seconds=0.0, trace=False):
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--mode", mode, "--seconds", str(seconds)]
        if trace:
            OUT.mkdir(exist_ok=True)
            cmd += ["--trace", "--spans", str(OUT / f"spans-{self.workload.name}.npz")]
        if self.smoke:
            cmd.append("--smoke")
        left = RUN_LIMIT_S - self.elapsed()
        if left <= 0:
            raise BenchError("run time limit reached")
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child exceeded the run time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["setup_s"] = rec["t_ready"] - t_spawn
        return rec

    def elapsed(self):
        return time.perf_counter() - self.started


def _metric(value, unit):
    return {"value": value, "unit": unit}


def fastest_pass_s(passes):
    """Sum over the segments of one pass of each segment's fastest time in
    ``passes``.  The steps of one run (consecutive steps of one kind) do the
    same work, so each counts at the fastest step of that run in any pass;
    the rest of a unit counts at its own fastest repeat.  Passes that were
    not cut alike give the fastest whole pass.
    """
    layout = passes[0]["layout"]
    if any(p["layout"] != layout for p in passes):
        return min(sum(p["segments"]) for p in passes)
    best = [min(seg) for seg in zip(*(p["segments"] for p in passes))]
    total, i = 0.0, 0
    for _, runs in layout:
        for steps in runs:
            total += steps * min(best[i:i + steps])
            i += steps
        total += best[i]
        i += 1
    return total


def _totals(recs):
    passes = [p for r in recs for p in r["passes"]]
    return {"attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "problems": [f for p in passes for f in p["failures"]],
            "passes": passes}


def run_untraced(runner, seconds):
    runner.child("setup")                    # warm the file cache and bytecode
    # half of the set-up starts before the measured passes and half after,
    # so that they do not all fall into one busy phase of the host
    extra = 1 if runner.smoke else SETUP_SAMPLES
    setups = [runner.child("setup")["setup_s"] for _ in range(extra // 2)]
    rec = runner.child("measure", seconds)
    setups += [rec["setup_s"]]
    setups += [runner.child("setup")["setup_s"] for _ in range(extra - extra // 2)]

    passes = rec["passes"]
    wall = fastest_pass_s(passes)
    res = _totals([rec])
    values = {
        "wall_s": wall,
        "ns_per_cell_step": wall * 1e9 / runner.workload.cell_steps(),
        "setup_s": statistics.median(setups),
        # set-up and the first pass, as one CLI call; later passes of the
        # same process may add to it
        "peak_rss_mb": passes[0]["rss_kb"] / 1024.0,
        "pass_frac": 1.0 - res["failed"] / res["attempted"],
        "tol_used_max": max(p["tol_used_max"] for p in passes),
    }
    samples = {name: len(passes) for name in values}
    samples["setup_s"] = len(setups)
    samples["peak_rss_mb"] = 1
    return {"metrics": {name: _metric(values[name], unit) for name, unit in END_TO_END},
            "samples": samples, "context": rec["context"],
            "hooks_missing": rec["step_hooks_missing"], **res}


def run_traced(runner, seconds):
    runner.child("setup")
    plain = runner.child("measure", seconds / 2)
    traced = runner.child("measure", seconds / 2, trace=True)

    wl = runner.workload
    res = _totals([plain, traced])
    for p in traced["passes"]:
        steps = p["layers"]["integrate.steps"]
        if steps != wl.steps():
            res["problems"].append(f"integrate.steps {steps} != defined {wl.steps()}")
    values = {name: min(p["layers"][name] for p in traced["passes"])
              for name, _, _ in PER_LAYER if name != "trace.overhead_frac"}
    values["trace.overhead_frac"] = (fastest_pass_s(traced["passes"])
                                     / fastest_pass_s(plain["passes"]) - 1.0)
    return {"metrics": {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER},
            "samples": {name: len(traced["passes"]) for name in values},
            "context": traced["context"],
            "hooks_missing": traced["step_hooks_missing"] + traced["hooks_missing"], **res}


def run_workload(name, seed, seconds, trace, smoke):
    wl = WORKLOADS[name](smoke=smoke)
    runner = Runner(wl, seed, smoke)
    res = run_traced(runner, seconds) if trace else run_untraced(runner, seconds)
    passes = res.pop("passes")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "definition": wl.describe(), "context": res.pop("context"),
        "correct": res["failed"] == 0 and not res["problems"],
        "fail_frac": res["failed"] / res["attempted"], **res,
        "passes": [{k: p[k] for k in ("wall_s", "layout", "segments", "rss_kb", "attempted",
                                      "failed", "tol_used_max")}
                   for p in passes],
        "run_s": runner.elapsed(),
    }
    OUT.mkdir(exist_ok=True)
    suffix = "-smoke" if smoke else ""
    (OUT / f"{name}-trace{int(trace)}{suffix}.json").write_text(json.dumps(record))
    _print_record(record)
    return record


def _print_record(rec):
    d = rec["definition"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}"
          f"{'  smoke' if rec['smoke'] else ''}: {d['steps']} RK3 steps, "
          f"{d['cell_steps']} cell-steps; cases {rec['attempted']}, failed {rec['failed']} "
          f"(fail_frac {rec['fail_frac']:.3g})")
    for name, m in rec["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:10s} n={rec['samples'][name]}")
    for problem in rec["problems"][:20]:
        print(f"  FAILED {problem}")
    for target in rec["hooks_missing"]:
        print(f"  hook missing: {target}")
    ctx = rec["context"]
    print(f"  context: nproc {ctx['nproc']}, {ctx['cpu_model']}, caches {ctx['caches']}, "
          f"Python {ctx['python']}, numpy {ctx['numpy']}, {ctx['blas']} "
          f"threads {ctx['blas_threads']}, src {ctx['src_loc']} LOC, "
          f"arrays {d['array_bytes']} B")


def main(argv=None):
    ap = argparse.ArgumentParser(description="fvweno benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fvweno" / "__init__.py").is_file():
        print(f"no fvweno sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    try:
        records = [run_workload(w, args.seed, args.seconds, t, args.smoke) for w, t in runs]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
