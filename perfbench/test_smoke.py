"""Smoke test of the benchmark: every workload and every check at tiny sizes,
the contract of the printed result, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, fastest_pass_s
from tracing import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_every_workload_traced_and_untraced():
    proc = _run(ROOT, "--workload", "all", "--seconds", "0", "--smoke", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {f"{w}.{name}" for w in WORKLOADS for name, _ in END_TO_END}
    expected |= {f"{w}.{name}" for w in WORKLOADS for name, _, _ in PER_LAYER}
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"]), name
    for w in WORKLOADS:
        assert result["metrics"][f"{w}.tol_used_max"]["value"] < 1.0
        assert result["metrics"][f"{w}.trace.hooks_missing"]["value"] == 0
        steps = WORKLOADS[w](smoke=True).steps()
        assert result["metrics"][f"{w}.integrate.steps"]["value"] == steps


def test_wall_time_takes_every_solve_at_its_fastest_step():
    # one unit: a solve of two steps, a solve of one step, then the rest
    layout = [["final-zl", [2, 1]]]
    passes = [{"layout": layout, "segments": [1.0, 2.0, 3.0, 0.5]},
              {"layout": layout, "segments": [1.5, 1.0, 2.0, 0.25]}]
    assert fastest_pass_s(passes) == 2 * 1.0 + 2.0 + 0.25
    passes[1]["layout"] = [["final-zl", [1]]]
    passes[1]["segments"] = [1.0, 0.25]
    assert fastest_pass_s(passes) == 1.25


def test_benchmark_json_matches_the_definitions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(name, w.why) for name, w in WORKLOADS.items()]
    for name, w in WORKLOADS.items():
        assert f"{w().cell_steps():,} cell-steps" in w.why, name
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = _run(tmp_path, "--workload", "large-1d", "--seconds", "1", "--smoke")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
