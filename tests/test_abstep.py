"""tools/abstep.py: its targets, its interval, and a short run of this checkout
against itself."""

import json
import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def abstep():
    yield runpy.run_path(str(ROOT / "tools" / "abstep.py"))     # its globals, by name
    sides = ("fvweno_base", "fvweno_head", "fvweno_null")
    for name in [m for m in sys.modules if m.split(".")[0] in sides]:
        del sys.modules[name]


@pytest.mark.parametrize("target", ["4d:z:10", "2d:z", "2d:z:x", "2d:z:1:20", "2d:zl:1:2:3:20"])
def test_parse_target_names_a_malformed_target(abstep, target):
    with pytest.raises(SystemExit, match=re.escape(repr(target))):
        abstep["parse_target"](target)


def test_one_checkout_against_itself(abstep, capsys):
    abstep["main"](["--base", str(ROOT), "--head", str(ROOT), "--rounds", "2", "--steps", "1",
                    "--target", "sod:z:20", "--target", "2d:z:6"])
    results = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert {t: r["rounds"] for t, r in results.items()} == {"sod:z:20": 2, "2d:z:6": 2}
    assert {t: r["null"]["rounds"] for t, r in results.items()} == {"sod:z:20": 2, "2d:z:6": 2}


def test_interval_resamples_blocks_of_adjacent_rounds(abstep):
    # a busy phase over 10 adjacent rounds of 32: resampled as blocks it
    # widens the interval, which single rounds drawn apart would not show
    gen = np.random.default_rng(5)
    base = 1.0 + 0.01 * gen.random(32)
    head = base * (1.0 + 0.004 * gen.standard_normal(32))
    head[11:21] *= 1.03
    ratios = head / base
    picks = np.random.default_rng(0).integers(0, 32, size=(10_000, 32))
    single = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    low, high = abstep["summarize"](base, head, np.random.default_rng(0))["ci95"]
    assert low <= np.median(ratios) <= high
    assert high - low > single[1] - single[0]


def test_json_appends_the_run_under_interleaved_keeping_other_keys(abstep, tmp_path, capsys):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps({"label": "x"}))
    for _ in range(2):
        abstep["main"](["--base", str(ROOT), "--head", str(ROOT), "--rounds", "1",
                        "--steps", "1", "--target", "1d:z:10", "--json", str(path)])
    printed = capsys.readouterr().out.splitlines()
    data = json.loads(path.read_text())
    assert data["label"] == "x" and len(data["interleaved"]) == 2
    run = data["interleaved"][1]
    assert (run["rounds"], run["steps"], run["seed"]) == (1, 1, 0)
    assert run["lines"] == [printed[-2]]
    assert run["results"] == json.loads(printed[-1])
    fresh = tmp_path / "new.json"
    abstep["main"](["--base", str(ROOT), "--head", str(ROOT), "--rounds", "1", "--steps", "1",
                    "--target", "1d:z:10", "--json", str(fresh)])
    assert list(json.loads(fresh.read_text())) == ["interleaved"]
