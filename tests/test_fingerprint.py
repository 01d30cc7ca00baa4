"""tools/fingerprint.py: the committed fingerprint, recomputed on a matching
platform; --compare, what it prints and its exit status, on two small saved
files."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def fingerprint():
    return runpy.run_path(str(ROOT / "tools" / "fingerprint.py"))     # its globals, by name


def test_outputs_keep_the_bits_of_the_committed_fingerprint(fingerprint):
    # every output hash of tests/fingerprint.txt, recomputed by the tool in a
    # fresh interpreter; the hashes hold only on the platform they came from
    header, *committed = (ROOT / "tests" / "fingerprint.txt").read_text().splitlines()
    key = fingerprint["KEY_PREFIX"] + fingerprint["platform_key"]()
    if header != key:
        pytest.skip(f"tests/fingerprint.txt is of another platform:\n  {header}\n  {key}")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py")], env=env,
                         capture_output=True, text=True, check=True)
    _, *lines = run.stdout.splitlines()
    want, got = (dict(line.split() for line in text) for text in (committed, lines))
    differ = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not differ, f"{len(differ)} of {len(want)} names differ: {', '.join(differ)}"


def _saved(path, **arrays):
    np.savez(path, **arrays)
    return str(path)


def test_compare_exits_0_when_no_name_differs(fingerprint, tmp_path, capsys):
    values = dict(a=np.array([1.0, -0.0]), b=np.array("text"))
    before = _saved(tmp_path / "before.npz", **values)
    after = _saved(tmp_path / "after.npz", **values)
    assert fingerprint["main"](["--compare", before, after]) == 0
    assert capsys.readouterr().out == "0 of 2 names differ\n"


def test_compare_exits_1_when_a_name_differs(fingerprint, tmp_path, capsys):
    before = _saved(tmp_path / "before.npz", a=np.array([1.0, 2.0]), b=np.array("text"))
    after = _saved(tmp_path / "after.npz", a=np.array([1.0, 2.5]), b=np.array("text"))
    assert fingerprint["main"](["--compare", before, after]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a 1/2 values, max|d| 5.000e-01, max|d|/|ref| 2.500e-01", "1 of 2 names differ"]
