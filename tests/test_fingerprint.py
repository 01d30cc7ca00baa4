"""tools/fingerprint.py --compare: what it prints and its exit status, on
two small saved files (the fingerprint itself is not run)."""

import runpy
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def fingerprint():
    return runpy.run_path(str(ROOT / "tools" / "fingerprint.py"))     # its globals, by name


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
