"""The demos run end to end on the public API.

Each demo runs as a script in a directory of its own, where it writes its
``demo_output/``.  ``04_scalar_shock_capturing.py`` is left out: its
fine-grid references take about 8 s, and
``test_harness.py::test_fine_grid_reference_buckley`` covers that path.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_weight_families", "02_single_step_dissection",
                                  "03_convergence", "05_shock_tubes", "06_two_dimensional"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
