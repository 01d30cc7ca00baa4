"""Norms, runs, references, golden-check mechanics, output files."""

import numpy as np
import pytest

from fvweno.errors import ConfigurationError
from fvweno.harness import golden as golden_mod
from fvweno.harness.golden import golden_check, load_fixture, print_quantum
from fvweno.harness.norms import ErrorReport, convergence_order, norms
from fvweno.harness.problems import get_problem, solve_characteristics
from fvweno.harness.runs import (
    RunConfig,
    _study_point,
    convergence_study,
    reference_solution,
    restrict_to,
    run_problem,
)
from fvweno.mesh import CellField, Grid1D
from fvweno.weno import WeightScheme


def _pair(values_a, values_b):
    grid = Grid1D(0.0, 1.0, len(values_a))
    return (CellField.from_interior(grid, np.asarray(values_a, float)),
            CellField.from_interior(grid, np.asarray(values_b, float)))


def test_norms_identical_fields():
    a, b = _pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert norms(a, b) == (0.0, 0.0, 0.0)


def test_norms_hand_values():
    a, b = _pair([3.0, 4.0], [0.0, 0.0])
    l1, l2, linf = norms(a, b)
    assert l1 == pytest.approx(3.5)
    assert l2 == pytest.approx(np.sqrt(12.5))
    assert linf == pytest.approx(4.0)


def test_norms_grid_mismatch():
    a = CellField.from_interior(Grid1D(0.0, 1.0, 4), np.zeros(4))
    b = CellField.from_interior(Grid1D(0.0, 1.0, 5), np.zeros(5))
    with pytest.raises(ConfigurationError):
        norms(a, b)


def test_norm_ordering_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        vals = rng.normal(size=17)
        a, b = _pair(vals, np.zeros(17))
        l1, l2, linf = norms(a, b)
        assert linf >= l2 >= l1


def test_convergence_order_values():
    assert convergence_order(5.47e-3, 1.81e-4) == pytest.approx(4.9175, abs=1e-3)
    assert convergence_order(1.0, 1.0) == 0.0
    assert convergence_order(8.0, 1.0) == 3.0
    with pytest.raises(ConfigurationError):
        convergence_order(0.0, 1.0)


def test_error_report_csv_layout():
    rep = ErrorReport()
    rep.add(10, 1e-1, 1.1e-1, 1.6e-1)
    rep.add(20, 5e-3, 6e-3, 8e-3)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "N,L1,order1,L2,order2,Linf,orderInf"
    assert lines[1].startswith("10,") and ",," in lines[1]  # blank orders
    assert lines[2].split(",")[2] != ""


def test_unknown_problem_is_configuration_error():
    with pytest.raises(ConfigurationError):
        get_problem("does-not-exist")
    with pytest.raises(ConfigurationError):
        run_problem(RunConfig("does-not-exist", WeightScheme.z()))


def test_solve_characteristics_odd_symmetry():
    # pre-shock solution of u_t + u u_x = 0 with u0 = -sin(pi x): odd in x,
    # so u(0, t) = 0
    u0 = lambda x: -np.sin(np.pi * x)
    du0 = lambda x: -np.pi * np.cos(np.pi * x)
    t = 0.5 / np.pi
    x = np.array([-0.4, -0.1, 0.0, 0.1, 0.4])
    u = solve_characteristics(u0, du0, x, t, -1.0, 1.0)
    assert u[2] == pytest.approx(0.0, abs=1e-13)
    np.testing.assert_allclose(u, -u[::-1], atol=1e-12)


def test_solve_characteristics_is_pointwise():
    # each point gets the bits of a call on that point alone: burgers2d's
    # data along s = (x + y) / 2 at its final time
    u0 = lambda s: 0.25 + 0.5 * np.sin(np.pi * s)
    du0 = lambda s: 0.5 * np.pi * np.cos(np.pi * s)
    s = np.linspace(-1.0, 1.0, 4001)
    t = 2.0 / np.pi
    whole = solve_characteristics(u0, du0, s, t, -0.25, 0.75)
    alone = [solve_characteristics(u0, du0, s[k:k + 1], t, -0.25, 0.75)[0]
             for k in range(s.size)]
    assert np.array_equal(whole, alone)


def test_burgers_exact_hook_matches_characteristics():
    prob = get_problem("burgers1d")
    grid = prob.make_grid(40)
    ref = prob.exact(grid, 0.5 / np.pi)
    vals = ref.interior[0]
    np.testing.assert_allclose(vals, -vals[::-1], atol=1e-11)


def test_advection_exact_is_a_shift():
    prob = get_problem("advection1d-accuracy")
    grid = prob.make_grid(32)
    # shifting by two periods returns the initial averages
    np.testing.assert_allclose(prob.exact(grid, 4.0).interior,
                               prob.initial(grid).interior, atol=1e-13)


def test_restrict_averages_fine_cells():
    fine = CellField.from_interior(Grid1D(0.0, 1.0, 8), np.arange(8.0))
    coarse = restrict_to(fine, Grid1D(0.0, 1.0, 4))
    np.testing.assert_allclose(coarse.interior[0], [0.5, 2.5, 4.5, 6.5])


def test_reference_solution_stationary_shock():
    prob = get_problem("nonconvex-stationary")
    grid = prob.make_grid(40)
    ref = reference_solution(prob, grid)
    np.testing.assert_array_equal(ref.interior[0][:20], -3.0)
    np.testing.assert_array_equal(ref.interior[0][20:], 3.0)


def test_run_problem_outputs_and_determinism(tmp_path):
    cfg = RunConfig("burgers1d", WeightScheme.zl(p=5, q=1), n=20,
                    out_dir=str(tmp_path / "a"))
    res = run_problem(cfg)
    assert (tmp_path / "a" / "solution.csv").exists()
    assert (tmp_path / "a" / "errors.csv").exists()
    assert (tmp_path / "a" / "manifest.txt").exists()
    assert (tmp_path / "a" / "plot.gp").exists()
    manifest = (tmp_path / "a" / "manifest.txt").read_text()
    assert "problem = burgers1d" in manifest
    assert "steps =" in manifest

    cfg2 = RunConfig("burgers1d", WeightScheme.zl(p=5, q=1), n=20,
                     out_dir=str(tmp_path / "b"))
    run_problem(cfg2)
    assert (tmp_path / "a" / "solution.csv").read_bytes() == \
        (tmp_path / "b" / "solution.csv").read_bytes()
    assert (tmp_path / "a" / "errors.csv").read_bytes() == \
        (tmp_path / "b" / "errors.csv").read_bytes()


def test_run_problem_2d_csv_schema(tmp_path):
    cfg = RunConfig("burgers2d", WeightScheme.z(), n=(12, 12), tfinal=0.05,
                    out_dir=str(tmp_path))
    run_problem(cfg)
    header = (tmp_path / "solution.csv").read_text().splitlines()[0]
    assert header == "x,y,u"


def test_run_problem_euler_csv_schema(tmp_path):
    cfg = RunConfig("sod", WeightScheme.js(), n=50, tfinal=0.2,
                    out_dir=str(tmp_path))
    run_problem(cfg)
    header = (tmp_path / "solution.csv").read_text().splitlines()[0]
    assert header == "x,rho,momentum,energy"


# cell counts that are not integers, each on a problem that takes its form
BAD_COUNTS = [("burgers1d", "12"), ("burgers1d", np.float64(12.0)), ("burgers1d", 10.7),
              ("burgers2d", (8.5, 8))]


@pytest.mark.parametrize("pid, n", BAD_COUNTS, ids=["str", "float64", "fraction", "pair"])
def test_a_count_that_is_not_an_integer_is_refused(pid, n):
    # the grid is the one owner of the rule; nothing on the way truncates
    with pytest.raises(ConfigurationError, match="must be an integer"):
        get_problem(pid).make_grid(n)
    with pytest.raises(ConfigurationError, match="must be an integer"):
        run_problem(RunConfig(pid, WeightScheme.z(), n=n, with_reference=False))
    with pytest.raises(ConfigurationError, match="must be an integer"):
        convergence_study(pid, WeightScheme.z(), [n])


def test_equal_grids_share_one_study_point():
    # the memo keys on the grid and the resolved time control, not on how
    # the count or the default time was spelled
    scheme = WeightScheme.z()
    _study_point.cache_clear()
    square = convergence_study("advection2d-accuracy", scheme, [6])
    assert convergence_study("advection2d-accuracy", scheme, [(6, 6)]).rows == square.rows
    prob = get_problem("advection1d-accuracy")
    line = convergence_study("advection1d-accuracy", scheme, [np.int64(10)])
    assert convergence_study("advection1d-accuracy", scheme, [10], time=prob.time,
                             tfinal=prob.tfinal).rows == line.rows
    info = _study_point.cache_info()
    assert (info.hits, info.misses) == (2, 2)
    assert [row[0] for row in square.rows + line.rows] == [6, 10]


@pytest.mark.parametrize("pid, sizes, label", [
    ("advection2d-accuracy", [(6, 6), (6, 12)], 6),     # a row is labelled by nx
    ("advection1d-accuracy", [10, 20, 10], 10),
], ids=["2d-same-nx", "1d-repeated"])
def test_sizes_whose_rows_would_share_a_label_are_refused(pid, sizes, label):
    # every grid is built and checked before the first solve
    _study_point.cache_clear()
    with pytest.raises(ConfigurationError, match=f"row label {label}$"):
        convergence_study(pid, WeightScheme.z(), sizes)
    assert _study_point.cache_info().misses == 0


def test_conflicting_time_controls_rejected():
    cfg = RunConfig("burgers1d", WeightScheme.z(), cfl=0.4, dt_scale=0.1)
    with pytest.raises(ConfigurationError):
        cfg.resolve()


def test_print_quantum():
    assert print_quantum("0.142857") == pytest.approx(5e-7)
    assert print_quantum("2.08e-05") == pytest.approx(5e-8)
    assert print_quantum("0.1") == 0.0  # too few digits to be a rounded entry
    assert print_quantum("1.0") == 0.0


def test_golden_missing_fixture():
    with pytest.raises(ConfigurationError):
        golden_check("no-such-table")


def test_golden_empty_fixture_is_configuration_error(tmp_path, monkeypatch):
    (tmp_path / "empty.csv").write_text("# golden: empty\n# kind: dissect\n")
    monkeypatch.setattr(golden_mod, "FIXTURE_DIR", tmp_path)
    with pytest.raises(ConfigurationError):
        golden_check("empty")


def test_golden_detects_tampering(tmp_path, monkeypatch):
    src = golden_mod.FIXTURE_DIR / "solutions-stage1.csv"
    text = src.read_text().replace("0.5,", "0.51,", 1)
    (tmp_path / "solutions-stage1.csv").write_text(text)
    monkeypatch.setattr(golden_mod, "FIXTURE_DIR", tmp_path)
    report = golden_check("solutions-stage1")
    assert not report.ok
    assert "solutions-stage1" in report.diff_text()


def test_golden_fixture_loads():
    fx = load_fixture("weights-stage1")
    assert fx.kind == "dissect"
    assert "w0[JS]" in fx.rows
    assert len(fx.columns) == 8


# Every dissect-kind fixture: the weights, fluxes and solutions of RK3 stages
# 1-3 for the classic and ZL sets, and the two final-time tables.
DISSECT_TABLES = [f"{variant}{kind}-stage{stage}" for variant in ("", "zl-")
                  for kind in ("weights", "fluxes", "solutions")
                  for stage in (1, 2, 3)] + ["final-t1", "zl-final"]


@pytest.mark.parametrize("table_id", DISSECT_TABLES)
def test_dissect_golden_table(table_id):
    assert load_fixture(table_id).kind == "dissect"
    report = golden_check(table_id)
    assert report.ok, report.diff_text()


@pytest.mark.parametrize("pid", [p for p in sorted(
    __import__("fvweno.harness.problems", fromlist=["REGISTRY"]).REGISTRY)
    if p != "blastwave"])
def test_registry_problem_runs_within_budget(pid):
    # every registry problem completes on its published grid in under 60 s
    # (blastwave is excluded: no scheme survives the shock collision under
    # componentwise reconstruction; see the README limitations note)
    import time as _time

    t0 = _time.perf_counter()
    res = run_problem(RunConfig(pid, WeightScheme.z(), with_reference=False))
    elapsed = _time.perf_counter() - t0
    assert res.steps > 0
    assert np.all(np.isfinite(res.final.interior))
    assert elapsed < 60.0, f"{pid} took {elapsed:.1f}s"


def test_fine_grid_reference_buckley():
    prob = get_problem("buckley-leverett")
    grid = prob.make_grid(80)
    ref = reference_solution(prob, grid)
    vals = ref.interior[0]
    assert vals.shape == (80,)
    assert vals.min() > -1e-3 and vals.max() < 1.0 + 1e-3
    # the pulse has moved right: mass is conserved, support beyond x = 0
    np.testing.assert_allclose(vals.sum() * grid.dx, 0.5, rtol=1e-3)
    assert vals[grid.centers() > 0.05].max() > 0.5
