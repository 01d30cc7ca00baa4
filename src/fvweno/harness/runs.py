"""Experiment execution: single runs, convergence studies, references, CSV."""

from __future__ import annotations

import functools
import math
import time as _time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError
from ..integrate import TimeControl, integrate_to
from ..mesh import CellField, Grid1D
from ..physics import FluxPair2D
from ..solver import SemiDiscreteOp1D, SemiDiscreteOp2D
from ..weno import WeightScheme
from .norms import ErrorReport, norms
from .problems import Problem, get_problem

REFERENCE_SCHEME = WeightScheme.m()


@dataclass(frozen=True)
class RunConfig:
    problem: str
    scheme: WeightScheme
    n: object = None              # cells as Problem.make_grid takes them; registry default if None
    cfl: float = None
    dt_scale: float = None
    tfinal: float = None
    out_dir: str = None
    with_reference: bool = True

    def resolve(self):
        prob = get_problem(self.problem)
        grid = prob.make_grid(prob.default_n if self.n is None else self.n)
        if self.cfl is not None and self.dt_scale is not None:
            raise ConfigurationError("give either cfl or dt-scale, not both")
        if self.dt_scale is not None:
            tc = TimeControl("dt_scale", self.dt_scale)
        elif self.cfl is not None:
            tc = TimeControl("cfl", self.cfl)
        else:
            tc = prob.time
        tfinal = self.tfinal if self.tfinal is not None else prob.tfinal
        return prob, grid, tc, tfinal


@dataclass
class RunResult:
    problem: Problem
    grid: object
    final: CellField
    exact: CellField = None
    reference: CellField = None
    report: ErrorReport = None
    steps: int = 0
    wall_time: float = 0.0
    paths: dict = field(default_factory=dict)


def make_operator(prob: Problem, scheme: WeightScheme):
    op = SemiDiscreteOp2D if isinstance(prob.model, FluxPair2D) else SemiDiscreteOp1D
    return op(prob.model, scheme, prob.bc)


def solve(prob: Problem, scheme: WeightScheme, grid, tc: TimeControl, tfinal):
    op = make_operator(prob, scheme)
    u = prob.initial(grid)
    steps = [0]

    def count(step, t, field):
        steps[0] = step

    u = integrate_to(u, op, tfinal, tc, step_callback=count)
    return u, steps[0]


def restrict_to(fine: CellField, grid):
    """Average fine cells down to a coarser grid (1D, integer ratio)."""
    fgrid = fine.grid
    if not isinstance(fgrid, Grid1D):
        raise ConfigurationError("restriction implemented for 1D grids only")
    ratio = fgrid.n // grid.n
    if grid.n * ratio != fgrid.n:
        raise ConfigurationError("fine cell count must be a multiple of the coarse")
    vals = fine.interior.reshape(fine.ncomp, grid.n, ratio).mean(axis=2)
    return CellField.from_interior(grid, vals)


def reference_solution(prob: Problem, grid, tfinal=None) -> CellField:
    """Reference cell averages on ``grid`` for problems without a closed form.

    Problems with an exact hook use it; the others run the same problem on
    >= ``reference_cells`` cells with the mapped-weight scheme and average
    down.
    """
    tfinal = prob.tfinal if tfinal is None else tfinal
    if prob.exact is not None:
        return prob.exact(grid, tfinal)
    if not prob.reference_cells > 0:
        raise ConfigurationError(f"problem {prob.pid} has no reference strategy")
    ratio = math.ceil(prob.reference_cells / grid.n)
    fine, _ = solve(prob, REFERENCE_SCHEME, prob.make_grid(grid.n * ratio), prob.time, tfinal)
    return restrict_to(fine, grid)


def run_problem(cfg: RunConfig) -> RunResult:
    """Execute one experiment; write CSVs and a manifest when out_dir is set."""
    prob, grid, tc, tfinal = cfg.resolve()
    t0 = _time.perf_counter()
    final, steps = solve(prob, cfg.scheme, grid, tc, tfinal)
    wall = _time.perf_counter() - t0

    exact = prob.exact(grid, tfinal) if prob.exact is not None else None
    reference = None
    if (exact is None and prob.reference_cells > 0 and cfg.with_reference
            and not prob.expensive_reference):
        reference = reference_solution(prob, grid, tfinal)

    report = None
    compare = exact if exact is not None else reference
    if compare is not None:
        report = ErrorReport()
        l1, l2, linf = norms(final, compare)
        report.add(_label(grid), l1, l2, linf)

    result = RunResult(prob, grid, final, exact, reference, report, steps, wall)
    if cfg.out_dir is not None:
        result.paths = _write_outputs(cfg, result, tc, tfinal)
    return result


def _label(grid):
    """A grid's row in an error report: its cells in 1D, along x in 2D."""
    return grid.n if isinstance(grid, Grid1D) else grid.nx


def convergence_study(problem_id, scheme, n_list, time=None, tfinal=None) -> ErrorReport:
    """Errors and observed orders over a refinement sequence, each entry of
    ``n_list`` as :meth:`Problem.make_grid` takes it, in the problem's time
    control and to its final time unless given.  Sizes whose rows would
    share a label are refused before any solve."""
    prob = get_problem(problem_id)
    time = prob.time if time is None else time
    tfinal = prob.tfinal if tfinal is None else tfinal
    grids = {}
    for n in n_list:
        grid = prob.make_grid(n)
        if grids.setdefault(_label(grid), grid) is not grid:
            raise ConfigurationError(f"two sizes of the study share the row label {_label(grid)}")
    report = ErrorReport()
    for label, grid in grids.items():
        report.add(label, *_study_point(problem_id, scheme, grid, time, tfinal))
    return report


@functools.lru_cache(maxsize=None)
def _study_point(problem_id, scheme, grid, time, tfinal):
    prob = get_problem(problem_id)
    final, _ = solve(prob, scheme, grid, time, tfinal)
    return norms(final, reference_solution(prob, grid, tfinal))


# --- output files ----------------------------------------------------------

def write_solution_csv(path, field: CellField):
    """One row per cell, every value to 17 significant digits; a 2D field
    runs over y fastest."""
    grid = field.grid
    if isinstance(grid, Grid1D):
        header = "x,rho,momentum,energy" if field.ncomp == 3 else "x,u"
        columns = (grid.centers(), *field.interior)
    else:
        header = "x,y,u"
        columns = (*np.meshgrid(grid.xcenters(), grid.ycenters(), indexing="ij"),
                   field.interior[0])
    np.savetxt(path, np.column_stack([c.ravel() for c in columns]), fmt="%.17g",
               delimiter=",", header=header, comments="")


def _write_outputs(cfg: RunConfig, result: RunResult, tc, tfinal):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    sol = out / "solution.csv"
    write_solution_csv(sol, result.final)
    paths["solution"] = str(sol)

    if result.report is not None:
        err = out / "errors.csv"
        err.write_text(result.report.to_csv())
        paths["errors"] = str(err)
    if result.reference is not None:
        ref = out / "reference.csv"
        write_solution_csv(ref, result.reference)
        paths["reference"] = str(ref)

    manifest = out / "manifest.txt"
    lines = {
        "problem": cfg.problem,
        "scheme": cfg.scheme.label,
        "eps": f"{cfg.scheme.eps:g}",
        "n": str(result.grid.n if isinstance(result.grid, Grid1D)
                 else (result.grid.nx, result.grid.ny)),
        "time_mode": tc.mode,
        "time_value": f"{tc.value:g}",
        "tfinal": f"{tfinal:g}",
        "steps": str(result.steps),
        "wall_time_s": f"{result.wall_time:.3f}",
    }
    manifest.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    paths["manifest"] = str(manifest)

    gp = out / "plot.gp"
    if not isinstance(result.grid, Grid1D):
        gp.write_text(
            "set datafile separator ','\n"
            "set pm3d map\n"
            f"splot 'solution.csv' using 1:2:3 with pm3d title '{cfg.problem}'\n"
        )
    else:
        extra = ""
        if result.reference is not None:
            extra = ", 'reference.csv' using 1:2 with lines title 'reference'"
        gp.write_text(
            "set datafile separator ','\n"
            f"plot 'solution.csv' using 1:2 with linespoints title '{cfg.problem}'{extra}\n"
        )
    paths["plot"] = str(gp)
    return paths
