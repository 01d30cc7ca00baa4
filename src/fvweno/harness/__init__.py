"""Benchmark harness: problem registry, runs, norms, golden checks."""

from types import ModuleType as _ModuleType

from .golden import available_tables, golden_check
from .norms import ErrorReport, convergence_order, norms
from .problems import REGISTRY, Problem, get_problem
from .runs import RunConfig, RunResult, convergence_study, reference_solution, run_problem

# the imported public names; importing them binds the submodules here too
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
