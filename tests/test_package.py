"""Package surface: the public names, and the targets the benchmark hooks."""

import dataclasses
import importlib
import importlib.util
import types
from pathlib import Path

import fvweno

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_exports_resolve_and_hold_no_modules():
    for name in fvweno.__all__:
        value = getattr(fvweno, name)
        assert not isinstance(value, types.ModuleType), name


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname, path):
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_benchmark_hook_targets_resolve():
    # a deletion or rename that drops a hooked name reads as a missing hook
    # in the benchmark; resolve every target without binding anything
    tracing = _perfbench_module("tracing")
    workloads = _perfbench_module("workloads")
    targets = [(modname, path) for _, modname, path in tracing.HOOKS]
    targets += list(workloads.STEP_HOOKS) + list(workloads.MEMO_CACHES)
    missing = []
    for modname, path in targets:
        try:
            _resolve(modname, path)
        except (ImportError, AttributeError):
            missing.append(f"{modname}.{path}")
    assert missing == []
    for modname, attr in workloads.MEMO_CACHES:
        assert hasattr(_resolve(modname, attr), "cache_clear"), f"{modname}.{attr}"
    # the exact-solution spans replace each registered problem's hook
    for prob in _resolve("fvweno.harness.problems", "REGISTRY").values():
        dataclasses.replace(prob, exact=prob.exact)
