"""Print a fingerprint of the package's outputs: one ``name sha256`` line each.

Every output is hashed through the uint64 bit patterns of its float64
values (and its shape), so two lines match only when every bit matches,
signs of zero included.  The script calls only public entry points with
arguments that older checkouts accept as well, so the ``diff`` of its
output on two checkouts is the evidence that a change kept the bits:

    PYTHONPATH=src python tools/fingerprint.py > after.txt

It covers the reconstruction kernels on seeded rows, every field of the
single-step dissection reports, the final-time tables and a set of
registry runs (a few seconds on one core).
"""

from __future__ import annotations

import hashlib

import numpy as np

from fvweno.dissect import (
    RiemannSetup,
    analyze_step,
    classic_schemes,
    final_time_comparison,
    final_time_schemes,
    render_table,
    zl_schemes,
)
from fvweno.harness.runs import RunConfig, run_problem
from fvweno.weno import WeightScheme, gauss_point_values, interface_states

KERNEL_SCHEMES = (
    WeightScheme.js(),
    WeightScheme.m(),
    WeightScheme.z(),
    WeightScheme.zr(p=2.0),
    WeightScheme.zl(p=2.0, q=1.0),
    WeightScheme.linear(),
)
DISSECT_SETS = {
    "classic": classic_schemes(),
    "zl": zl_schemes(),
    "linear": (WeightScheme.linear(),),
}
REPORT_FIELDS = ("x_interfaces", "x_cells", "weights", "combos", "fluxes",
                 "solutions", "exact", "measured_errors", "formula_errors",
                 "mismatches")
RUNS = (("sod", None), ("lax", None), ("burgers1d", None),
        ("nonconvex-riemann", None), ("burgers2d", (20, 20)),
        ("boundary-layer", (20, 20)))
RUN_SCHEMES = (WeightScheme.js(), WeightScheme.z(), WeightScheme.zl(p=2.0, q=1.0))


def digest(value):
    """SHA-256 of the shape and uint64 bit patterns of a float64 array, or
    of the UTF-8 bytes of a string."""
    if isinstance(value, str):
        return hashlib.sha256(value.encode()).hexdigest()
    a = np.ascontiguousarray(value, dtype=np.float64)
    h = hashlib.sha256(repr(a.shape).encode())
    h.update(a.view(np.uint64).tobytes())
    return h.hexdigest()


def emit(name, value):
    print(f"{name} {digest(value)}", flush=True)


def kernels():
    rng = np.random.default_rng(2026)
    rows = rng.normal(size=(4, 48))
    rows[1, 24:] += 10.0                                   # one jump
    rows[2] = np.where(np.arange(48) < 20, 1.0, 0.0)       # flat runs
    rows[3] *= 1e-3
    for s in KERNEL_SCHEMES:
        u_minus, u_plus, (w_minus, w_plus) = interface_states(rows, s, record=True)
        for name, a in (("u_minus", u_minus), ("u_plus", u_plus),
                        ("omega_minus", w_minus), ("omega_plus", w_plus)):
            emit(f"interface_states/{s.label}/{name}", a)
        emit(f"gauss_point_values/{s.label}", gauss_point_values(rows, s))


def dissection():
    for nu in (0.1, 0.3, 0.5):
        for set_name, schemes in DISSECT_SETS.items():
            for rep in analyze_step(RiemannSetup(nu=nu, schemes=schemes)):
                base = f"analyze_step/nu={nu}/{set_name}/stage{rep.stage}"
                for name in REPORT_FIELDS:
                    value = getattr(rep, name)
                    if not isinstance(value, dict):
                        emit(f"{base}/{name}", value)
                        continue
                    for label, a in value.items():
                        if name == "mismatches":
                            a = np.array(a, dtype=float).reshape(-1, 3)
                        emit(f"{base}/{name}/{label}", a)
                for kind in ("weights", "fluxes", "solutions"):
                    emit(f"{base}/table/{kind}", render_table(rep, kind).to_csv())
    for t_final in (0.5, 1.0, 2.0):
        for set_name, schemes in (("final", final_time_schemes()), ("zl", zl_schemes())):
            table = final_time_comparison(RiemannSetup(schemes=schemes), t_final)
            base = f"final_time/T={t_final:g}/{set_name}"
            emit(f"{base}/columns", table.columns)
            emit(f"{base}/values", table.values)
            emit(f"{base}/csv", table.to_csv())
            emit(f"{base}/text", table.to_text())


def runs():
    for pid, n in RUNS:
        for s in RUN_SCHEMES:
            result = run_problem(RunConfig(pid, s, n=n, with_reference=False))
            base = f"run_problem/{pid}/{s.label}"
            emit(f"{base}/final", result.final.data)
            emit(f"{base}/steps", float(result.steps))
            if result.exact is not None:
                emit(f"{base}/exact", result.exact.data)


if __name__ == "__main__":
    kernels()
    dissection()
    runs()
