"""Acceptance gate: one test per criterion, printing a PASS/FAIL line each.

Tolerances are pinned here, not calibrated.  Two sub-checks of criterion 8
(the Lax density band for the Z-family and blastwave completion with
ZL(p=1/7, q=2)) are implemented exactly as stated and are expected to fail
under the componentwise-reconstruction design this package mandates; see
the README's limitations section.
"""

import time

import numpy as np
import pytest

from fvweno.dissect import (
    RiemannSetup,
    analyze_step,
    classic_schemes,
    final_time_comparison,
    final_time_schemes,
    zl_schemes,
)
from fvweno.errors import DivergenceError, StateError
from fvweno.harness.golden import golden_check, load_fixture, print_quantum
from fvweno.harness.runs import RunConfig, _study_point, convergence_study, run_problem
from fvweno.mesh import Grid1D, Grid2D, cell_average_of, CellField, PERIODIC
from fvweno.physics import BURGERS, EULER, FluxPair2D, exact_riemann
from fvweno.solver import SemiDiscreteOp1D, SemiDiscreteOp2D
from fvweno.weno import (
    D_EDGE,
    WeightScheme,
    nonlinear_weights,
    smoothness_indicators,
)

from oracle_utils import NODE_X, oracle_big, oracle_substencil

FIVE_SCHEMES = {
    "JS": WeightScheme.js(),
    "M": WeightScheme.m(),
    "Z": WeightScheme.z(),
    "ZR(p=2)": WeightScheme.zr(p=2),
    "ZL(p=2,q=2)": WeightScheme.zl(p=2, q=2),
}


def _report(criterion, failures, detail=""):
    ok = not failures
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    for f in failures:
        print(f"    - {f}")
    assert ok, f"criterion {criterion}: " + "; ".join(failures)


def _dissect_tol(ref, token=None):
    tol = max(1e-6 * abs(ref), 1e-15)
    if token is not None:
        tol = max(tol, print_quantum(token))
    return tol


# --- criterion 1: convergence tables ----------------------------------------

def test_criterion_1_convergence_tables():
    _study_point.cache_clear()
    failures = []
    t0 = time.perf_counter()
    fixtures = {norm: load_fixture(f"accuracy-{norm}") for norm in ("l1", "l2", "linf")}
    for label, scheme in FIVE_SCHEMES.items():
        report = convergence_study("advection1d-accuracy", scheme,
                                   (10, 20, 40, 80, 160))
        for norm, fx in fixtures.items():
            errs = report.errors(norm)
            orders = report.orders(norm)
            for n, ref, oref in zip(fx.columns, fx.rows[f"{label}/error"],
                                    fx.rows[f"{label}/order"]):
                n = int(n)
                if abs(errs[n] - ref) > 0.02 * ref:
                    failures.append(
                        f"{label} {norm} N={n}: error {errs[n]:.3e} vs {ref:.2e}")
                if oref is not None and abs(orders[n] - oref) > 0.05:
                    failures.append(
                        f"{label} {norm} N={n}: order {orders[n]:.4f} vs {oref}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(1, failures, f"5 schemes x 3 norms x N=10..160 in {elapsed:.1f}s")


# --- criterion 2: stage-1 weight table ---------------------------------------

def test_criterion_2_stage1_weights():
    t0 = time.perf_counter()
    r1, _, _ = analyze_step(RiemannSetup(schemes=classic_schemes()))
    k = int(np.argmin(np.abs(r1.x_interfaces + 0.01)))
    failures = []

    js = r1.weights["JS"][k]
    for got, (ref, token) in zip(js, [(0.142857, "0.142857"),
                                      (0.857143, "0.857143"),
                                      (2.411e-25, None)]):
        if abs(got - ref) > _dissect_tol(ref, token):
            failures.append(f"omega_JS {got:.8g} vs {ref}")
    if abs(js[2] - 2.411e-25) > 1e-3 * 2.411e-25:
        failures.append(f"omega_JS2 {js[2]:.4g} vs 2.411e-25")
    z2 = r1.weights["Z"][k][2]
    if abs(z2 - 6.429e-41) > max(_dissect_tol(6.429e-41), 1e-3 * 6.429e-41):
        failures.append(f"omega_Z2 {z2:.4g} vs 6.429e-41")
    if abs(z2 - 6.429e-41) > 1e-3 * 6.429e-41:
        failures.append(f"omega_Z2 relative check {z2:.4g}")
    zr2 = r1.weights["ZR(p=3)"][k][2]
    if abs(zr2 - 6.429e-121) > 1e-3 * 6.429e-121:
        failures.append(f"omega_ZR2 {zr2:.4g} vs 6.429e-121 (cube-root variant)")
    # mapped weights on smooth windows stay within 1e-15 of the linear ones
    for x in (-0.03, -0.02, 0.03, 0.04):
        kk = int(np.argmin(np.abs(r1.x_interfaces - x)))
        if np.max(np.abs(r1.weights["M"][kk] - D_EDGE)) > 1e-15:
            failures.append(f"omega_M at x={x} deviates from linear weights")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(2, failures, f"{elapsed:.2f}s")


# --- criterion 3: one-step solutions -----------------------------------------

def test_criterion_3_one_step_solutions():
    t0 = time.perf_counter()
    failures = []
    _, _, r3 = analyze_step(RiemannSetup(schemes=classic_schemes()))
    j = int(np.argmin(np.abs(r3.x_cells - 0.005)))
    for label, ref in [("JS", 0.448119), ("M", 0.453231), ("Z", 0.461713),
                       ("ZR(p=3)", 0.467071)]:
        got = r3.solutions[label][j]
        if abs(got - ref) > 1e-6:
            failures.append(f"{label}: {got:.6f} vs {ref}")
    _, _, z3 = analyze_step(RiemannSetup(schemes=zl_schemes()))
    j = int(np.argmin(np.abs(z3.x_cells - 0.005)))
    for label, ref in [("ZL(p=1,q=1)", 0.463702), ("ZL(p=2,q=1)", 0.466803)]:
        got = z3.solutions[label][j]
        if abs(got - ref) > 1e-6:
            failures.append(f"{label}: {got:.6f} vs {ref}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(3, failures, f"{elapsed:.2f}s")


# --- criterion 4: final-time Riemann ------------------------------------------

def test_criterion_4_final_time():
    t0 = time.perf_counter()
    failures = []
    table = final_time_comparison(RiemannSetup(schemes=final_time_schemes()))
    cols = {round(c, 4): i for i, c in enumerate(table.columns)}
    rows = dict(zip(table.row_labels, table.values))
    refs = {
        "JS": (0.602513, 0.399953),
        "M": (0.618327, 0.384776),
        "Z": (0.625016, 0.381100),
        "ZR(p=2)": (0.627611, 0.379859),
    }
    for label, (a, b) in refs.items():
        for x, ref in ((0.995, a), (1.005, b)):
            got = rows[label][cols[x]]
            if abs(got - ref) > 5e-4:
                failures.append(f"{label}@{x}: {got:.6f} vs {ref}")
    for x in (0.995, 1.005):
        exact = rows["exact"][cols[x]]
        errs = [abs(rows[lab][cols[x]] - exact) for lab in refs]
        if errs != sorted(errs, reverse=True):
            failures.append(f"dissipation ordering violated at x={x}: {errs}")

    ztab = final_time_comparison(RiemannSetup(schemes=zl_schemes()))
    zrows = dict(zip(ztab.row_labels, ztab.values))
    zrefs = {
        "ZL(p=1,q=1)": (0.625163, 0.380986),
        "ZL(p=2,q=1)": (0.627000, 0.380018),
        "ZL(p=1,q=2)": (0.622006, 0.385993),
        "ZL(p=2,q=2)": (0.625452, 0.384047),
    }
    for label, (a, b) in zrefs.items():
        for x, ref in ((0.995, a), (1.005, b)):
            got = zrows[label][cols[x]]
            if abs(got - ref) > 5e-4:
                failures.append(f"{label}@{x}: {got:.6f} vs {ref}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _report(4, failures, f"{elapsed:.1f}s")


# --- criterion 5: closed-form error formulas vs solver ------------------------

def test_criterion_5_formula_oracle():
    t0 = time.perf_counter()
    failures = []
    for nu in (0.1, 0.3, 0.5):
        for delta in (0.5, 1.0):
            setup = RiemannSetup(delta=delta, nu=nu,
                                 schemes=(WeightScheme.js(eps=1e-12),
                                          WeightScheme.z()))
            for rep in analyze_step(setup):
                for label in ("JS", "Z"):
                    diff = np.max(np.abs(rep.formula_errors[label]
                                         - rep.measured_errors[label]))
                    if diff > 1e-12:
                        failures.append(
                            f"nu={nu} delta={delta} stage {rep.stage} {label}: "
                            f"max diff {diff:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 2.0:
        failures.append(f"runtime {elapsed:.1f}s >= 2s")
    _report(5, failures, f"6 setups x 3 stages in {elapsed:.1f}s")


# --- criterion 6: reconstruction oracle ---------------------------------------

def test_criterion_6_reconstruction_oracle():
    from fvweno import weno as W
    from fractions import Fraction

    failures = []
    rng = np.random.default_rng(2026)
    tables = {"edge": (W.CAND_EDGE, W.BIG_EDGE),
              "minus": (W.CAND_GAUSS_MINUS, W.BIG_GAUSS_MINUS),
              "center": (W.CAND_GAUSS_CENTER, W.BIG_GAUSS_CENTER),
              "plus": (W.CAND_GAUSS_PLUS, W.BIG_GAUSS_PLUS)}
    worst = 0.0
    for _ in range(100):
        w = rng.normal(size=5)
        for node, x in NODE_X.items():
            cand, big = tables[node]
            errs = [abs((cand @ w)[s] - oracle_substencil(w, s, x)) for s in range(3)]
            errs.append(abs(big @ w - oracle_big(w, x)))
            worst = max(worst, max(errs))
    if worst > 1e-12:
        failures.append(f"coefficient tables deviate from the oracle by {worst:.2e}")
    for s in range(3):
        lhs = (W.SIGMA_PLUS_EXACT * W.GAMMA_PLUS_EXACT[s]
               - W.SIGMA_MINUS_EXACT * W.GAMMA_MINUS_EXACT[s])
        if lhs != W.D_GAUSS_CENTER_EXACT[s][0] or W.D_GAUSS_CENTER_EXACT[s][1] != 0:
            failures.append(f"split identity fails for s={s}")
    _report(6, failures, f"worst oracle deviation {worst:.2e}")


# --- criterion 7: weight-family properties ------------------------------------

def test_criterion_7_weight_properties():
    t0 = time.perf_counter()
    failures = []
    eps = np.finfo(float).eps
    rng = np.random.default_rng(777)
    beta = rng.uniform(0.0, 10.0, size=(100_000, 3))
    for label, scheme in FIVE_SCHEMES.items():
        om = nonlinear_weights(beta, scheme)
        if not np.all(om >= 0.0):
            failures.append(f"{label}: negative weight")
        if np.max(np.abs(om.sum(axis=1) - 1.0)) > 4 * eps:
            failures.append(f"{label}: weights do not sum to one within 4 ulps")
    zr1, z = (nonlinear_weights(beta, s) for s in (WeightScheme.zr(p=1), WeightScheme.z()))
    if np.max(np.abs(zr1 - z)) > 1e-12:
        failures.append("ZR(p=1) differs from Z beyond 1e-12")
    beta_pos = rng.uniform(0.1, 10.0, size=(10_000, 3))
    zl = nonlinear_weights(beta_pos, WeightScheme.zl(p=1e12, q=1))
    if np.max(np.abs(zl - D_EDGE)) > 1e-10:
        failures.append("ZL(p=1e12) does not return the linear weights")

    def max_dev(n, scheme):
        dx = 2.0 / n
        centers = np.arange(-n // 2, n // 2 + 1) * dx
        el, er = centers - dx / 2, centers + dx / 2
        avg = (np.cos(np.pi * el) - np.cos(np.pi * er)) / (np.pi * dx)
        om = nonlinear_weights(smoothness_indicators(
            np.lib.stride_tricks.sliding_window_view(avg, 5)), scheme)
        mask = np.abs(np.cos(np.pi * centers[2:-2])) > 0.3
        return np.max(np.abs(om - D_EDGE)[mask])

    for label, scheme, floor in [("JS", FIVE_SCHEMES["JS"], 1.9),
                                 ("Z", FIVE_SCHEMES["Z"], 1.9),
                                 ("ZR(p=2)", FIVE_SCHEMES["ZR(p=2)"], 1.9),
                                 ("ZL(p=2,q=2)", FIVE_SCHEMES["ZL(p=2,q=2)"], 1.9),
                                 ("M", FIVE_SCHEMES["M"], 2.9)]:
        devs = [max_dev(n, scheme) for n in (40, 80, 160)]
        orders = np.log2(np.array(devs[:-1]) / np.array(devs[1:]))
        if not np.all(orders >= floor):
            failures.append(f"{label}: smooth-weight deviation orders {orders}")

    # first-order critical point for the zl q=2 family
    def antideriv(x):
        return -np.cos(np.pi * x) / np.pi - np.cos(2 * np.pi * x) / (4 * np.pi)

    devs = []
    for n in (40, 80, 160):
        dx = 2.0 / n
        centers = 1.0 / 3.0 + np.arange(-6, 7) * dx
        avg = (antideriv(centers + dx / 2) - antideriv(centers - dx / 2)) / dx
        om = nonlinear_weights(smoothness_indicators(
            np.lib.stride_tricks.sliding_window_view(avg, 5)),
            WeightScheme.zl(p=2, q=2))
        devs.append(np.max(np.abs(om[om.shape[0] // 2] - D_EDGE)))
    orders = np.log2(np.array(devs[:-1]) / np.array(devs[1:]))
    if not np.all(orders >= 1.9):
        failures.append(f"ZL(q=2) critical-point deviation orders {orders}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _report(7, failures, f"{elapsed:.1f}s")


# --- criterion 8: Euler robustness --------------------------------------------

def _density_range(result):
    rho = result.final.interior[0]
    u = result.final.interior[1] / rho
    P = 0.4 * (result.final.interior[2] - 0.5 * rho * u * u)
    return rho.min(), rho.max(), P.min()


SOD_SCHEMES = dict(list(FIVE_SCHEMES.items())[:4]) | {"ZL(p=5,q=1)": WeightScheme.zl(p=5, q=1)}
LAX_SCHEMES = dict(list(FIVE_SCHEMES.items())[:4]) | {"ZL(p=2,q=1)": WeightScheme.zl(p=2, q=1)}


def test_criterion_8_sod():
    t0 = time.perf_counter()
    failures = []
    fan = exact_riemann((1.0, 0.0, 1.0), (0.125, 0.0, 0.1))
    lo, hi = fan.density_range()
    for label, scheme in SOD_SCHEMES.items():
        try:
            res = run_problem(RunConfig("sod", scheme, with_reference=False))
        except (DivergenceError, StateError) as exc:
            failures.append(f"sod {label} did not complete: {exc}")
            continue
        rmin, rmax, pmin = _density_range(res)
        if not (rmin > 0 and pmin > 0):
            failures.append(f"sod {label}: nonpositive density/pressure")
        if not (rmin >= 0.98 * lo and rmax <= 1.02 * hi):
            failures.append(
                f"sod {label}: density [{rmin:.4f},{rmax:.4f}] outside "
                f"[{0.98*lo:.4f},{1.02*hi:.4f}]")
    _report("8a (Sod completes, density band)", failures,
            f"{time.perf_counter()-t0:.1f}s")


def test_criterion_8_lax_completion():
    failures = []
    for label, scheme in LAX_SCHEMES.items():
        try:
            res = run_problem(RunConfig("lax", scheme, with_reference=False))
        except (DivergenceError, StateError) as exc:
            failures.append(f"lax {label} did not complete: {exc}")
            continue
        rmin, rmax, pmin = _density_range(res)
        if not (rmin > 0 and pmin > 0):
            failures.append(f"lax {label}: nonpositive density/pressure")
    _report("8b (Lax completes with positive density/pressure)", failures)


def test_criterion_8_lax_density_band():
    # KNOWN LIMITATION: componentwise reconstruction of the conserved
    # variables (mandated design) leaves a 2-4% plateau oscillation behind
    # the Lax contact for the Z-family; a characteristic-wise diagnostic
    # removes it entirely.  Implemented as stated; expected to fail.
    failures = []
    fan = exact_riemann((0.445, 0.698, 3.528), (0.5, 0.0, 0.571))
    lo, hi = fan.density_range()
    for label, scheme in LAX_SCHEMES.items():
        res = run_problem(RunConfig("lax", scheme, with_reference=False))
        rmin, rmax, _ = _density_range(res)
        if not (rmin >= 0.98 * lo and rmax <= 1.02 * hi):
            failures.append(
                f"lax {label}: density [{rmin:.4f},{rmax:.4f}] outside "
                f"[{0.98*lo:.4f},{1.02*hi:.4f}]")
    _report("8c (Lax density band +-2%)", failures)


def test_criterion_8_blastwave_safe_parameters():
    # KNOWN LIMITATION: the logarithmic indicator saturates on the blast
    # wave's O(1e6) smoothness indicators, so the nonlinear weights fall
    # back to the linear ones at the strong jumps and the pressure turns
    # negative; completion is not attainable with componentwise
    # reconstruction at these settings.  Implemented as stated.
    failures = []
    try:
        res = run_problem(RunConfig("blastwave", WeightScheme.zl(p=1.0 / 7.0, q=2),
                                    with_reference=False))
        rmin, rmax, pmin = _density_range(res)
        if not (rmin > 0 and pmin > 0):
            failures.append(f"blastwave ZL(1/7,2): nonpositive state at T")
    except (DivergenceError, StateError) as exc:
        failures.append(f"blastwave ZL(1/7,2) did not complete: {exc}")
    _report("8d (blastwave completes with ZL(p=1/7,q=2))", failures)


def test_criterion_8_blastwave_aggressive_parameters_fail_cleanly():
    from fvweno.cli import main

    failures = []
    rc = main(["run", "blastwave", "--scheme", "zl", "--p", "5", "--q", "1",
               "--no-reference"])
    if rc != 1:
        failures.append(f"expected exit code 1, got {rc}")
    try:
        run_problem(RunConfig("blastwave", WeightScheme.zl(p=5, q=1),
                              with_reference=False))
        failures.append("expected a divergence")
    except DivergenceError as exc:
        if exc.stage not in (1, 2, 3):
            failures.append(f"divergence does not name a stage: {exc}")
    except StateError as exc:
        failures.append(f"raw state error escaped the stepper: {exc}")
    _report("8e (blastwave ZL(p=5,q=1) fails cleanly, exit 1, named stage)",
            failures)


# --- criterion 9: two-dimensional cases ---------------------------------------

def test_criterion_9_two_dimensional():
    t0 = time.perf_counter()
    failures = []

    schemes_2d = dict(list(FIVE_SCHEMES.items())[:4])
    schemes_2d["ZL(p=1,q=1)"] = WeightScheme.zl(p=1, q=1)
    schemes_2d["ZL(p=3,q=1)"] = WeightScheme.zl(p=3, q=1)

    for label, scheme in schemes_2d.items():
        try:
            res = run_problem(RunConfig("burgers2d", scheme, with_reference=False))
            if not np.all(np.isfinite(res.final.interior)):
                failures.append(f"burgers2d {label}: non-finite values")
        except (DivergenceError, StateError) as exc:
            failures.append(f"burgers2d {label} did not complete: {exc}")
        try:
            res = run_problem(RunConfig("boundary-layer", scheme,
                                        with_reference=False))
            if not np.all(np.isfinite(res.final.interior)):
                failures.append(f"boundary-layer {label}: non-finite values")
        except (DivergenceError, StateError) as exc:
            failures.append(f"boundary-layer {label} did not complete: {exc}")

    # periodic-direction conservation per step
    from fvweno.integrate import rk3_step

    grid = Grid2D(-2.0, 2.0, -2.0, 2.0, 20, 20)
    u = cell_average_of(lambda x, y: 0.25 + 0.5 * np.sin(np.pi * (x + y) / 2), grid)
    op = SemiDiscreteOp2D(FluxPair2D(BURGERS, BURGERS), WeightScheme.z(),
                          (PERIODIC,) * 4)
    mass = u.interior[0].sum() * grid.dx * grid.dy
    for _ in range(5):
        u = rk3_step(u, op, 0.01)
        m = u.interior[0].sum() * grid.dx * grid.dy
        if abs(m - mass) > 1e-10:
            failures.append(f"per-step 2D conservation violated: {abs(m-mass):.2e}")
        mass = m

    # separable-field reduction
    g1 = Grid1D(-1.0, 1.0, 24)
    g2 = Grid2D(-1.0, 1.0, -1.0, 1.0, 24, 16)
    X = lambda x: np.sin(np.pi * x)
    t1 = SemiDiscreteOp1D(BURGERS, WeightScheme.zr(p=2), (PERIODIC, PERIODIC))(
        cell_average_of(X, g1)).interior[0]
    t2 = SemiDiscreteOp2D(FluxPair2D(BURGERS, BURGERS), WeightScheme.zr(p=2),
                          (PERIODIC,) * 4)(
        cell_average_of(lambda x, y: X(x) + 0.0 * y, g2)).interior[0]
    if np.abs(t2 - t1[:, None]).max() > 1e-12:
        failures.append("separable 2D-vs-1D reduction exceeds 1e-12")

    # published 2D advection L1 errors within 5%
    rep = golden_check("accuracy-2d-l1")
    if not rep.ok:
        failures.append("2D advection L1 table mismatch:\n" + rep.diff_text())

    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f}s >= 120s")
    _report(9, failures, f"{elapsed:.0f}s")
