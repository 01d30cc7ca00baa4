"""Stage-by-stage dissection of one RK3 step on the advected Riemann problem.

The setup is the advection equation with a jump from delta down to 0 on
cells of width DX, placed at x = 0 so that cell I_0 = [0, DX].  For each
requested weight scheme the actual solver is run one TVD-RK3 step (and, for
the final-time comparison, to T); per-stage interface weights and fluxes
are captured through the stage observer.  Closed-form error expressions
built from weight combinations

    A = w1 + 2*w2,  B = 5*w0 + w1,  C = 2*w1 + 5*w2,
    D = 11*w0 + 5*w1 + 2*w2,  E = 7*w0 + w1

are evaluated with the captured weights and cross-checked against the
solver-measured cell errors; cells where the two disagree beyond tolerance
are flagged on the report rather than silently reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .integrate import rk3_step, integrate_to, TimeControl
from .mesh import Grid1D, OUTFLOW, step_function_average
from .physics import ADVECTION
from .solver import SemiDiscreteOp1D
from .weno import WeightScheme

# Interfaces j+1/2 and cells j retained on the stage reports.
IFACE_LO, IFACE_HI = -4, 9
CELL_LO, CELL_HI = -3, 9
# A closed form matches the solver within this share of the jump delta.
FORMULA_MATCH_TOL = 1e-12
# Cell width of the published tables.
DX = 0.01

# epsilon used for the JS scheme inside the dissection runs; the production
# default 1e-6 stays available by passing an explicit scheme.
JS_DISSECT_EPS = 1e-12


def classic_schemes(p_zr=3.0):
    return (
        WeightScheme.js(eps=JS_DISSECT_EPS),
        WeightScheme.m(),
        WeightScheme.z(),
        WeightScheme.zr(p=p_zr),
    )


def final_time_schemes():
    # The published final-time comparison switches the ZR root to p=2; the
    # single-step tables are reproduced with p=3 (see classic_schemes).
    return classic_schemes(p_zr=2.0)


def zl_schemes():
    return (
        WeightScheme.zl(p=1, q=1),
        WeightScheme.zl(p=2, q=1),
        WeightScheme.zl(p=1, q=2),
        WeightScheme.zl(p=2, q=2),
    )


# The largest jump: beta is of order delta^2 and the JS/M factor (beta+eps)^2
# of order delta^4, which overflows near delta = 1e77.  Apart from eps the
# analysis is homogeneous in delta, so a larger jump shows nothing new.
DELTA_MAX = 1e76
# The smallest Courant number: stages 2 and 3 carry errors times 6/nu, which
# overflows below 3.3e-308; formulas hold down to 3.4e-308 (delta 1e-20..1e76).
NU_MIN = 1e-307


@dataclass(frozen=True)
class RiemannSetup:
    """Jump from ``delta`` down to 0 advected one step at Courant number
    ``nu`` = dt/DX; the analysis assumes NU_MIN <= nu <= 0.5 and
    0 < delta <= DELTA_MAX."""

    delta: float = 1.0
    nu: float = 0.5
    schemes: tuple = field(default_factory=classic_schemes)

    def __post_init__(self):
        if not (NU_MIN <= self.nu <= 0.5):
            raise ConfigurationError(f"the dissection assumes {NU_MIN:g} <= nu <= 0.5")
        if not (0.0 < self.delta <= DELTA_MAX):
            raise ConfigurationError(f"the dissection assumes 0 < delta <= {DELTA_MAX:g}")


@dataclass
class StageReport:
    """Captured weights/fluxes and cell errors of one RK stage."""

    stage: int
    x_interfaces: np.ndarray
    x_cells: np.ndarray
    weights: dict            # label -> (K, 3)
    fluxes: dict             # label -> (K,)
    solutions: dict          # label -> (C,)
    exact: np.ndarray        # (C,) exact one-step cell averages
    measured_errors: dict    # label -> (C,)
    formula_errors: dict     # label -> (C,), zero outside the formula range
    mismatches: dict         # label -> list of (cell j, measured, formula)


class _WeightView:
    """Weights and their combinations A..E by half-integer interface index.

    ``offset`` is the array index of interface 1/2 (between cells I_0 and
    I_1) in the weight triples ``omega``; interface j+1/2 is addressed by
    the integer j.
    """

    def __init__(self, omega, offset):
        self._omega, self._offset = omega, offset

    def w(self, s, half):
        return self._omega[self._offset + half][s]

    def A(self, half):
        _, w1, w2 = self._omega[self._offset + half]
        return w1 + 2.0 * w2

    def B(self, half):
        w0, w1, _ = self._omega[self._offset + half]
        return 5.0 * w0 + w1

    def C(self, half):
        _, w1, w2 = self._omega[self._offset + half]
        return 2.0 * w1 + 5.0 * w2

    def D(self, half):
        w0, w1, w2 = self._omega[self._offset + half]
        return 11.0 * w0 + 5.0 * w1 + 2.0 * w2

    def E(self, half):
        w0, w1, _ = self._omega[self._offset + half]
        return 7.0 * w0 + w1


def stage1_error_formulas(view, nu, delta):
    """Closed-form first-stage errors for cells j = -2..2."""
    return {
        -2: -nu / 6.0 * view.w(2, -2) * delta,
        -1: nu / 6.0 * (view.w(2, -2) + 2.0 * view.A(-1)) * delta,
        0: nu / 6.0 * (-2.0 * view.A(-1) + view.B(0)) * delta,
        1: -nu / 6.0 * (view.B(0) + 2.0 * view.w(0, 1)) * delta,
        2: nu / 3.0 * view.w(0, 1) * delta,
    }


def _carry(view, nu, e, j):
    """The terms of cell j in the previous stage's errors ``e`` (a map from
    cell index to measured error), summed left to right over the cells
    k = j-3 .. j+2 that ``e`` holds; stages 2 and 3 share them."""
    v = view
    coefficients = (
        2.0 * v.w(0, j - 1),
        -(v.E(j - 1) + 2.0 * v.w(0, j)),
        v.D(j - 1) + v.E(j),
        v.C(j - 1) - v.D(j) + 6.0 / nu,
        -(v.w(2, j - 1) + v.C(j)),
        v.w(2, j),
    )
    terms = [c * e[k] for k, c in enumerate(coefficients, j - 3) if k in e]
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def stage2_error_formulas(view, nu, delta, e1):
    """Closed-form second-stage errors for cells j = -2..5.

    ``e1`` maps cell index to the measured first-stage error (only j = 0,
    1, 2 enter; the others vanish to machine precision)."""
    v = view
    sources = {
        -2: -nu / 24.0 * v.w(2, -2) * (1.0 - nu) * delta,
        -1: (v.w(2, -2) + 2.0 * v.A(-1) - (v.w(2, -2) + v.C(-1)) * nu) * nu * delta / 24.0,
        0: -0.75 * nu * delta
        + ((-2.0 * v.A(-1) + v.D(0) + 2.0 * v.A(0)) + (v.C(-1) - v.D(0)) * nu)
        * nu * delta / 24.0,
        1: 0.25 * nu * delta
        + (-(v.D(0) + 2.0 * v.A(0) + 2.0 * v.w(0, 1)) + (v.D(0) + v.E(1)) * nu)
        * nu * delta / 24.0,
        2: (2.0 * v.w(0, 1) - (v.E(1) + 2.0 * v.w(0, 2)) * nu) * nu * delta / 24.0,
        3: nu * nu * delta * v.w(0, 2) / 12.0,
    }
    out = {j: nu / 24.0 * _carry(v, nu, e1, j) for j in range(-2, 6)}
    for j, source in sources.items():
        out[j] += source
    return out


def stage3_error_formulas(view, nu, delta, e2):
    """Closed-form third-stage errors for cells j = -2..8.

    ``e2`` maps cell index to the measured second-stage error (j = 0..5)."""
    v = view
    sources = {
        -2: -nu / 9.0 * v.w(2, -2) * (1.0 - nu) * delta,
        -1: (v.w(2, -2) + 2.0 * v.A(-1) - (v.w(2, -2) + v.C(-1)) * nu) * nu * delta / 9.0,
        0: nu * delta / 3.0
        + ((-2.0 * v.A(-1) + v.B(0)) + (v.C(-1) - v.D(0)) * nu) * nu * delta / 9.0,
        1: (-(v.B(0) + 2.0 * v.w(0, 1)) + (v.D(0) + v.E(1)) * nu) * nu * delta / 9.0,
        2: (2.0 * v.w(0, 1) - (v.E(1) + 2.0 * v.w(0, 2)) * nu) * nu * delta / 9.0,
        3: 2.0 * nu * nu * delta * v.w(0, 2) / 9.0,
    }
    out = {j: nu / 9.0 * _carry(v, nu, e2, j) for j in range(-2, 9)}
    for j, source in sources.items():
        out[j] += source
    return out


def _jump_grid(left, right):
    """Grid of ``left`` cells of width DX left of x = 0 and ``right`` right
    of it, so that its cell ``left`` is I_0 = [0, DX]."""
    return Grid1D(-left * DX, right * DX, left + right)


def analyze_step(setup: RiemannSetup):
    """Run one RK3 step per scheme, capture stages, evaluate error formulas.

    Returns the three :class:`StageReport` objects.
    """
    i0 = 15
    grid = _jump_grid(i0, 22)
    exact = step_function_average(grid, setup.nu * DX, setup.delta, 0.0).interior[0]
    dt = setup.nu * DX

    iface_sel = slice(i0 + IFACE_LO + 1, i0 + IFACE_HI + 2)
    cell_sel = slice(i0 + CELL_LO, i0 + CELL_HI + 1)
    x_ifaces = grid.interfaces()[iface_sel]
    x_cells = grid.centers()[cell_sel]

    reports = {
        k: StageReport(k, x_ifaces, x_cells, {}, {}, {},
                       exact[cell_sel].copy(), {}, {}, {})
        for k in (1, 2, 3)
    }

    for scheme in setup.schemes:
        label = scheme.label
        op = SemiDiscreteOp1D(ADVECTION, scheme, (OUTFLOW, OUTFLOW))
        u0 = step_function_average(grid, 0.0, setup.delta, 0.0)
        captured = {}

        def observer(stage, stage_field, rec, captured=captured):
            captured[stage] = (stage_field.interior[0].copy(), rec)

        rk3_step(u0, op, dt, observer=observer)

        measured_by_stage = {}
        for k in (1, 2, 3):
            values, rec = captured[k]
            errors = values - exact
            measured_by_stage[k] = errors
            rep = reports[k]
            omega = rec.omega_minus[0]
            rep.weights[label] = omega[iface_sel]
            rep.fluxes[label] = rec.flux[0][iface_sel]
            rep.solutions[label] = values[cell_sel]
            rep.measured_errors[label] = errors[cell_sel]

            view = _WeightView(omega, i0 + 1)
            if k == 1:
                formulas = stage1_error_formulas(view, setup.nu, setup.delta)
            elif k == 2:
                prev = {j: measured_by_stage[1][i0 + j] for j in range(0, 3)}
                formulas = stage2_error_formulas(view, setup.nu, setup.delta, prev)
            else:
                prev = {j: measured_by_stage[2][i0 + j] for j in range(0, 6)}
                formulas = stage3_error_formulas(view, setup.nu, setup.delta, prev)

            frm = np.zeros_like(rep.exact)
            flags = []
            for j, formula in formulas.items():
                frm[j - CELL_LO] = formula
                measured = errors[i0 + j]
                if not np.isfinite(formula) or (abs(measured) > 1e-300 and abs(
                        measured - formula) > FORMULA_MATCH_TOL * setup.delta):
                    flags.append((j, measured, formula))
            rep.formula_errors[label] = frm
            rep.mismatches[label] = flags
    return reports[1], reports[2], reports[3]


# ---------------------------------------------------------------------------
# Tabular rendering
# ---------------------------------------------------------------------------


@dataclass
class Table:
    """A labelled value matrix with the table-rendering conventions used by
    the comparison tables: six significant digits, e-notation below 1e-3."""

    title: str
    columns: np.ndarray
    row_labels: list
    values: np.ndarray

    def format_value(self, v):
        if v == 0.0:
            return "0"
        if not np.isfinite(v):
            return "nan"
        if abs(v) < 1e-3:
            return f"{v:.3e}"
        return f"{v:.6g}"

    def to_text(self):
        head = ["x"] + [f"{c:g}" for c in self.columns]
        rows = [
            [label] + [self.format_value(v) for v in row]
            for label, row in zip(self.row_labels, self.values)
        ]
        widths = [max(len(r[k]) for r in [head] + rows) for k in range(len(head))]
        lines = [self.title] if self.title else []
        lines.append("  ".join(h.rjust(w) for h, w in zip(head, widths)))
        for r in rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)

    def to_csv(self):
        lines = [",".join(["x"] + [f"{c:g}" for c in self.columns])]
        for label, row in zip(self.row_labels, self.values):
            lines.append(",".join([label] + [self.format_value(v) for v in row]))
        return "\n".join(lines) + "\n"


def render_table(report: StageReport, which) -> Table:
    """Lay a stage report out like the published comparison tables.

    ``which`` is ``'weights'``, ``'fluxes'`` or ``'solutions'``.
    """
    if which == "weights":
        labels, rows = [], []
        for s in range(3):
            for label, omega in report.weights.items():
                labels.append(f"w{s}[{label}]")
                rows.append(omega[:, s])
        return Table(f"stage {report.stage} weights", report.x_interfaces,
                     labels, np.array(rows))
    if which == "fluxes":
        labels = list(report.fluxes)
        rows = np.array([report.fluxes[k] for k in labels])
        return Table(f"stage {report.stage} fluxes", report.x_interfaces, labels, rows)
    if which == "solutions":
        labels = list(report.solutions)
        rows = [report.solutions[k] for k in labels]
        labels.append("exact")
        rows.append(report.exact)
        return Table(f"stage {report.stage} solutions", report.x_cells,
                     labels, np.array(rows))
    raise ConfigurationError(f"unknown table kind {which!r}")


def final_time_comparison(setup: RiemannSetup, t_final=1.0) -> Table:
    """Advect the jump to ``t_final`` per scheme and tabulate the cells
    with centres within 0.04 of the exact discontinuity position."""
    if not 0.0 < t_final < np.inf:
        raise ConfigurationError("t_final must be positive and finite")
    margin = 0.35 * max(t_final, 0.1)
    i0 = int(np.ceil(margin / DX))
    grid = _jump_grid(i0, int(np.ceil((t_final + margin) / DX)))
    exact = step_function_average(grid, t_final, setup.delta, 0.0)
    centers = grid.centers()
    sel = np.abs(centers - t_final) < 0.04

    labels, rows = [], []
    for scheme in setup.schemes:
        op = SemiDiscreteOp1D(ADVECTION, scheme, (OUTFLOW, OUTFLOW))
        u = integrate_to(step_function_average(grid, 0.0, setup.delta, 0.0), op, t_final,
                         TimeControl("dt_scale", setup.nu))
        labels.append(scheme.label)
        rows.append(u.interior[0][sel])
    labels.append("exact")
    rows.append(exact.interior[0][sel])
    return Table(f"solutions at T={t_final:g}", centers[sel], labels, np.array(rows))
