"""Golden-table checks: recompute each stored table and diff per cell.

Fixtures live under ``fvweno/golden`` as CSV with ``#`` header lines.  Two
kinds exist: ``dissect`` tables (single-step Riemann comparisons, checked
to ``max(1e-6*|ref|, 1e-15)`` per cell — the reference values embed the
source's own double-precision round-off) and ``accuracy`` tables
(convergence errors at a relative tolerance with orders at an absolute
one, both recorded in the fixture header).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..dissect import (
    RiemannSetup,
    analyze_step,
    classic_schemes,
    final_time_comparison,
    final_time_schemes,
    render_table,
    zl_schemes,
)
from ..errors import ConfigurationError
from ..weno import WeightScheme
from .runs import convergence_study

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "golden"

DISSECT_ABS_FLOOR = 1e-15
DISSECT_REL = 1e-6


@dataclass
class Fixture:
    table_id: str
    kind: str
    rel: float
    order_abs: float
    columns: list
    rows: dict          # label -> list of values (None for blanks)
    quanta: dict        # label -> print_quantum of each value (0 for blanks)


@dataclass
class GoldenEntry:
    row: str
    col: float
    ref: float
    got: float
    tol: float
    ok: bool


@dataclass
class GoldenReport:
    table_id: str
    entries: list = field(default_factory=list)

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    @property
    def failures(self):
        return [e for e in self.entries if not e.ok]

    def diff_text(self):
        lines = [f"{self.table_id}: {len(self.entries)} cells, "
                 f"{len(self.failures)} outside tolerance"]
        for e in self.failures:
            lines.append(
                f"  {e.row} @ {e.col:g}: got {e.got:.8g}, ref {e.ref:.8g}, "
                f"|diff| {abs(e.got - e.ref):.3g} > tol {e.tol:.3g}"
            )
        return "\n".join(lines)


def available_tables():
    return sorted(p.stem for p in FIXTURE_DIR.glob("*.csv"))


def print_quantum(token):
    """Half-unit in the last printed digit of a rounded decimal token.

    Returns 0 for tokens carrying fewer than three significant digits
    (exact short values like 0.1 or 1 are not rounded table entries, and
    loosening them would blunt the check).
    """
    token = token.strip().lower()
    m = re.fullmatch(r"-?(\d*)\.?(\d*)(?:e([+-]?\d+))?", token)
    if not m:
        return 0.0
    digits = (m.group(1) + m.group(2)).lstrip("0")
    if len(digits) < 3:
        return 0.0
    decimals = len(m.group(2))
    expo = int(m.group(3) or 0)
    return 0.5 * 10.0 ** (expo - decimals)


def load_fixture(table_id) -> Fixture:
    import csv

    path = FIXTURE_DIR / f"{table_id}.csv"
    if not path.exists():
        raise ConfigurationError(f"no golden fixture named {table_id!r}")
    kind = None
    rel = 0.02
    order_abs = 0.05
    columns = None
    rows = {}
    quanta = {}
    data_lines = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("kind:"):
                kind = body.split(":", 1)[1].strip()
            elif body.startswith("note:"):
                note = body.split(":", 1)[1].strip()
                m = re.match(r"rel:\s*([0-9.e-]+)", note)
                if m:
                    rel = float(m.group(1))
                m = re.match(r"order-abs:\s*([0-9.e-]+)", note)
                if m:
                    order_abs = float(m.group(1))
            continue
        data_lines.append(line)
    for cells in csv.reader(data_lines):
        if columns is None:
            # a cell count stays an int, for the builders to pass as given
            columns = [int(c) if c.isdigit() else float(c) for c in cells[1:]]
            continue
        rows[cells[0]] = [float(c) if c != "" else None for c in cells[1:]]
        quanta[cells[0]] = [print_quantum(c) if c != "" else 0.0 for c in cells[1:]]
    if kind is None or columns is None or not rows:
        raise ConfigurationError(f"golden fixture {table_id!r} is empty or malformed")
    return Fixture(table_id, kind, rel, order_abs, columns, rows, quanta)


# --- builders ----------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _stage_reports(variant):
    schemes = zl_schemes() if variant == "zl" else classic_schemes()
    return analyze_step(RiemannSetup(schemes=schemes))


@functools.lru_cache(maxsize=None)
def _final_table(variant):
    schemes = zl_schemes() if variant == "zl" else final_time_schemes()
    return final_time_comparison(RiemannSetup(schemes=schemes))


def _table_lookup(table):
    out = {}
    for label, row in zip(table.row_labels, table.values):
        for c, v in zip(table.columns, row):
            out[(label, round(float(c), 9))] = float(v)
    return out


_ACCURACY_SCHEMES = {s.label: s for s in (
    WeightScheme.js(), WeightScheme.m(), WeightScheme.z(), WeightScheme.zr(p=2),
    WeightScheme.zl(p=2, q=2), WeightScheme.zl(p=5, q=1))}


def _build_dissect(table_id, fixture):
    variant = "zl" if table_id.startswith("zl-") else "classic"
    rest = table_id[3:] if variant == "zl" else table_id
    if rest in ("final", "final-t1"):
        table = _final_table(variant)
    else:
        m = re.fullmatch(r"(weights|fluxes|solutions)-stage([123])", rest)
        if not m:
            raise ConfigurationError(f"no builder for golden table {table_id!r}")
        reports = _stage_reports(variant)
        table = render_table(reports[int(m.group(2)) - 1], m.group(1))
    return _table_lookup(table)


def _build_accuracy(table_id, fixture):
    two_d = table_id.startswith("accuracy-2d")
    problem = "advection2d-accuracy" if two_d else "advection1d-accuracy"
    norm = table_id.rsplit("-", 1)[1]
    sizes = fixture.columns
    out = {}
    for label in {label.split("/", 1)[0] for label in fixture.rows}:
        scheme = _ACCURACY_SCHEMES.get(label)
        if scheme is None:
            raise ConfigurationError(f"unknown scheme label {label!r} in {table_id}")
        report = convergence_study(problem, scheme, sizes)
        errs, orders = report.errors(norm), report.orders(norm)
        for n in sizes:
            out[(f"{label}/error", float(n))] = errs[n]
            out[(f"{label}/order", float(n))] = orders[n]
    return out


def golden_check(table_id) -> GoldenReport:
    """Recompute one golden table and diff it cell by cell."""
    fixture = load_fixture(table_id)
    if fixture.kind == "dissect":
        computed = _build_dissect(table_id, fixture)
    elif fixture.kind == "accuracy":
        computed = _build_accuracy(table_id, fixture)
    else:
        raise ConfigurationError(f"unknown golden kind {fixture.kind!r}")

    report = GoldenReport(table_id)
    for label, values in fixture.rows.items():
        for k, (col, ref) in enumerate(zip(fixture.columns, values)):
            if ref is None:
                continue
            key = (label, round(float(col), 9))
            if key not in computed:
                raise ConfigurationError(
                    f"{table_id}: no computed value for row {label!r} at {col:g}"
                )
            got = computed[key]
            if fixture.kind == "dissect":
                # the reference carries at most six printed digits; allow
                # half a unit in its last digit on top of the stated rule
                tol = max(DISSECT_REL * abs(ref), DISSECT_ABS_FLOOR,
                          fixture.quanta[label][k])
            elif label.endswith("/order"):
                tol = fixture.order_abs
            else:
                tol = fixture.rel * abs(ref)
            ok = bool(np.isfinite(got) and abs(got - ref) <= tol)
            report.entries.append(GoldenEntry(label, float(col), float(ref),
                                              float(got), tol, ok))
    return report
