"""Error norms and observed convergence orders for cell-average fields."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..mesh import CellField


def norms(numeric: CellField, exact: CellField):
    """(L1, L2, Linf) of the cell-average error of component 0 (the density
    of an Euler field) on a shared grid.

    L1 = mean |e|, L2 = sqrt(mean e^2), Linf = max |e| over the interior;
    2D fields average over nx*ny.
    """
    if numeric.grid != exact.grid:
        raise ConfigurationError("fields live on different grids")
    e = numeric.interior[0] - exact.interior[0]
    ae = np.abs(e)
    return float(ae.mean()), float(np.sqrt((e * e).mean())), float(ae.max())


def convergence_order(coarse_err, fine_err):
    """log2(coarse/fine) for one refinement by a factor of two."""
    if not (coarse_err > 0.0 and fine_err > 0.0):
        raise ConfigurationError("orders are defined only for positive errors")
    return float(np.log2(coarse_err / fine_err))


@dataclass
class ErrorReport:
    """Per-resolution error rows with orders attached to the finer row."""

    rows: list = field(default_factory=list)  # (N, L1, o1, L2, o2, Linf, oinf)

    def add(self, n, l1, l2, linf):
        if self.rows:
            _, p1, _, p2, _, pinf, _ = self.rows[-1]
            o1 = convergence_order(p1, l1) if p1 > 0 and l1 > 0 else np.nan
            o2 = convergence_order(p2, l2) if p2 > 0 and l2 > 0 else np.nan
            oi = convergence_order(pinf, linf) if pinf > 0 and linf > 0 else np.nan
        else:
            o1 = o2 = oi = np.nan
        self.rows.append((n, l1, o1, l2, o2, linf, oi))

    def errors(self, norm):
        col = {"l1": 1, "l2": 3, "linf": 5}[norm]
        return {row[0]: row[col] for row in self.rows}

    def orders(self, norm):
        col = {"l1": 2, "l2": 4, "linf": 6}[norm]
        return {row[0]: row[col] for row in self.rows}

    def to_csv(self):
        def order(v):
            return "" if not np.isfinite(v) else f"{v:.4f}"

        lines = ["N,L1,order1,L2,order2,Linf,orderInf"]
        for n, l1, o1, l2, o2, li, oi in self.rows:
            lines.append(
                f"{n},{l1:.6e},{order(o1)},{l2:.6e},{order(o2)},"
                f"{li:.6e},{order(oi)}"
            )
        return "\n".join(lines) + "\n"
