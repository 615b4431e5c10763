"""Independent solution checker.

Recomputes every row activity and bound from the model data alone — no
solver state is consulted — so a passing report certifies the solution
rather than the solver. Branch and bound runs every incumbent through
here before accepting it.
"""

from dataclasses import dataclass, field

import numpy as np

from ..core import FEAS_TOL, INT_TOL
from ..model import CONT, EQ, GE, LE


@dataclass
class VerifyReport:
    """Outcome of an independent feasibility check.

    ok is the single verdict; the lists name the violations that produced
    it (row name with signed residual, column name with offending value).
    """

    ok: bool
    max_residual: float
    bad_rows: list = field(default_factory=list)
    bad_bounds: list = field(default_factory=list)
    bad_integrality: list = field(default_factory=list)


def check_solution(model, x) -> VerifyReport:
    """Check x against all rows, bounds and integrality marks of model.

    Row residuals, relative to max(1, |rhs|), and bound violations,
    relative to 1 + |bound|, may reach FEAS_TOL. Integer and binary columns
    must sit within INT_TOL of an integer (binaries additionally inside
    [0, 1] via their bounds). A value that is not finite fails its bounds,
    and a NaN residual fails its row.
    """
    x = np.asarray(x, dtype=float)
    act = model.a_matrix @ x
    rhs = model.rhs
    scale = np.maximum(1.0, np.abs(rhs))
    over = (act - rhs) / scale
    under = (rhs - act) / scale

    resid = np.zeros(model.n_rows)
    le = model.row_sense == LE
    ge = model.row_sense == GE
    eq = model.row_sense == EQ
    resid[le] = np.maximum(over[le], 0.0)
    resid[ge] = np.maximum(under[ge], 0.0)
    resid[eq] = np.abs(over[eq])

    # written as "not within tolerance", so a NaN residual fails too
    bad_rows = [(model.row_names[i], float(act[i] - rhs[i]))
                for i in np.flatnonzero(~(resid <= FEAS_TOL))]

    lo_gap = (model.col_lb - x) / (1.0 + np.abs(np.where(
        np.isfinite(model.col_lb), model.col_lb, 0.0)))
    up_gap = (x - model.col_ub) / (1.0 + np.abs(np.where(
        np.isfinite(model.col_ub), model.col_ub, 0.0)))
    lo_gap[~np.isfinite(model.col_lb)] = -np.inf
    up_gap[~np.isfinite(model.col_ub)] = -np.inf
    # a value that is not finite is outside every bound
    bound_viol = np.where(np.isfinite(x), np.maximum(lo_gap, up_gap), np.inf)
    bad_bounds = [(model.col_names[j], float(x[j]))
                  for j in np.flatnonzero(~(bound_viol <= FEAS_TOL))]

    with np.errstate(invalid="ignore"):  # an infinite x gives a NaN frac
        frac = np.abs(x - np.rint(x))
    is_int = model.col_kind != CONT
    bad_int = [(model.col_names[j], float(x[j]))
               for j in np.flatnonzero(is_int & ~(frac <= INT_TOL))]

    max_resid = float(max(resid.max(initial=0.0),
                          bound_viol.max(initial=0.0)))
    ok = not (bad_rows or bad_bounds or bad_int)
    return VerifyReport(ok=ok, max_residual=max_resid, bad_rows=bad_rows,
                        bad_bounds=bad_bounds, bad_integrality=bad_int)
