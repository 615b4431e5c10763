"""Bounded-variable revised primal simplex.

Rows are brought to equality form with one slack per row; the basis inverse
is held as a sparse LU factorization plus a product-form eta file,
refactorized every 50 basis changes. The eta file is applied as one block
per ftran or btran (one matrix-vector product and a small triangular
solve, see ``_kernels``), not eta by eta. Phase 1 runs the composite
method: infeasibility costs recomputed from the current basic state each
iteration, so no auxiliary variables are added. Pricing is Dantzig with
lowest-index tie-breaks, switching to Bland's rule after 1000 degenerate
pivots in a row. Entering steps handle bound flips; the ratio test keeps
feasible basics inside their bounds and walks infeasible ones back.
Tolerances: 1e-7 on bound violations (relative to 1 + |bound|) and on
reduced costs, 1e-9 on pivot elements and degenerate steps.

A solve starts from the slack basis, or warm from the final ``(basis,
stat)`` of a solve of the same rows: each nonbasic column is re-seated on
the bound it sat at, and basics that tightened bounds leave out of bounds
are walked back by the composite phase 1, so changed bounds or costs need
no dual simplex. Deterministic: identical inputs, warm start included, give
identical pivot sequences.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from ..errors import InvalidParameterError, SolverError
from ..model import EQ, GE, LE
from . import _kernels as ker

NB_LO, NB_UP, BASIC, NB_FIXED, NB_FREE = 0, 1, 2, 3, 4

_FEAS_TOL = 1e-7
_OPT_TOL = 1e-7
_PIVOT_TOL = 1e-9
_DEGEN_TOL = 1e-9
_REFACTOR_EVERY = 50
_BLAND_AFTER = 1000


@dataclass
class LpSolution:
    """Result of one LP solve.

    status is one of optimal, infeasible, unbounded, iteration_limit. x holds
    the structural columns only; duals one multiplier per row.
    infeasible_rows lists rows whose slack stayed out of bounds when phase 1
    stalled (the irreducible-cause hint).

    basis holds the column id (structurals first, then one slack per row)
    basic in each row position when the solve ended, and stat the status
    code of every column (NB_LO, NB_UP, BASIC, NB_FIXED, NB_FREE). Passed
    back as ``warm=(basis, stat)`` they restart a related solve from here;
    both are None when the bounds crossed before any basis was formed.

    The counters split the cost: phase1_pivots of the iterations ran while
    some basic was out of bounds, degenerate_pivots stepped by at most 1e-9,
    bland_pivots chose the entering column by Bland's rule, and refactors
    counts LU factorizations of the basis, the first one included.
    """

    status: str
    objective: float
    x: np.ndarray
    duals: np.ndarray
    iterations: int
    max_violation: float = 0.0
    infeasible_rows: list = field(default_factory=list)
    basis: np.ndarray = None
    stat: np.ndarray = None
    phase1_pivots: int = 0
    refactors: int = 0
    degenerate_pivots: int = 0
    bland_pivots: int = 0


def _slack_bounds(senses):
    m = senses.shape[0]
    lo = np.zeros(m)
    hi = np.zeros(m)
    hi[senses == LE] = np.inf
    lo[senses == GE] = -np.inf
    return lo, hi


def solve_lp(model, col_lb=None, col_ub=None, warm=None) -> LpSolution:
    """Solve the LP relaxation of a MilpModel.

    Integrality marks are ignored. col_lb/col_ub override the structural
    bounds (used for branching). Columns fixed by equal bounds never price
    in, which removes them from the search exactly as a presolve would.
    warm is the (basis, stat) of an earlier solve of the same rows and
    columns, under any bounds and costs; None starts from the slack basis.
    The arrays are read, never written, so several solves may share them.
    After 20000 + 10 (rows + columns) pivots the solve stops with status
    iteration_limit.
    """
    m = model.n_rows
    n_struct = model.n_cols
    n_tot = n_struct + m
    max_iters = 20000 + 10 * (m + n_struct)
    if warm is not None and (len(warm[0]) != m or len(warm[1]) != n_tot):
        raise InvalidParameterError(
            f"warm start has {len(warm[0])} basics and {len(warm[1])} "
            f"columns; the model needs {m} and {n_tot}")

    a_full = sparse.hstack(
        [model.a_matrix.tocsc(),
         sparse.identity(m, format="csc", dtype=float)], format="csc")
    at_full = a_full.T.tocsr()
    c = np.concatenate([model.obj, np.zeros(m)])
    s_lo, s_hi = _slack_bounds(model.row_sense)
    lb = np.concatenate([model.col_lb if col_lb is None else col_lb, s_lo])
    ub = np.concatenate([model.col_ub if col_ub is None else col_ub, s_hi])
    if np.any(lb[:n_struct] > ub[:n_struct] + 1e-12):
        return LpSolution(status="infeasible", objective=np.inf,
                          x=np.zeros(n_struct), duals=np.zeros(m), iterations=0,
                          max_violation=np.inf)
    b = model.rhs.astype(float)

    # nonbasics sit on a finite bound (or at 0 if free): the upper one when
    # the warm start left them there and it is finite, else the lower one
    # when finite; equal bounds make them fixed
    if warm is None:
        basis = n_struct + np.arange(m, dtype=np.int64)
        kept_up = False
    else:
        basis = np.array(warm[0], dtype=np.int64)
        kept_up = warm[1] == NB_UP
    stat = np.full(n_tot, NB_FREE, dtype=np.int8)
    x = np.zeros(n_tot)
    lo_fin = np.isfinite(lb)
    up_fin = np.isfinite(ub)
    stat[up_fin] = NB_UP
    x[up_fin] = ub[up_fin]
    at_lo = lo_fin & ~(up_fin & kept_up)
    stat[at_lo] = NB_LO
    x[at_lo] = lb[at_lo]
    stat[lb == ub] = NB_FIXED
    stat[basis] = BASIC
    x[basis] = 0.0

    xb = np.zeros(m)
    lb_b = lb[basis].copy()
    ub_b = ub[basis].copy()
    etas = np.empty((_REFACTOR_EVERY, m))
    tri = np.empty((_REFACTOR_EVERY, _REFACTOR_EVERY))
    eta_piv = np.zeros(_REFACTOR_EVERY, dtype=np.int64)
    n_eta = 0
    lu = None

    def refactor():
        nonlocal lu, n_eta, refactors
        refactors += 1
        try:
            lu = splu(a_full[:, basis].tocsc())
        except RuntimeError as exc:
            bad = int(basis.min())
            raise SolverError(f"singular basis factorization ({exc}); "
                              f"first basic column {bad}") from exc
        n_eta = 0
        x[basis] = 0.0
        resid = b - a_full @ x
        xb[:] = lu.solve(resid)
        x[basis] = xb

    def ftran(v):
        out = lu.solve(v)
        ker.ftran_etas(etas, tri, eta_piv, n_eta, out)
        return out

    def btran(v):
        out = v.copy()
        ker.btran_etas(etas, tri, eta_piv, n_eta, out)
        return lu.solve(out, trans="T")

    def result(status, duals, max_viol, **extra):
        x[basis] = xb
        extra.setdefault("objective", float(c @ x))
        return LpSolution(status=status, x=x[:n_struct].copy(),
                          duals=np.asarray(duals), iterations=iters,
                          max_violation=max_viol, basis=basis, stat=stat,
                          phase1_pivots=phase1_pivots, refactors=refactors,
                          degenerate_pivots=degenerate_pivots,
                          bland_pivots=bland_pivots, **extra)

    refactors = 0
    refactor()
    iters = phase1_pivots = degenerate_pivots = bland_pivots = 0
    degen_streak = 0
    bland = False
    cleaned = False

    while True:
        if n_eta >= _REFACTOR_EVERY:
            refactor()
        gamma, max_viol = ker.basic_state(xb, lb_b, ub_b, _FEAS_TOL)
        phase1 = max_viol > _FEAS_TOL

        if phase1:
            y = btran(gamma.astype(float))
            d = -(at_full @ y)
        else:
            y = btran(c[basis])
            d = c - at_full @ y

        score = np.where(stat == NB_LO, d,
                         np.where(stat == NB_UP, -d,
                                  np.where(stat == NB_FREE, -np.abs(d),
                                           np.inf)))
        cand = score < -_OPT_TOL
        if not cand.any():
            # claim needs a clean factorization behind it
            if n_eta > 0 and not cleaned:
                refactor()
                cleaned = True
                continue
            if phase1:
                bad_rows = sorted({int(basis[p]) - n_struct
                                   for p in np.flatnonzero(gamma != 0)
                                   if basis[p] >= n_struct})
                return result("infeasible", y, max_viol,
                              infeasible_rows=bad_rows)
            return result("optimal", y, max_viol)
        cleaned = False

        if bland:
            q = int(np.flatnonzero(cand)[0])
        else:
            q = int(np.argmin(score))
        if iters >= max_iters:
            return result("iteration_limit", np.zeros(m), max_viol)

        col = np.zeros(m)
        st, en = a_full.indptr[q], a_full.indptr[q + 1]
        col[a_full.indices[st:en]] = a_full.data[st:en]
        w = ftran(col)
        if stat[q] == NB_FREE:
            sigma = 1.0 if d[q] < 0.0 else -1.0
        else:
            sigma = 1.0 if stat[q] == NB_LO else -1.0
        gap = ub[q] - lb[q]
        prio = basis.astype(np.float64) if bland else -np.abs(w)
        t, pos, bcode = ker.ratio_test(w, xb, lb_b, ub_b, gamma, sigma,
                                       gap, _PIVOT_TOL, prio)
        if pos == ker.POS_UNBOUNDED:
            if phase1:
                raise SolverError("unblocked ray while infeasible "
                                  "(numerical breakdown)")
            return result("unbounded", np.zeros(m), max_viol,
                          objective=-np.inf)

        phase1_pivots += phase1
        bland_pivots += bland
        if t <= _DEGEN_TOL:
            degenerate_pivots += 1
            degen_streak += 1
            if degen_streak >= _BLAND_AFTER:
                bland = True
        else:
            degen_streak = 0
            bland = False

        xb -= (sigma * t) * w
        if pos == ker.POS_FLIP:
            x[q] = ub[q] if stat[q] == NB_LO else lb[q]
            stat[q] = NB_UP if stat[q] == NB_LO else NB_LO
        else:
            xq_new = x[q] + sigma * t
            leave = int(basis[pos])
            x[leave] = lb[leave] if bcode == 0 else ub[leave]
            stat[leave] = (NB_FIXED if lb[leave] == ub[leave]
                           else (NB_LO if bcode == 0 else NB_UP))
            basis[pos] = q
            stat[q] = BASIC
            x[q] = xq_new
            xb[pos] = xq_new
            lb_b[pos] = lb[q]
            ub_b[pos] = ub[q]
            ker.push_eta(etas, tri, eta_piv, n_eta, w, pos)
            n_eta += 1
        iters += 1
