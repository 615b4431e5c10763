"""Bounded-variable revised simplex: primal, with a dual phase for warm
starts.

Rows are brought to equality form with one slack per row; the basis inverse
is held as a sparse LU factorization plus a product-form eta file,
refactorized every 50 basis changes. Phase 1 runs the composite method:
the cost of each basic is its bound-violation code (-1 below its lower
bound, 1 above its upper one, 0 within), so no auxiliary variables are
added. Pricing is static steepest edge (Goldfarb & Reid 1977; Forrest &
Goldfarb 1992) with the norms of the slack basis, where column j's edge
B^-1 a_j is a_j itself: each column is weighted by
1 / sqrt(1 + |a_j|^2), each slack by 1 / sqrt(2), once per solve. Among
the columns whose unweighted reduced cost prices them in, the one with the
most negative weighted reduced cost enters, lowest index on ties; the
weights only rank, so every claim still reads the unweighted reduced
costs. Both phases price this way, switching to Bland's rule after 1000
degenerate pivots in a row. Entering steps handle bound flips; the ratio
test keeps feasible basics inside their bounds and walks infeasible ones
back. Tolerances: 1e-7 on bound violations (relative to 1 + |bound|) and
on reduced costs, 1e-9 on pivot elements and degenerate steps.

Only the structural block of the basis is factored: every basic slack is
a unit column, so it is solved by substitution instead (slacks taken out
before the LU, as in Suhl & Suhl 1990 and Bixby 1992). With P_S the
positions holding a structural basic, P_L those holding a slack, R2 the
rows of those slacks and R1 the other rows, the basis is block-triangular,
[[B_K, 0], [B_21, I]], with the k x k kernel B_K = A[R1, basis[P_S]] and
B_21 = A[R2, basis[P_S]]. ftran solves B_K w[P_S] = v[R1] and sets
w[P_L] = v[R2] - B_21 w[P_S]; btran sets y[R2] = u[P_L] and solves
B_K^T y[R1] = u[P_S] - B_21^T u[P_L], skipping the product when u[P_L] is
zero (every phase-2 btran of the costs, since slacks cost nothing). The
basis is singular exactly when B_K is, and an all-slack basis (k = 0) is
a permutation with nothing to factor. B_K is factored by
SuperLU (COLAMD ordering, partial pivoting) with relaxed supernodes and
panels both set to one column, which factors and solves these very sparse
blocks fastest. The eta file is applied as one block per ftran or btran
(one matrix-vector product and a small triangular solve, see
``_kernels``), not eta by eta.

A pivot touches only the rows where the entering column w = B^-1 a_q is
nonzero: a median of about ten of the 3951 rows of the bundled plan. The
basic values and their bound-violation codes are updated on those rows
alone. Each value lives once, in x, and each bound once, per column: the
basics' values and bounds are read through the basis (x[basis[rows]]), and
only the codes are kept per position. A code is two comparisons with the
basic's bounds shifted out by the tolerance (the codes are recomputed in
full at each factorization, by the same formula, so the two agree bit for
bit).
The ratio test runs on the rows with |w| above the pivot tolerance, the
only ones that can block; they keep their index order, so every tie
breaks as over all rows. Pricing multiplies the reduced costs by a sign
vector (+1 at a lower bound, -1 at an upper one, 0 for basics and fixed
columns) and by that vector times the steepest-edge weights, both kept up
to date at each pivot: every column has a finite bound to sit on, as
solve_lp refuses a structural column with neither. The weighted product
is one pass over the columns; its minimum is almost always eligible, and
only when it is not is eligibility masked (``_kernels.entering``).

The reduced costs d are carried across primal pivots rather than priced
afresh (Maros 2003, Computational Techniques of the Simplex Method, ch.
9). After q enters in row r, rho = B^-T e_r of the new basis (a btran of
a unit row, which reads one column of the eta file) gives the pivot row
alpha = [A^T rho; rho], and d -= d_q alpha; q's entry becomes 0 and the
leaving column's -d_q / w_r - c_p, where c_p is the leaving column's
phase-1 cost, its violation code before the pivot (0 in phase 2). The
entering column lands within its bounds, so its phase-1 cost is 0. A
bound flip leaves d as it is. A full btran of the basic costs and a
product with A^T (a full price) runs instead after each factorization,
on a change of phase, after a phase-1 step that moved the violation code
of a basic outside row r (the phase-1 costs changed beyond that row), and
before every optimality or infeasibility claim, so the duals returned
come from a fresh btran on a clean factor.

A cold solve starts from the point the model names: its ``start_basis``,
one column per row, and its ``start_upper``, the nonbasic columns seated
on their upper bound (all slacks and no column, unless the model names
them). assemble_model names structurals for the rows a column defines
(grid import in the electric balances, one fuel cell's fuel in the heat
balances and its count in one capacity row, storage and vehicle energies
in their chain rows, a vehicle's charge in its departure row) and seats
the charges and PV it plans on their upper bound. A warm solve starts from
the final ``(basis, stat)`` of a solve of the same rows: each nonbasic
column is re-seated on the bound it sat at. Both take the one path: the
basis's kernel is factored like any other, every nonbasic not seated up
sits on its lower bound when that is finite, else on its upper one, and
the simplex runs from there. New costs (a sweep level) leave a warm basis
primal feasible, and the primal simplex carries on from it. Tightened
bounds (a branch-and-bound child) leave some basics out of bounds while
the reduced costs keep their signs: when every nonbasic is then dual
feasible (dirn * d >= -1e-7), a dual simplex phase (Lemke 1954; textbook
ratio test, no bound flipping) reoptimizes first. It shares the factor,
the eta file and the pivot bookkeeping with the primal. Its leaving row is
the largest bound violation, lowest row on ties; its entering column the
smallest ratio max(dirn * d, 0) / |alpha| over the pivot row alpha, ties
to the largest |alpha|, then the lowest index. It hands the basis to the
primal once the basics are within bounds, on a dual ray, after 1000
dual-degenerate pivots in a row, or if the pivot element fails to match
its row entry.

The dual phase's objective only rises, so given a cutoff (branch and
bound's incumbent less its gap) it can stop early: the objective cutoff
of the dual simplex (Koberstein 2005, PhD thesis, Paderborn). Before each
dual pivot the objective c.x of the current basic solution is compared
with the cutoff. Once it reaches it, one fresh btran of the basic costs,
into new arrays (no refactorization; the carried d and x stay as
they are), gives row prices y, which take the sign that each slack's
infinite bound asks for, and the rigorous bound b.y + sum over the
nonbasics of min(d_j lb_j, d_j ub_j) (Neumaier & Shcherbina 2004, Math.
Prog. 99); there is no bound when a reduced cost of the wrong sign meets
an infinite bound. A bound at or above the cutoff ends the solve with
status cutoff; a bound below it lets the dual phase go on, and the next
check waits for the next refactorization. Otherwise only the primal
claims a status, so an infeasibility claim and its infeasible rows always
come from phase 1. A row counts as infeasible there when a basic out of
bounds is its slack or the column its start basis names in it.
Deterministic: identical inputs, warm start included, give identical
pivot sequences.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from ..errors import InvalidParameterError, SolverError
from ..model import EQ, GE, LE
from . import _kernels as ker

NB_LO, NB_UP, BASIC, NB_FIXED = 0, 1, 2, 3
_SIGN = np.array([1.0, -1.0, 0.0, 0.0])  # the pricing sign of each code

_FEAS_TOL = 1e-7
_OPT_TOL = 1e-7
_PIVOT_TOL = 1e-9
_DEGEN_TOL = 1e-9
_REFACTOR_EVERY = 50
_BLAND_AFTER = 1000
# SuperLU supernode settings (see the module docstring)
_SPLU_RELAX = 1
_SPLU_PANEL_SIZE = 1


@dataclass
class LpSolution:
    """Result of one LP solve.

    status is one of optimal, infeasible, unbounded, iteration_limit,
    cutoff. x holds the structural columns only; duals one multiplier per
    row. cutoff means the dual phase of a warm start proved the optimum
    at least the cutoff passed to solve_lp: objective is then that proven
    bound, duals the row prices that prove it, and x the basic solution the
    dual phase stopped at, which is not a solution (some basics are out of
    bounds).
    infeasible_rows lists, in ascending order, the rows whose slack or
    start column (the model's start_basis) stayed basic and out of bounds
    when phase 1 stalled (the irreducible-cause hint).

    basis holds the column id (structurals first, then one slack per row)
    basic in each row position when the solve ended, and stat the status
    code of every column (NB_LO, NB_UP, BASIC, NB_FIXED). Passed
    back as ``warm=(basis, stat)`` they restart a related solve from here;
    both are None when the bounds crossed before any basis was formed.

    The counters split the cost: dual_pivots of the iterations ran in the
    dual phase of a warm start, phase1_pivots in the primal while some
    basic was out of bounds, degenerate_pivots stepped by at most 1e-9 (the
    dual step for a dual pivot), bland_pivots chose the entering column by
    Bland's rule, and refactors counts the LU factorizations of the basis's
    structural block, the first one included (a cold start factors the
    kernel of the model's start basis). A refactorization of an all-slack
    basis factors nothing and is not counted. kernel_cols sums the order k
    of the factored blocks, so kernel_cols / refactors is their mean size.
    priced counts the full pricing passes, each a btran of the basic costs
    and a product with A^T (the dual phase's and each cutoff check's
    included); every other primal pivot took its reduced costs from the row
    update of the pivot before.
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
    dual_pivots: int = 0
    kernel_cols: int = 0
    priced: int = 0


def _slack_bounds(senses):
    m = senses.shape[0]
    lo = np.zeros(m)
    hi = np.zeros(m)
    hi[senses == LE] = np.inf
    lo[senses == GE] = -np.inf
    return lo, hi


class _BlockBasis:
    """A basis split into its structural block and its basic slacks.

    basis holds the column in each row position (structurals first, then
    one slack per row, so column n_struct + i is row i's unit column). k
    is the number of structural basics, struct_cols those columns.
    row_perm lists the rows R1 then R2 (the basic slacks' rows, in position
    order), pos_perm the positions P_S then P_L, so that past index k a
    basic slack's row and position sit at the same index; row_at and
    pos_at are their inverses. The basic structural columns are sliced out
    of A (CSC) and their row indices renumbered along row_perm; slicing
    rows before k gives the kernel b_k = A[R1, struct_cols], for the
    caller to factor into lu, and the rows from k on b21 = A[R2,
    struct_cols], both in CSC, with b21t the transpose of b21 (a CSR
    view). A slack basic in two positions makes the basis singular.
    """

    def __init__(self, a_s, basis, n_struct):
        m = basis.shape[0]
        struct = basis < n_struct
        p_l = np.flatnonzero(~struct)
        r2 = basis[p_l] - n_struct
        in_r1 = np.ones(m, dtype=bool)
        in_r1[r2] = False
        self.k = k = m - p_l.size
        if np.count_nonzero(in_r1) != k:
            raise SolverError("singular basis: a slack column is basic in "
                              "two positions")
        self.row_perm = np.concatenate([np.flatnonzero(in_r1), r2])
        self.pos_perm = np.concatenate([np.flatnonzero(struct), p_l])
        self.row_at = np.empty(m, dtype=np.intp)
        self.row_at[self.row_perm] = np.arange(m)
        self.pos_at = np.empty(m, dtype=np.intp)
        self.pos_at[self.pos_perm] = np.arange(m)
        self.struct_cols = cols = basis[self.pos_perm[:k]]
        self.lu = self.b_k = self.b21 = self.b21t = None
        if k == 0:
            return
        # the basic structural columns, rows renumbered along row_perm:
        # rows before k form B_K, the rest B_21
        a_b = a_s[:, cols]
        a_b.indices[:] = self.row_at[a_b.indices]
        self.b_k = a_b[:k]
        self.b21 = a_b[k:]
        self.b21t = self.b21.T

    def solve(self, v):
        """B^-1 v: B_K w[P_S] = v[R1], then w[P_L] = v[R2] - B_21 w[P_S]."""
        k = self.k
        vp = v[self.row_perm]
        if k:
            w_s = self.lu.solve(vp[:k])
            vp[k:] -= ker.spmv(self.b21, w_s)
            vp[:k] = w_s
        return vp[self.pos_at]

    def solve_t(self, u):
        """B^-T u: y[R2] = u[P_L], then B_K^T y[R1] = u[P_S] - B_21^T u[P_L];
        the product is skipped when u[P_L] is zero."""
        k = self.k
        up = u[self.pos_perm]
        if k:
            u_l = up[k:]
            if np.count_nonzero(u_l):
                up[:k] -= ker.spmv(self.b21t, u_l)
            up[:k] = self.lu.solve(up[:k], trans="T")
        return up[self.row_at]


def solve_lp(model, col_lb=None, col_ub=None, warm=None,
             cutoff=np.inf) -> LpSolution:
    """Solve the LP relaxation of a MilpModel.

    Integrality marks are ignored. col_lb/col_ub override the structural
    bounds (used for branching). Columns fixed by equal bounds never price
    in, which removes them from the search exactly as a presolve would.
    warm is the (basis, stat) of an earlier solve of the same rows and
    columns, under any bounds and costs; None starts from the model's
    start_basis and start_upper.
    The arrays are read, never written, so several solves may share them.
    cutoff lets the dual phase of a warm start stop with status cutoff once
    it proves the optimum is at least cutoff (see the module docstring);
    the default never stops. After 20000 + 10 (rows + columns) pivots the
    solve stops with status iteration_limit. A column with no finite
    bound is refused with an InvalidParameterError naming it.
    """
    m = model.n_rows
    n_struct = model.n_cols
    n_tot = n_struct + m
    max_iters = 20000 + 10 * (m + n_struct)
    if warm is not None and (len(warm[0]) != m or len(warm[1]) != n_tot):
        raise InvalidParameterError(
            f"warm start has {len(warm[0])} basics and {len(warm[1])} "
            f"columns; the model needs {m} and {n_tot}")

    a_s = model.a_matrix.tocsc()
    # reduced costs are c_s - A^T y on the structurals and -y on the slacks
    at_s = a_s.T.tocsr()
    c = np.concatenate([model.obj, np.zeros(m)])
    s_lo, s_hi = _slack_bounds(model.row_sense)
    lb = np.concatenate([model.col_lb if col_lb is None else col_lb, s_lo])
    ub = np.concatenate([model.col_ub if col_ub is None else col_ub, s_hi])
    lo_fin, up_fin = np.isfinite(lb), np.isfinite(ub)
    unbounded = np.flatnonzero(~(lo_fin | up_fin))
    if unbounded.size:
        raise InvalidParameterError(
            f"column {model.col_names[unbounded[0]]} has no finite bound")
    if np.any(lb[:n_struct] > ub[:n_struct] + 1e-12):
        return LpSolution(status="infeasible", objective=np.inf,
                          x=np.zeros(n_struct), duals=np.zeros(m), iterations=0,
                          max_violation=np.inf)
    b = model.rhs.astype(float)

    # nonbasics sit on their lower bound when it is finite and the start
    # (the model's start_upper, or the warm start's final seats) does not
    # put them on their upper one, else on their upper bound; equal bounds
    # make them fixed
    if warm is None:
        basis = np.array(model.start_basis, dtype=np.int64)
        kept_up = np.concatenate([model.start_upper, np.zeros(m, bool)])
    else:
        basis = np.array(warm[0], dtype=np.int64)
        kept_up = warm[1] == NB_UP
    at_lo = lo_fin & ~(up_fin & kept_up)
    stat = np.where(at_lo, NB_LO, NB_UP).astype(np.int8)
    x = np.where(at_lo, lb, ub)
    stat[lb == ub] = NB_FIXED
    stat[basis] = BASIC
    x[basis] = 0.0
    # pricing signs: a nonbasic at its lower bound improves when d < 0, one
    # at its upper bound when d > 0; basics and fixed columns never price in.
    # wdirn weighs each sign by the column's steepest-edge weight at the
    # slack basis, 1 / sqrt(1 + |a_j|^2) (1 / sqrt(2) for a slack)
    dirn = _SIGN[stat]
    col_sq = np.concatenate([ker.spmv(at_s.power(2), np.ones(m)), np.ones(m)])
    weight = 1.0 / np.sqrt(1.0 + col_sq)
    wdirn = dirn * weight
    d = np.empty(n_tot)
    score = np.empty(n_tot)

    gamma = np.zeros(m, dtype=np.int8)
    # a basic is out of bounds exactly when it is outside these
    lo_sh, hi_sh = ker.shifted_bounds(lb, ub, _FEAS_TOL)
    etas = np.empty((_REFACTOR_EVERY, m))
    tri = np.empty((_REFACTOR_EVERY, _REFACTOR_EVERY))
    eta_piv = np.zeros(_REFACTOR_EVERY, dtype=np.int64)
    n_eta = 0
    blk = None

    def refactor():
        nonlocal blk, n_eta, refactors, kernel_cols
        blk = _BlockBasis(a_s, basis, n_struct)
        if blk.k:
            refactors += 1
            kernel_cols += blk.k
            try:
                blk.lu = splu(blk.b_k, relax=_SPLU_RELAX,
                              panel_size=_SPLU_PANEL_SIZE)
            except RuntimeError as exc:
                raise SolverError(
                    f"singular basis factorization ({exc}); first structural "
                    f"basic column {int(blk.struct_cols.min())}") from exc
        n_eta = 0
        x[basis] = 0.0
        resid = b - (ker.spmv(a_s, x[:n_struct]) + x[n_struct:])
        x[basis] = blk.solve(resid)
        gamma[:] = ker.basic_state(x[basis], lb[basis], ub[basis],
                                   _FEAS_TOL)[0]

    def update_state(rows):
        """Recompute the violation codes of the given rows by comparison
        with the shifted bounds; returns them."""
        cols = basis[rows]
        xr = x[cols]
        g = (xr > hi_sh[cols]).view(np.int8) - (xr < lo_sh[cols]).view(np.int8)
        gamma[rows] = g
        return g

    def ftran(v):
        out = blk.solve(v)
        ker.ftran_etas(etas, tri, eta_piv, n_eta, out)
        return out

    def btran(v):
        """B^-T v; v is overwritten."""
        ker.btran_etas(etas, tri, eta_piv, n_eta, v)
        return blk.solve_t(v)

    def btran_row(r):
        """B^-T e_r, the eta file applied through its column r."""
        u = np.zeros(m)
        u[r] = 1.0
        ker.btran_etas(etas, tri, eta_piv, n_eta, u, r)
        return blk.solve_t(u)

    def ftran_col(q):
        col = np.zeros(m)
        if q < n_struct:
            st, en = a_s.indptr[q], a_s.indptr[q + 1]
            col[a_s.indices[st:en]] = a_s.data[st:en]
        else:
            col[q - n_struct] = 1.0
        return ftran(col)

    def price(phase1):
        """Fill d from a fresh btran of the basic costs: the violation
        codes in phase 1, c otherwise. Returns the row prices y."""
        nonlocal priced
        priced += 1
        y = btran(gamma.astype(float) if phase1 else c[basis])
        if phase1:
            np.negative(ker.spmv(at_s, y), out=d[:n_struct])
        else:
            np.subtract(c[:n_struct], ker.spmv(at_s, y), out=d[:n_struct])
        np.negative(y, out=d[n_struct:])
        return y

    def dual_bound():
        """Row prices y from a fresh btran of the basic costs, and the
        bound b.y + sum over the nonbasics of min(d_j lb_j, d_j ub_j) on
        the optimum, -inf when a d_j of the wrong sign meets an infinite
        bound; d and x are left as they are. The bound holds for any y, so
        y is first given the sign that a slack's infinite bound asks for
        (y_i <= 0 on a <= row, >= 0 on a >= row): rounding leaves some
        1e-18 of the wrong sign there, which would forbid every claim."""
        nonlocal priced
        priced += 1
        y = btran(c[basis])
        np.minimum(y, 0.0, out=y, where=np.isinf(s_hi))
        np.maximum(y, 0.0, out=y, where=np.isinf(s_lo))
        d_f = np.concatenate([c[:n_struct] - ker.spmv(at_s, y), -y])
        nb = stat != BASIC
        d_n, lb_n, ub_n = d_f[nb], lb[nb], ub[nb]
        at_lb, at_ub = d_n > 0.0, d_n < 0.0
        lb_n, ub_n = lb_n[at_lb], ub_n[at_ub]
        if np.isinf(lb_n).any() or np.isinf(ub_n).any():
            return y, -np.inf
        return y, float(b @ y + d_n[at_lb] @ lb_n + d_n[at_ub] @ ub_n)

    def pivot(q, pos, leave_up, xq_new, w):
        """Make column q basic in position pos at value xq_new; the column
        it replaces leaves on its upper bound if leave_up, else its lower
        one. Returns the leaving column."""
        nonlocal n_eta
        leave = int(basis[pos])
        x[leave] = ub[leave] if leave_up else lb[leave]
        code = (NB_FIXED if lb[leave] == ub[leave]
                else NB_UP if leave_up else NB_LO)
        stat[leave], dirn[leave] = code, _SIGN[code]
        wdirn[leave] = _SIGN[code] * weight[leave]
        basis[pos] = q
        stat[q] = BASIC
        dirn[q] = wdirn[q] = 0.0
        x[q] = xq_new
        ker.push_eta(etas, tri, eta_piv, n_eta, w, pos)
        n_eta += 1
        return leave

    def result(status, duals, **extra):
        extra.setdefault("objective", float(c @ x))
        max_viol = ker.basic_state(x[basis], lb[basis], ub[basis],
                                   _FEAS_TOL)[1]
        return LpSolution(status=status, x=x[:n_struct].copy(),
                          duals=np.asarray(duals), iterations=iters,
                          max_violation=max_viol, basis=basis, stat=stat,
                          phase1_pivots=phase1_pivots, refactors=refactors,
                          degenerate_pivots=degenerate_pivots,
                          bland_pivots=bland_pivots, dual_pivots=dual_pivots,
                          kernel_cols=kernel_cols, priced=priced, **extra)

    refactors = kernel_cols = priced = 0
    refactor()
    iters = phase1_pivots = degenerate_pivots = bland_pivots = 0
    dual_pivots = 0

    # dual phase: a warm start whose tightened bounds leave it primal
    # infeasible but dual feasible is moved to primal feasibility by the
    # dual simplex; the primal loop below then finishes and makes the claim,
    # unless a bound proves the optimum at or above the cutoff first
    if warm is not None and gamma.any():
        price(False)
        dual = np.multiply(dirn, d, out=score).min() >= -_OPT_TOL
        alpha = np.empty(n_tot)
        degen_streak = 0
        check_cutoff = cutoff < np.inf
        while dual and iters < max_iters and degen_streak < _BLAND_AFTER:
            if n_eta >= _REFACTOR_EVERY:
                refactor()
                price(False)
                check_cutoff = cutoff < np.inf
            if check_cutoff:
                if c @ x >= cutoff:
                    y, bound = dual_bound()
                    if bound >= cutoff:
                        return result("cutoff", y, objective=bound)
                    # one failed check per refactorization period
                    check_cutoff = False
            # leave: the largest bound violation, lowest row on ties
            rows = (gamma != 0).nonzero()[0]
            if rows.size == 0:
                break
            cols = basis[rows]
            viol = np.where(gamma[rows] < 0, lb[cols] - x[cols],
                            x[cols] - ub[cols])
            r = int(rows[viol.argmax()])
            s = float(gamma[r])
            rho = btran_row(r)
            alpha[:n_struct] = ker.spmv(at_s, rho)
            alpha[n_struct:] = rho
            q, t = ker.dual_ratio_test(alpha, d, dirn, s, _PIVOT_TOL)
            if q < 0:
                break  # a dual ray: phase 1 proves the LP infeasible
            w = ftran_col(q)
            if abs(w[r]) <= _PIVOT_TOL:
                # w[r] (ftran) and alpha[q] (btran) are the same pivot
                # element; a tiny one means the two solves disagree
                break
            p = basis[r]
            step = (x[p] - (ub[p] if s > 0 else lb[p])) / w[r]
            theta = s * t
            d -= theta * alpha
            nz = (w != 0.0).nonzero()[0]
            x[basis[nz]] -= step * w[nz]
            leave = pivot(q, r, s > 0, x[q] + step, w)
            d[q] = 0.0
            d[leave] = -theta
            update_state(nz)
            iters += 1
            dual_pivots += 1
            if t <= _DEGEN_TOL:
                degenerate_pivots += 1
                degen_streak += 1
            else:
                degen_streak = 0

    degen_streak = 0
    bland = False
    # d holds the reduced costs of the current basis, from a full price or
    # carried from one by the row update of each pivot since; stale asks
    # for a full price, fresh says no pivot was made since the last one
    stale = True
    phase1 = None

    while True:
        if n_eta >= _REFACTOR_EVERY:
            refactor()
            stale = True
        infeasible = bool(np.count_nonzero(gamma))
        if infeasible != phase1:
            phase1 = infeasible
            stale = True
        if stale:
            y = price(phase1)
            stale = False
            fresh = True

        q = ker.entering(d, dirn, wdirn, score, _OPT_TOL, bland)
        if q < 0:
            # a claim needs a fresh price on a clean factorization
            if n_eta > 0:
                refactor()
                stale = True
                continue
            if not fresh:
                stale = True
                continue
            if phase1:
                # a slack names its row, and so does a row's start column
                start = np.asarray(model.start_basis)
                named = np.flatnonzero(start < n_struct)
                owner = np.arange(n_tot) - n_struct
                owner[start[named]] = named
                bad = owner[basis[gamma != 0]]
                rows = np.unique(bad[bad >= 0]).tolist()
                return result("infeasible", y, infeasible_rows=rows)
            return result("optimal", y)

        if iters >= max_iters:
            return result("iteration_limit", np.zeros(m))

        w = ftran_col(q)
        sigma = 1.0 if stat[q] == NB_LO else -1.0
        gap = ub[q] - lb[q]
        # only rows with |w| above the pivot tolerance can block; the subset
        # keeps index order, so ties break as they would over all rows
        nz = (w != 0.0).nonzero()[0]
        rows = nz[np.abs(w[nz]) > _PIVOT_TOL]
        w_r = w[rows]
        cols = basis[rows]
        prio = cols.astype(np.float64) if bland else -np.abs(w_r)
        t, pos, bcode = ker.ratio_test(w_r, x[cols], lb[cols], ub[cols],
                                       gamma[rows], sigma, gap, prio)
        if pos == ker.POS_UNBOUNDED:
            if phase1:
                raise SolverError("unblocked ray while infeasible "
                                  "(numerical breakdown)")
            return result("unbounded", np.zeros(m), objective=-np.inf)

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
        iters += 1
        fresh = False

        # the basics move only on the nonzeros of w, the pivot row among them
        x[basis[nz]] -= (sigma * t) * w[nz]
        g_old = gamma[nz] if phase1 else None
        if pos == ker.POS_FLIP:
            # the basis and the costs stay: so do the reduced costs
            x[q] = ub[q] if stat[q] == NB_LO else lb[q]
            stat[q] = NB_UP if stat[q] == NB_LO else NB_LO
            dirn[q] = -dirn[q]
            wdirn[q] = -wdirn[q]
            r = -1
        else:
            r = int(rows[pos])
            g_r = int(gamma[r])
            leave = pivot(q, r, bcode == 1, x[q] + sigma * t, w)
        g_new = update_state(nz)
        if phase1:
            # the phase-1 costs are the codes: a code moved off row r
            # changes them beyond what the row update carries
            moved = np.count_nonzero(g_new != g_old)
            stale = moved > (r >= 0 and gamma[r] != g_r)
        if r < 0 or stale or n_eta >= _REFACTOR_EVERY:
            continue
        # the row update (Maros 2003, ch. 9): with rho = B^-T e_r of the
        # new basis, d -= d_q [A^T rho; rho]. The leaving column's entry
        # becomes -d_q / w_r less its phase-1 cost, the code g_r it left
        # (0 in phase 2); q enters within its bounds, at cost 0
        d_q = d[q]
        rho = btran_row(r)
        rho *= d_q
        d[:n_struct] -= ker.spmv(at_s, rho)
        d[n_struct:] -= rho
        d[q] = 0.0
        d[leave] = -d_q / w[r] - g_r
