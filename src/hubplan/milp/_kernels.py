"""Hot inner loops of the simplex, vectorized with numpy.

The simplex looks these up on the module (``ker.<name>``) at call time, so
the benchmark's tracer can wrap them. tests/test_simplex.py keeps scalar
loop versions of each kernel as the reference they must match.

The eta file is applied as one block. Eta j replaces basis position r_j
by the ftran'ed entering column w_j; row j of ``etas`` stores
u_j = w_j - e_{r_j}, and the lower-triangular ``tri`` holds
tri[j, i] = u_i[r_j] for i < j and tri[j, j] = w_j[r_j]. Applying the
etas oldest first to v subtracts u_j alpha_j, where alpha_j is v[r_j] at
that moment over w_j[r_j]; stacked, that is tri alpha = v[R] (R the pivot
rows) and v -= etas^T alpha. The transposed etas, newest first, give
tri^T beta = etas v and v[R] -= beta. Each is one matrix-vector product
and one triangular solve of at most 50 rows, in place of a loop over the
etas (Dantzig & Orchard-Hays' product form, applied blockwise). The
ftran applies etas^T alpha as one axpy per nonzero multiplier: on the
sparse columns the simplex ftrans, alpha has a median of one nonzero in
25. A btran of the unit row e_r reads column r of ``etas`` in place of
the product, O(n_eta): that is the pivot-row btran of the simplex's
pricing update and of its dual phase.

The ratio test takes only rows whose |w| is above the pivot tolerance
(the others cannot block), so it divides by no zero. Bound-violation codes
(``basic_state``) are two comparisons of each basic with its bounds
shifted out by the feasibility tolerance (``shifted_bounds``); the simplex
shifts each column's bounds once per solve and reads them through the
basis.

Sparse matrix-vector products (``spmv``) call the compiled kernel that
scipy's ``@`` dispatches to, without the Python dispatch around it, which
cost more than the product itself on the simplex's vectors.
"""

import numpy as np
from scipy.linalg.blas import daxpy, dtrsv
from scipy.sparse import _sparsetools

# recorded in the benchmark's environment record; the kernels are plain numpy
USE_NUMBA = False

# position codes returned by ratio_test
POS_FLIP = -1
POS_UNBOUNDED = -2


def ratio_test(w, xb, lb_b, ub_b, gamma, sigma, enter_gap, prio):
    """Smallest step before a bound is hit, and who blocks.

    The caller passes only rows with |w| above the pivot tolerance (the
    others cannot block), so no entry of w is 0. Returns (t, pos, code):
    pos is the blocking basis position, POS_FLIP for an entering-variable
    bound flip, or POS_UNBOUNDED; code 0/1 says the leaving variable lands
    on its lower/upper bound. Infeasible basics block at the bound they are
    returning to, feasible ones at the bound they approach. Among blockers
    tying within a relative 1e-10 window the smallest prio wins; a flip is
    taken only when no basic ties.
    """
    # key = gamma + (rho > 0) names the blocking bound of each row: a basic
    # rising (rho > 0) blocks at its lower bound when below it (key 0), at
    # its upper bound when within (key 1), nowhere when above (key 2); a
    # falling one nowhere when below (key -1), at its lower bound when
    # within (key 0), at its upper bound when above (key 1). (bound - xb)
    # / rho is the step either way, and +inf when that bound is infinite.
    rho = w * -sigma
    key = gamma + (rho > 0.0)
    hit_ub = key == 1
    t = np.where(hit_ub, ub_b, lb_b)
    t -= xb
    t /= rho
    t[key.view(np.uint8) > 1] = np.inf
    np.maximum(t, 0.0, out=t)
    t_min = min(float(t.min(initial=np.inf)), enter_gap)
    if t_min == np.inf:
        return t_min, POS_UNBOUNDED, 0
    idx = (t <= t_min + 1e-10 * (1.0 + t_min)).nonzero()[0]
    if idx.size == 0:
        return t_min, POS_FLIP, 0
    best = int(idx[prio[idx].argmin()])
    return t_min, best, int(hit_ub[best])


def entering(d, dirn, wdirn, score, opt_tol, bland):
    """Entering column of a primal pivot, or -1 when none prices in.

    d holds the reduced costs, dirn the pricing signs (+1 at a lower
    bound, -1 at an upper one, 0 basic or fixed) and wdirn dirn times each
    column's steepest-edge weight; score is scratch. A column is eligible
    when dirn d < -opt_tol. The eligible column with the smallest
    wdirn d wins, the lowest index on ties; under Bland's rule the lowest
    eligible index. The weighted minimum over all columns is almost always
    eligible, so eligibility is masked only when it is not.
    """
    if not bland:
        np.multiply(wdirn, d, out=score)
        q = int(score.argmin())
        if dirn[q] * d[q] < -opt_tol:
            return q
    elig = dirn * d < -opt_tol
    if not elig.any():
        return -1
    if bland:
        return int(elig.argmax())
    score[~elig] = np.inf
    return int(score.argmin())


def dual_ratio_test(alpha, d, dirn, s, pivot_tol):
    """Entering column of a dual simplex pivot, and its dual step.

    alpha is the pivot row over all columns, d their reduced costs and
    dirn their pricing signs (+1 at a lower bound, -1 at an upper one, 0
    basic or fixed). s is +1 when the leaving basic is above its upper
    bound, -1 when below its lower one. A column is eligible when |alpha|
    exceeds pivot_tol and moving it off its bound pushes the leaving basic
    back toward that bound (s dirn alpha > 0). Returns (q, t): the
    eligible column with the smallest max(dirn d, 0) / |alpha|, ties
    within a relative 1e-10 window going to the largest |alpha|, then the
    lowest index, and that ratio; (-1, inf) when none is eligible (a dual
    ray).
    """
    elig = (s * dirn) * alpha > pivot_tol
    idx = elig.nonzero()[0]
    if idx.size == 0:
        return -1, np.inf
    mag = np.abs(alpha[idx])
    ratio = np.maximum(dirn[idx] * d[idx], 0.0) / mag
    t_min = float(ratio.min())
    tie = (ratio <= t_min + 1e-10 * (1.0 + t_min)).nonzero()[0]
    return int(idx[tie[mag[tie].argmax()]]), t_min


def push_eta(etas, tri, eta_piv, n_eta, w, r):
    """Append the eta of entering column w (pivot row r) as entry n_eta.

    Row n_eta of etas becomes w - e_r and row n_eta of tri its pivot
    element plus the earlier etas' entries in row r; O(n_eta) beyond the
    copy of w.
    """
    etas[n_eta] = w
    etas[n_eta, r] -= 1.0
    tri[n_eta, :n_eta] = etas[:n_eta, r]
    tri[n_eta, n_eta] = w[r]
    eta_piv[n_eta] = r


def ftran_etas(etas, tri, eta_piv, n_eta, v):
    """Apply the first n_eta etas to v in place, as one block; v is a
    contiguous float64 vector, which BLAS updates in place.

    The etas' multipliers alpha solve tri alpha = v[eta_piv] by forward
    substitution; then v -= etas^T alpha, one axpy per nonzero multiplier
    (on a sparse column, a few of the etas).
    """
    if n_eta == 0:
        return v
    alpha = dtrsv(tri[:n_eta, :n_eta], v[eta_piv[:n_eta]], lower=1)
    for j in (alpha != 0.0).nonzero()[0].tolist():
        daxpy(etas[j], v, a=-alpha[j])
    return v


def btran_etas(etas, tri, eta_piv, n_eta, v, row=None):
    """Apply the transposed first n_eta etas to v in place, as one block.

    beta solves tri^T beta = etas v; each pivot row then loses its etas'
    beta, summed where a row was pivoted on more than once. When v is the
    unit vector e_row, etas v is column row of etas, read in O(n_eta) in
    place of the product.
    """
    if n_eta == 0:
        return v
    ev = etas[:n_eta] @ v if row is None else etas[:n_eta, row]
    beta = dtrsv(tri[:n_eta, :n_eta], ev, lower=1, trans=1)
    np.subtract.at(v, eta_piv[:n_eta], beta)
    return v


def spmv(a, x):
    """a @ x for a CSR or CSC matrix a and a float64 vector x, bit for bit:
    scipy's own csr_matvec or csc_matvec, run into a fresh zero vector as
    ``@`` runs it."""
    m, n = a.shape
    y = np.zeros(m)
    matvec = (_sparsetools.csr_matvec if a.format == "csr"
              else _sparsetools.csc_matvec)
    matvec(m, n, a.indptr, a.indices, a.data, x, y)
    return y


def shifted_bounds(lb, ub, feas_tol):
    """The bounds moved out by the feasibility tolerance, relative to
    1 + |bound|: a value is out of bounds exactly when it lies outside
    them. Infinite bounds stay infinite."""
    return lb - feas_tol * (1.0 + np.abs(lb)), ub + feas_tol * (1.0 + np.abs(ub))


def basic_state(xb, lo_s, hi_s):
    """Bound-violation code of each basic: -1 below lo_s, 1 above hi_s, 0
    within, where lo_s and hi_s are the basics' shifted_bounds."""
    return (xb > hi_s).view(np.int8) - (xb < lo_s).view(np.int8)
