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
etas (Dantzig & Orchard-Hays' product form, applied blockwise).
"""

import numpy as np
from scipy.linalg.blas import dtrsv

# recorded in the benchmark's environment record; the kernels are plain numpy
USE_NUMBA = False

# position codes returned by ratio_test
POS_FLIP = -1
POS_UNBOUNDED = -2


def ratio_test(w, xb, lb_b, ub_b, gamma, sigma, enter_gap, pivot_tol, prio):
    """Smallest step before a bound is hit, and who blocks.

    Returns (t, pos, code): pos is the blocking basis position, POS_FLIP for
    an entering-variable bound flip, or POS_UNBOUNDED; code 0/1 says the
    leaving variable lands on its lower/upper bound. Infeasible basics block
    at the bound they are returning to, feasible ones at the bound they
    approach. Among blockers tying within a relative 1e-10 window the
    smallest prio wins; a flip is taken only when no basic ties.
    """
    m = xb.shape[0]
    rho = -sigma * w
    t = np.full(m, np.inf)
    code = np.zeros(m, dtype=np.int8)
    up = rho > pivot_tol
    dn = rho < -pivot_tol
    sel = up & (gamma == -1)
    t[sel] = (lb_b[sel] - xb[sel]) / rho[sel]
    sel = up & (gamma == 0) & np.isfinite(ub_b)
    t[sel] = (ub_b[sel] - xb[sel]) / rho[sel]
    code[sel] = 1
    sel = dn & (gamma == 1)
    t[sel] = (xb[sel] - ub_b[sel]) / (-rho[sel])
    code[sel] = 1
    sel = dn & (gamma == 0) & np.isfinite(lb_b)
    t[sel] = (xb[sel] - lb_b[sel]) / (-rho[sel])
    np.maximum(t, 0.0, out=t)
    t_min = min(float(np.min(t, initial=np.inf)), enter_gap)
    if not np.isfinite(t_min):
        return t_min, POS_UNBOUNDED, 0
    tie = t_min + 1e-10 * (1.0 + t_min)
    idx = np.flatnonzero(t <= tie)
    if idx.size == 0:
        return t_min, POS_FLIP, 0
    best = int(idx[np.argmin(prio[idx])])
    return t_min, best, int(code[best])


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
    """Apply the first n_eta etas to v in place, as one block.

    The etas' multipliers alpha solve tri alpha = v[eta_piv] by forward
    substitution; then v -= etas^T alpha.
    """
    if n_eta == 0:
        return v
    alpha = dtrsv(tri[:n_eta, :n_eta], v[eta_piv[:n_eta]], lower=1)
    v -= alpha @ etas[:n_eta]
    return v


def btran_etas(etas, tri, eta_piv, n_eta, v):
    """Apply the transposed first n_eta etas to v in place, as one block.

    beta solves tri^T beta = etas v; each pivot row then loses its etas'
    beta, summed where a row was pivoted on more than once.
    """
    if n_eta == 0:
        return v
    beta = dtrsv(tri[:n_eta, :n_eta], etas[:n_eta] @ v, lower=1, trans=1)
    np.subtract.at(v, eta_piv[:n_eta], beta)
    return v


def basic_state(xb, lb_b, ub_b, feas_tol):
    """Bound-violation code of each basic (-1 below, 1 above, 0 within
    feas_tol, relative to 1 + |bound|) and the largest violation."""
    m = xb.shape[0]
    gamma = np.zeros(m, dtype=np.int8)
    lo_viol = np.zeros(m)
    up_viol = np.zeros(m)
    fin_lo = np.isfinite(lb_b)
    fin_up = np.isfinite(ub_b)
    lo_viol[fin_lo] = (lb_b[fin_lo] - xb[fin_lo]) / (1.0 + np.abs(lb_b[fin_lo]))
    up_viol[fin_up] = (xb[fin_up] - ub_b[fin_up]) / (1.0 + np.abs(ub_b[fin_up]))
    gamma[lo_viol > feas_tol] = -1
    gamma[up_viol > feas_tol] = 1
    max_viol = max(float(np.max(lo_viol, initial=0.0)),
                   float(np.max(up_viol, initial=0.0)))
    return gamma, max_viol
