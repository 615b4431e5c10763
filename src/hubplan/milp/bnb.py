"""Best-first branch and bound over the bounded-variable simplex.

Nodes are ordered by (parent LP bound, creation id) and solved lazily at
pop time, so the tree explores the most promising bound first and the id
makes the order — and therefore the node count and incumbent — fully
deterministic. An integer column counts as integral within INT_TOL
(1e-6, shared with the checker); branching picks the most fractional one,
ties to the lowest column id. A single rounding dive from the root supplies
an early incumbent; every incumbent must pass the independent checker, at
its default tolerances, before it is accepted. No cuts, and no presolve
beyond fixed columns never pricing in and empty rows keeping their slack
basic.

Only the root LP can start cold. Each child node's LP starts from its
parent's optimal basis (both children share the parent's arrays), and each
dive step from the previous step's basis; the tightened bound leaves that
basis dual feasible and the branched column out of bounds, so the
simplex's dual phase reoptimizes it. The root itself starts from the
caller's warm basis when one is given, and the run returns the root's
final basis so that a related solve (the next carbon-tax level) can start
from it.
"""

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidParameterError, SolverError
from ..model import CONT
from .simplex import solve_lp
from .verify import INT_TOL, check_solution


# LpSolution counters that branch and bound sums over its LPs
LP_COUNTERS = ("phase1_pivots", "dual_pivots", "refactors", "kernel_cols",
               "degenerate_pivots", "bland_pivots", "priced")


@dataclass
class BnbSolution:
    """Result of a branch-and-bound run.

    status is one of optimal, infeasible, gap_limit, node_limit; gap_limit
    covers hitting the wall-clock limit. objective is the incumbent value
    (inf when none was found), best_bound the proven lower bound, and x the
    incumbent column values with integer columns within INT_TOL (1e-6)
    of integers. gap is relative to max(1, |objective|).

    root_warm is the root LP's final (basis, stat), to pass as warm= to a
    solve of a model with the same rows and columns; None when the root's
    bounds crossed. The counters split the simplex pivots: the root LP's,
    the node LPs' (one per node after the root) and the rounding dive's.
    phase1_pivots, dual_pivots, refactors, kernel_cols, degenerate_pivots,
    bland_pivots and priced are the LpSolution counters summed over all of
    those LPs; kernel_cols / refactors is the mean order of the factored
    basis blocks.

    max_depth is the depth of the deepest node LP solved (the root is 0),
    infeasible_nodes the number of node LPs that ended infeasible (the
    root's not counted), and incumbents the objective of each accepted
    incumbent in the order accepted, the dive's included. node_log holds
    one dict per node LP, in the order solved: its depth, the parent's
    LP bound, its pivots and dual_pivots, its status, and whether it gave
    an accepted incumbent.
    """

    status: str
    objective: float
    best_bound: float
    n_nodes: int
    x: np.ndarray
    gap: float
    wall_time: float
    root_warm: tuple = None
    root_pivots: int = 0
    node_lps: int = 0
    node_pivots: int = 0
    dive_lps: int = 0
    dive_pivots: int = 0
    phase1_pivots: int = 0
    dual_pivots: int = 0
    refactors: int = 0
    kernel_cols: int = 0
    degenerate_pivots: int = 0
    bland_pivots: int = 0
    priced: int = 0
    max_depth: int = 0
    infeasible_nodes: int = 0
    incumbents: list = field(default_factory=list)
    node_log: list = field(default_factory=list)

    def lp_counters(self) -> dict:
        """The pivot and tree counters and the node log by name, as
        audit.json records them."""
        return {key: getattr(self, key) for key in (
            "root_pivots", "node_lps", "node_pivots", "dive_lps",
            "dive_pivots", *LP_COUNTERS, "max_depth", "infeasible_nodes",
            "incumbents", "node_log")}


def _count(totals, lp):
    """Add lp's LP_COUNTERS to the totals dict."""
    for key in LP_COUNTERS:
        totals[key] += getattr(lp, key)


def _fractional(x, int_cols):
    """Most fractional integer column and its distance to the nearest
    integer; (-1, 0.0) when all are within INT_TOL."""
    if int_cols.size == 0:
        return -1, 0.0
    vals = x[int_cols]
    dist = np.abs(vals - np.rint(vals))
    j = int(np.argmax(dist))
    if dist[j] <= INT_TOL:
        return -1, 0.0
    return int(int_cols[j]), float(dist[j])


def _dive(model, lb0, ub0, int_cols, root, totals):
    """Rounding dive from the root relaxation.

    Fixes the most fractional column to its nearest integer and re-solves
    from the previous step's basis; on infeasibility retries the other side
    once, abandoning the dive when both fail. Returns (x or None, LPs
    solved, pivots made) and adds each LP's counters to totals.
    """
    lb = lb0.copy()
    ub = ub0.copy()
    sol = root
    n_lps = n_pivots = 0
    for _ in range(int_cols.size):
        j, _d = _fractional(sol.x, int_cols)
        if j < 0:
            return sol.x, n_lps, n_pivots
        xj = sol.x[j]
        lo_try = float(np.rint(xj))
        lo_try = min(max(lo_try, lb[j]), ub[j])
        alt = lo_try + 1.0 if lo_try <= xj else lo_try - 1.0
        step = None
        for fix in (lo_try, alt):
            if fix < lb[j] - 0.5 or fix > ub[j] + 0.5:
                continue
            lb_t, ub_t = lb.copy(), ub.copy()
            lb_t[j] = ub_t[j] = fix
            cand = solve_lp(model, col_lb=lb_t, col_ub=ub_t,
                            warm=(sol.basis, sol.stat))
            n_lps += 1
            n_pivots += cand.iterations
            _count(totals, cand)
            if cand.status == "optimal":
                lb, ub, step = lb_t, ub_t, cand
                break
        if step is None:
            return None, n_lps, n_pivots
        sol = step
    j, _d = _fractional(sol.x, int_cols)
    return (sol.x if j < 0 else None), n_lps, n_pivots


def check_limits(rel_gap, max_nodes, time_limit_s):
    """Raise InvalidParameterError unless rel_gap >= 0, max_nodes >= 1 and
    time_limit_s is None or positive."""
    if not rel_gap >= 0.0:
        raise InvalidParameterError(f"rel_gap must be >= 0, got {rel_gap}")
    if not max_nodes >= 1:
        raise InvalidParameterError(
            f"max_nodes must be >= 1, got {max_nodes}")
    if time_limit_s is not None and not time_limit_s > 0.0:
        raise InvalidParameterError(
            f"time_limit_s must be > 0, got {time_limit_s}")


def branch_and_bound(model, rel_gap=1e-6, max_nodes=100000,
                     time_limit_s=None, warm=None) -> BnbSolution:
    """Minimize model over its integer marks.

    Returns status optimal once the relative gap between incumbent and
    best outstanding bound is at most rel_gap (or the tree is exhausted),
    infeasible when no integer point exists, node_limit/gap_limit when a
    limit strikes first — carrying the incumbent if any. LP failures
    (singular bases, iteration stalls) propagate as SolverError. warm is a
    (basis, stat) for the root LP, as solve_lp takes it. Limits outside
    their range (check_limits) raise InvalidParameterError.
    """
    check_limits(rel_gap, max_nodes, time_limit_s)
    t0 = time.monotonic()
    int_cols = np.flatnonzero(model.col_kind != CONT)
    lb0 = model.col_lb.astype(float).copy()
    ub0 = model.col_ub.astype(float).copy()
    # integer bounds can be tightened to integers once, up front
    lb0[int_cols] = np.ceil(lb0[int_cols] - INT_TOL)
    ub0[int_cols] = np.floor(ub0[int_cols] + INT_TOL)

    inc_x = None
    inc_obj = np.inf
    dive_lps = dive_pivots = node_pivots = 0
    max_depth = infeasible_nodes = 0
    incumbents = []
    node_log = []
    totals = dict.fromkeys(LP_COUNTERS, 0)

    def finish(status, bound, n_nodes):
        gap = _gap(inc_obj, bound)
        return BnbSolution(
            status=status, objective=float(inc_obj),
            best_bound=float(bound), n_nodes=n_nodes,
            x=inc_x if inc_x is None else inc_x.copy(), gap=gap,
            wall_time=time.monotonic() - t0,
            root_warm=None if root.basis is None else (root.basis, root.stat),
            root_pivots=root.iterations, node_lps=n_nodes - 1,
            node_pivots=node_pivots, dive_lps=dive_lps,
            dive_pivots=dive_pivots, max_depth=max_depth,
            infeasible_nodes=infeasible_nodes, incumbents=incumbents,
            node_log=node_log, **totals)

    def _gap(obj, bound):
        if not np.isfinite(obj):
            return np.inf
        return max(0.0, (obj - bound) / max(1.0, abs(obj)))

    def accept(x, obj):
        """Make x the incumbent if it improves on it; True if it did."""
        nonlocal inc_x, inc_obj
        if obj >= inc_obj:
            return False
        report = check_solution(model, x)
        if not report.ok:
            raise SolverError(
                "candidate incumbent failed independent verification: "
                f"{report.bad_rows[:3]} {report.bad_bounds[:3]} "
                f"{report.bad_integrality[:3]}")
        inc_x, inc_obj = x.copy(), float(obj)
        incumbents.append(inc_obj)
        return True

    root = solve_lp(model, col_lb=lb0, col_ub=ub0, warm=warm)
    _count(totals, root)
    if root.status == "infeasible":
        return finish("infeasible", np.inf, 1)
    if root.status != "optimal":
        raise SolverError(f"root relaxation ended {root.status}")

    j0, _ = _fractional(root.x, int_cols)
    if j0 < 0:
        accept(root.x, root.objective)
        return finish("optimal", root.objective, 1)

    dive_x, dive_lps, dive_pivots = _dive(model, lb0, ub0, int_cols, root,
                                          totals)
    if dive_x is not None:
        accept(dive_x, float(model.obj @ dive_x))

    next_id = 1
    heap = []
    for half in _split(lb0, ub0, j0, root.x[j0]):
        heapq.heappush(heap, (root.objective, next_id, half, 1,
                              (root.basis, root.stat)))
        next_id += 1
    n_nodes = 1

    while heap:
        bound_est, _nid, (lb, ub), depth, parent = heapq.heappop(heap)
        # the heap is bound-ordered, so this is the weakest open bound; the
        # incumbent itself bounds whatever the open nodes still hide
        global_bound = min(bound_est, inc_obj)
        if _gap(inc_obj, global_bound) <= rel_gap:
            return finish("optimal", global_bound, n_nodes)
        if n_nodes >= max_nodes:
            return finish("node_limit", global_bound, n_nodes)
        if time_limit_s is not None and time.monotonic() - t0 > time_limit_s:
            return finish("gap_limit", global_bound, n_nodes)

        node = solve_lp(model, col_lb=lb, col_ub=ub, warm=parent)
        n_nodes += 1
        node_pivots += node.iterations
        max_depth = max(max_depth, depth)
        _count(totals, node)
        entry = {"depth": depth, "bound": bound_est,
                 "pivots": node.iterations, "dual_pivots": node.dual_pivots,
                 "status": node.status, "incumbent": False}
        node_log.append(entry)
        if node.status == "infeasible":
            infeasible_nodes += 1
            continue
        if node.status != "optimal":
            raise SolverError(f"node relaxation ended {node.status}")
        if _gap(inc_obj, node.objective) <= rel_gap:
            continue
        j, _d = _fractional(node.x, int_cols)
        if j < 0:
            entry["incumbent"] = accept(node.x, node.objective)
            continue
        for half in _split(lb, ub, j, node.x[j]):
            heapq.heappush(heap, (node.objective, next_id, half, depth + 1,
                                  (node.basis, node.stat)))
            next_id += 1

    if inc_x is None:
        return finish("infeasible", np.inf, n_nodes)
    return finish("optimal", inc_obj, n_nodes)


def _split(lb, ub, j, xj):
    """Down and up children from branching column j at fractional xj."""
    down_lb, down_ub = lb.copy(), ub.copy()
    down_ub[j] = math.floor(xj)
    up_lb, up_ub = lb.copy(), ub.copy()
    up_lb[j] = math.ceil(xj)
    out = []
    if down_lb[j] <= down_ub[j]:
        out.append((down_lb, down_ub))
    if up_lb[j] <= up_ub[j]:
        out.append((up_lb, up_ub))
    return out
