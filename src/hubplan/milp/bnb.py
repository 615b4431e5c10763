"""Best-first branch and bound over the bounded-variable simplex.

Nodes are ordered by (parent LP bound, creation id) and solved lazily at
pop time, so the tree explores the most promising bound first and the id
makes the order — and therefore the node count and incumbent — fully
deterministic. An integer column counts as integral within core.INT_TOL,
as in the checker; branching picks the most fractional one, ties to the
lowest column id. A single rounding dive from the root supplies an early
incumbent; every incumbent must pass the independent checker before it is
accepted. No cuts, and no presolve beyond fixed columns never pricing in
and empty rows keeping their slack basic.

Only the root LP can start cold, from the model's start basis. Each child
node's LP starts from its parent's optimal basis (both children share the
parent's arrays), and each dive step from the previous step's basis; the
tightened bound leaves that basis dual feasible and the branched column
out of bounds, so the simplex's dual phase reoptimizes it. Once an
incumbent exists, a node LP gets the cutoff
inc_obj - rel_gap max(1, |inc_obj|), the objective at which the node
would be pruned anyway: its dual phase stops as soon as a bound proves the
node reaches it, and the node is pruned without being solved to the end.
The root and the dive get no cutoff, so every node, child and incumbent is
the one the full solve would give. The root itself starts from the
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

    status is one of optimal, infeasible, node_limit (max_nodes reached) and
    time_limit (time_limit_s passed). objective is the incumbent value
    (inf when none was found), best_bound the proven lower bound, and x the
    incumbent column values with integer columns within INT_TOL of
    integers. gap is relative to max(1, |objective|).

    root_warm is the root LP's final (basis, stat), to pass as warm= to a
    solve of a model with the same rows and columns; None when the root's
    bounds crossed. The counters split the simplex pivots: the root LP's,
    the node LPs' (one per node after the root) and the rounding dive's.
    phase1_pivots, dual_pivots, refactors, kernel_cols, degenerate_pivots,
    bland_pivots and priced are the LpSolution counters summed over all of
    those LPs; kernel_cols / refactors is the mean order of the factored
    basis blocks.

    node_log holds one dict per node LP, in the order solved: its depth,
    the parent's LP bound, its pivots and dual_pivots, its status, and
    whether it gave an accepted incumbent. The tree counters are read off
    it: n_nodes is 1 + its length (the root counts) and node_lps its
    length, max_depth the depth of the deepest node LP solved (the root is
    0), infeasible_nodes the node LPs that ended infeasible and
    cutoff_nodes those whose dual phase stopped at the incumbent's cutoff
    (an infeasible node LP may stop there first; it then counts here).
    incumbents holds the objective of each accepted incumbent in the order
    accepted, the dive's included. infeasible_rows lists the rows whose
    slack or start column the root LP's phase 1 left out of bounds
    (LpSolution's infeasible_rows; empty unless the root LP ended
    infeasible).
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
    cutoff_nodes: int = 0
    incumbents: list = field(default_factory=list)
    node_log: list = field(default_factory=list)
    infeasible_rows: list = field(default_factory=list)

    def lp_counters(self) -> dict:
        """The pivot and tree counters and the node log by name, as
        audit.json records them."""
        return {key: getattr(self, key) for key in (
            "root_pivots", "node_lps", "node_pivots", "dive_lps",
            "dive_pivots", *LP_COUNTERS, "max_depth", "infeasible_nodes",
            "cutoff_nodes", "incumbents", "node_log")}


def _count(totals, lp):
    """Add lp's LP_COUNTERS to the totals dict."""
    for key in LP_COUNTERS:
        totals[key] += getattr(lp, key)


def _fractional(x, int_cols):
    """Most fractional integer column, lowest id on ties; -1 when all are
    within INT_TOL of an integer."""
    if int_cols.size == 0:
        return -1
    vals = x[int_cols]
    dist = np.abs(vals - np.rint(vals))
    j = int(np.argmax(dist))
    return -1 if dist[j] <= INT_TOL else int(int_cols[j])


def _dive(model, lb0, ub0, int_cols, root, deadline, totals, pivots):
    """Rounding dive from the root relaxation.

    Fixes the most fractional column to its nearest integer and re-solves
    from the previous step's basis; on infeasibility retries the other side
    once, abandoning the dive when both fail or when time.monotonic() has
    passed deadline before an LP. Returns x or None, adds each LP's
    counters to totals and appends its pivots to pivots.
    """
    lb, ub, sol = lb0, ub0, root
    for _ in range(int_cols.size):
        j = _fractional(sol.x, int_cols)
        if j < 0:
            return sol.x
        xj = sol.x[j]
        lo_try = float(np.rint(xj))
        lo_try = min(max(lo_try, lb[j]), ub[j])
        alt = lo_try + 1.0 if lo_try <= xj else lo_try - 1.0
        step = None
        for fix in (lo_try, alt):
            if fix < lb[j] - 0.5 or fix > ub[j] + 0.5:
                continue
            if time.monotonic() > deadline:
                return None
            lb_t, ub_t = lb.copy(), ub.copy()
            lb_t[j] = ub_t[j] = fix
            cand = solve_lp(model, col_lb=lb_t, col_ub=ub_t,
                            warm=(sol.basis, sol.stat))
            _count(totals, cand)
            pivots.append(cand.iterations)
            if cand.status == "optimal":
                lb, ub, step = lb_t, ub_t, cand
                break
        if step is None:
            return None
        sol = step
    j = _fractional(sol.x, int_cols)
    return sol.x if j < 0 else None


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
    infeasible when no integer point exists, node_limit/time_limit when a
    limit strikes first — carrying the incumbent if any. time_limit_s is
    checked before each dive LP and each node LP; the root LP and an LP
    already started run to their end. LP failures (singular bases,
    iteration stalls) propagate as SolverError. warm is a (basis, stat) for
    the root LP, as solve_lp takes it. Limits outside their range
    (check_limits) raise InvalidParameterError.
    """
    check_limits(rel_gap, max_nodes, time_limit_s)
    t0 = time.monotonic()
    deadline = math.inf if time_limit_s is None else t0 + time_limit_s
    int_cols = np.flatnonzero(model.col_kind != CONT)
    lb0 = model.col_lb.astype(float)
    ub0 = model.col_ub.astype(float)
    # integer bounds can be tightened to integers once, up front
    lb0[int_cols] = np.ceil(lb0[int_cols] - INT_TOL)
    ub0[int_cols] = np.floor(ub0[int_cols] + INT_TOL)

    inc_x = None
    inc_obj = np.inf
    incumbents = []
    node_log = []
    dive_log = []  # pivots of each dive LP
    totals = dict.fromkeys(LP_COUNTERS, 0)

    def finish(status, bound):
        statuses = [e["status"] for e in node_log]
        return BnbSolution(
            status=status, objective=float(inc_obj),
            best_bound=float(bound), n_nodes=1 + len(node_log),
            x=inc_x, gap=_gap(inc_obj, bound), wall_time=time.monotonic() - t0,
            root_warm=None if root.basis is None else (root.basis, root.stat),
            root_pivots=root.iterations, node_lps=len(node_log),
            node_pivots=sum(e["pivots"] for e in node_log),
            dive_lps=len(dive_log), dive_pivots=sum(dive_log),
            max_depth=max((e["depth"] for e in node_log), default=0),
            infeasible_nodes=statuses.count("infeasible"),
            cutoff_nodes=statuses.count("cutoff"), incumbents=incumbents,
            node_log=node_log, infeasible_rows=root.infeasible_rows,
            **totals)

    def _gap(obj, bound):
        if not np.isfinite(obj):
            return np.inf
        return max(0.0, (obj - bound) / max(1.0, abs(obj)))

    def accept(x, obj):
        """Make x, of objective obj, the incumbent once the checker passes
        it. Only improvements come: no incumbent exists at the root or after
        the dive, and the gap prune skips node LPs not below the incumbent."""
        nonlocal inc_x, inc_obj
        report = check_solution(model, x)
        if not report.ok:
            raise SolverError(
                "candidate incumbent failed independent verification: "
                f"{report.bad_rows[:3]} {report.bad_bounds[:3]} "
                f"{report.bad_integrality[:3]}")
        inc_x, inc_obj = x.copy(), float(obj)
        incumbents.append(inc_obj)

    root = solve_lp(model, col_lb=lb0, col_ub=ub0, warm=warm)
    _count(totals, root)
    if root.status == "infeasible":
        return finish("infeasible", np.inf)
    if root.status != "optimal":
        raise SolverError(f"root relaxation ended {root.status}")

    j0 = _fractional(root.x, int_cols)
    if j0 < 0:
        accept(root.x, root.objective)
        return finish("optimal", root.objective)

    dive_x = _dive(model, lb0, ub0, int_cols, root, deadline, totals,
                   dive_log)
    if dive_x is not None:
        accept(dive_x, float(model.obj @ dive_x))

    next_id = 1
    heap = []
    for half in _split(lb0, ub0, j0, root.x[j0]):
        heapq.heappush(heap, (root.objective, next_id, half, 1,
                              (root.basis, root.stat)))
        next_id += 1

    while heap:
        bound_est, _nid, (lb, ub), depth, parent = heapq.heappop(heap)
        # the heap is bound-ordered, so this is the weakest open bound; the
        # incumbent itself bounds whatever the open nodes still hide
        global_bound = min(bound_est, inc_obj)
        if _gap(inc_obj, global_bound) <= rel_gap:
            return finish("optimal", global_bound)
        if 1 + len(node_log) >= max_nodes:
            return finish("node_limit", global_bound)
        if time.monotonic() > deadline:
            return finish("time_limit", global_bound)

        # the objective at which the gap test below prunes the node
        cutoff = (inc_obj - rel_gap * max(1.0, abs(inc_obj))
                  if np.isfinite(inc_obj) else np.inf)
        node = solve_lp(model, col_lb=lb, col_ub=ub, warm=parent,
                        cutoff=cutoff)
        _count(totals, node)
        entry = {"depth": depth, "bound": bound_est,
                 "pivots": node.iterations, "dual_pivots": node.dual_pivots,
                 "status": node.status, "incumbent": False}
        node_log.append(entry)
        if node.status in ("infeasible", "cutoff"):
            continue
        if node.status != "optimal":
            raise SolverError(f"node relaxation ended {node.status}")
        if _gap(inc_obj, node.objective) <= rel_gap:
            continue
        j = _fractional(node.x, int_cols)
        if j < 0:
            accept(node.x, node.objective)
            entry["incumbent"] = True
            continue
        for half in _split(lb, ub, j, node.x[j]):
            heapq.heappush(heap, (node.objective, next_id, half, depth + 1,
                                  (node.basis, node.stat)))
            next_id += 1

    if inc_x is None:
        return finish("infeasible", np.inf)
    return finish("optimal", inc_obj)


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
