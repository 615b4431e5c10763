"""Branch and bound over the bounded-variable simplex: a plunge to the
first incumbent, then best-first.

Nodes are solved lazily, when taken from the open nodes. Until the first
incumbent the tree plunges: it takes the open node created last, and of
two children the one on the side of the branched column's nearest integer
(np.rint) first, so an infeasible child hands over to its sibling. The
plunge gives node- and time-limited runs an early incumbent and solves
no LP twice. At the first incumbent the open nodes are put in a heap
ordered by (parent LP bound, creation id), and the tree goes best-first
from there; the id makes the order, and therefore the node count and
incumbent, fully deterministic. An integer column counts as integral
within core.INT_TOL, as in the checker; branching picks the most
fractional one, ties to the lowest column id. Every incumbent must pass
the independent checker before it is accepted. No cuts, and no presolve
beyond fixed columns never pricing in and empty rows keeping their slack
basic.

Only the root LP can start cold, from the model's start point. Each child
node's LP starts from its parent's optimal basis and from the factor of it
that the parent's LP ended on (LpSolution.factor; both children share the
parent's arrays and factor), so it factors nothing and rebuilds no matrix
to begin; the tightened bound leaves that basis dual feasible and the
branched column out of bounds, so the simplex's dual phase reoptimizes
it. The factors stay inside the tree: the returned root_warm has none.
Once an incumbent exists, a node LP gets the cutoff
inc_obj - rel_gap max(1, |inc_obj|), the objective at which the node
would be pruned anyway: its dual phase stops as soon as a bound proves the
node reaches it, and the node is pruned without being solved to the end.
The root and the plunge get no cutoff, so every node, child and incumbent
is the one the full solve would give. The root itself starts from the
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
    bounds crossed. The counters split the simplex pivots: the root LP's
    and the node LPs' (one per node after the root). phase1_pivots,
    dual_pivots, refactors, kernel_cols, degenerate_pivots, bland_pivots
    and priced are the LpSolution counters summed over all of those LPs;
    kernel_cols / refactors is the mean order of the factored basis
    blocks.

    node_log holds one dict per node LP, in the order solved: its depth,
    the parent's LP bound, its pivots and dual_pivots, its status, and
    whether it gave an accepted incumbent. The tree counters are read off
    it: n_nodes is 1 + its length (the root counts) and node_lps its
    length, max_depth the depth of the deepest node LP solved (the root is
    0), infeasible_nodes the node LPs that ended infeasible and
    cutoff_nodes those whose dual phase stopped at the incumbent's cutoff
    (an infeasible node LP may stop there first; it then counts here).
    incumbents holds the objective of each accepted incumbent in the order
    accepted; the node log's first incumbent entry is where the plunge
    ended. infeasible_rows lists the rows whose slack or start column the
    root LP's phase 1 left out of bounds (LpSolution's infeasible_rows;
    empty unless the root LP ended infeasible).
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
            "root_pivots", "node_lps", "node_pivots", *LP_COUNTERS,
            "max_depth", "infeasible_nodes", "cutoff_nodes", "incumbents",
            "node_log")}


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
    limit strikes first — carrying the incumbent if any, with the least
    bound over the open nodes. time_limit_s is checked before each node
    LP; the root LP and an LP already started run to their end. LP
    failures (singular bases, iteration stalls) propagate as SolverError.
    warm is a (basis, stat) for the root LP, as solve_lp takes it. Limits
    outside their range (check_limits) raise InvalidParameterError.
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
        it. Only improvements come: no incumbent exists at the root or
        during the plunge, and the gap prune skips node LPs not below the
        incumbent."""
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

    # the open nodes: a stack until the first incumbent (the plunge), then
    # a heap ordered by (bound, id)
    next_id = 1
    open_nodes = []

    def branch(lp, lb, ub, j, depth):
        """Open lp's children on column j; during the plunge, the child on
        the side of j's nearest integer goes on top of the stack."""
        nonlocal next_id
        kids = []
        for half in _split(lb, ub, j, lp.x[j]):
            kids.append((lp.objective, next_id, half, depth,
                         (lp.basis, lp.stat, lp.factor)))
            next_id += 1
        if inc_x is not None:
            for kid in kids:
                heapq.heappush(open_nodes, kid)
            return
        if np.rint(lp.x[j]) < lp.x[j]:
            kids.reverse()  # the down child on top
        open_nodes.extend(kids)

    branch(root, lb0, ub0, j0, 1)
    while open_nodes:
        # the weakest open bound: the heap's top once best-first, else the
        # least over the plunge's stack; the incumbent itself bounds
        # whatever the open nodes still hide
        low = (open_nodes[0][0] if inc_x is not None
               else min(node[0] for node in open_nodes))
        global_bound = min(low, inc_obj)
        if _gap(inc_obj, global_bound) <= rel_gap:
            return finish("optimal", global_bound)
        if 1 + len(node_log) >= max_nodes:
            return finish("node_limit", global_bound)
        if time.monotonic() > deadline:
            return finish("time_limit", global_bound)

        bound_est, _nid, (lb, ub), depth, parent = (
            heapq.heappop(open_nodes) if inc_x is not None
            else open_nodes.pop())
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
            if inc_x is None:
                heapq.heapify(open_nodes)  # the plunge ends: best-first
            accept(node.x, node.objective)
            entry["incumbent"] = True
            continue
        branch(node, lb, ub, j, depth + 1)

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
