"""Bounded-variable primal simplex against closed forms and linprog."""
import collections
import dataclasses
import sys

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from conftest import make_model, same_lp
from hubplan.errors import InvalidParameterError, SolverError
from hubplan.milp import _kernels as ker
from hubplan.milp import simplex as simplex_mod
from hubplan.milp import solve_lp
from hubplan.milp._kernels import POS_FLIP, POS_UNBOUNDED
from hubplan.model import EQ, GE, K_XFC, LE


def test_single_bound_optimum():
    m = make_model([-1.0], [[1.0]], [LE], [5.0], [0.0], [3.0])
    s = solve_lp(m)
    assert s.status == "optimal"
    assert abs(s.objective + 3.0) < 1e-9 and abs(s.x[0] - 3.0) < 1e-9
    # the slack basis is feasible: no phase 1
    assert s.iterations >= 1 and s.phase1_pivots == 0


def test_two_var_ge():
    m = make_model([1.0, 1.0], [[1.0, 1.0]], [GE], [2.0], [0.0, 0.0],
                   [10.0, 10.0])
    s = solve_lp(m)
    assert s.status == "optimal" and abs(s.objective - 2.0) < 1e-9


def test_infeasible_reports_rows():
    m = make_model([1.0], [[1.0], [1.0]], [LE, GE], [1.0, 3.0], [0.0], [10.0])
    s = solve_lp(m)
    assert s.status == "infeasible"
    assert len(s.infeasible_rows) >= 1
    assert all(0 <= i < 2 for i in s.infeasible_rows)


def test_unbounded():
    m = make_model([-1.0], [[1.0]], [GE], [1.0], [0.0], [np.inf])
    assert solve_lp(m).status == "unbounded"


def test_free_variable():
    # every column needs a finite bound to sit on; one with neither is
    # refused by name before any pivot, however the bounds are passed
    m = make_model([1.0, 1.0], [[1.0, 1.0]], [GE], [-4.0], [0.0, -np.inf],
                   [np.inf, np.inf])
    with pytest.raises(InvalidParameterError,
                       match="^column C1 has no finite bound$"):
        solve_lp(m)
    with pytest.raises(InvalidParameterError, match="^column C0 "):
        solve_lp(m, col_lb=np.array([-np.inf, 0.0]))
    s = solve_lp(m, col_lb=np.array([0.0, -9.0]))
    assert s.status == "optimal" and abs(s.objective + 4.0) < 1e-9


def test_equality_mix():
    # max x s.t. x - y <= 1, x + y = 4 -> (2.5, 1.5), objective 9.5
    m = make_model([2.0, 3.0], [[1, 1], [1, -1]], [EQ, LE], [4.0, 1.0],
                   [0, 0], [5, 5])
    s = solve_lp(m)
    assert s.status == "optimal" and abs(s.objective - 9.5) < 1e-9
    np.testing.assert_allclose(s.x, [2.5, 1.5], atol=1e-9)


def test_degenerate_rows():
    # duplicated constraints must not cycle
    a = [[1.0, 1.0]] * 6 + [[1.0, -1.0]]
    m = make_model([1.0, 2.0], a, [GE] * 6 + [LE], [2.0] * 6 + [0.0],
                   [0, 0], [9, 9])
    s = solve_lp(m)
    assert s.status == "optimal" and abs(s.objective - 3.0) < 1e-9
    assert s.phase1_pivots >= 1 and s.degenerate_pivots >= 1
    assert s.bland_pivots == 0 and s.refactors >= 1


def test_fixed_variable():
    m = make_model([1.0, 1.0], [[1.0, 1.0]], [GE], [2.0], [0.5, 0.0],
                   [0.5, 9.0])
    s = solve_lp(m)
    assert s.status == "optimal"
    assert abs(s.x[0] - 0.5) < 1e-12 and abs(s.objective - 2.0) < 1e-9


def test_solution_feasibility_fields():
    m = make_model([1.0, 1.0], [[1.0, 1.0]], [GE], [2.0], [0.0, 0.0],
                   [10.0, 10.0])
    s = solve_lp(m)
    assert s.max_violation <= 1e-7
    assert s.duals.shape == (1,)
    assert s.iterations >= 1


def _linprog_ref(obj, a, senses, rhs, lb, ub):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for i, sense in enumerate(senses):
        if sense == LE:
            a_ub.append(a[i]); b_ub.append(rhs[i])
        elif sense == GE:
            a_ub.append(-a[i]); b_ub.append(-rhs[i])
        else:
            a_eq.append(a[i]); b_eq.append(rhs[i])
    return linprog(obj, A_ub=np.array(a_ub) if a_ub else None,
                   b_ub=np.array(b_ub) if b_ub else None,
                   A_eq=np.array(a_eq) if a_eq else None,
                   b_eq=np.array(b_eq) if b_eq else None,
                   bounds=list(zip(lb, ub)), method="highs")


def _random_lp(rng):
    """(obj, a, senses, rhs, lb, ub) of a small random LP with some
    infinite bounds, never both on one column; most draws are solvable."""
    m = int(rng.integers(1, 12))
    n = int(rng.integers(1, 12))
    dens = rng.uniform(0.3, 1.0)
    a = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < dens)
    obj = rng.normal(size=n)
    senses = rng.integers(0, 3, size=m)
    lb = np.where(rng.random(n) < 0.15, -np.inf, rng.uniform(-5, 0, n))
    ub = np.where((rng.random(n) < 0.15) & np.isfinite(lb), np.inf,
                  rng.uniform(0.5, 6, n))
    x0 = np.clip(rng.uniform(0, 1, size=n),
                 np.where(np.isfinite(lb), lb, 0),
                 np.where(np.isfinite(ub), ub, 1))
    rhs = a @ x0 + rng.normal(size=m)
    return obj, a, senses, rhs, lb, ub


def test_random_instances_match_linprog():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(150):
        obj, a, senses, rhs, lb, ub = _random_lp(rng)
        mine = solve_lp(make_model(obj, a, senses, rhs, lb, ub))
        ref = _linprog_ref(obj, a, senses, rhs, lb, ub)
        if ref.status == 0:
            assert mine.status == "optimal", (trial, mine.status)
            assert abs(mine.objective - ref.fun) <= 1e-6 * (1 + abs(ref.fun)), \
                (trial, mine.objective, ref.fun)
            assert mine.max_violation <= 1e-6
            checked += 1
        elif ref.status == 2:
            assert mine.status == "infeasible", (trial, mine.status)
        elif ref.status == 3:
            assert mine.status == "unbounded", (trial, mine.status)
    assert checked > 40  # enough solvable draws to mean something


def _warm_child(rng, parent, obj, lb, ub):
    """(kind, obj, col_lb, col_ub) of an LP related to the solved parent: a
    branch-and-bound child (one bound tightened past the parent's value,
    kind down or up) or a sweep level (new costs, kind cost)."""
    lb2, ub2 = lb.copy(), ub.copy()
    j = int(rng.integers(obj.size))
    step = rng.uniform(0.0, 5.0)
    kind = ("cost", "down", "up")[int(rng.integers(3))]
    if kind == "cost":
        obj = obj + rng.normal(size=obj.size)
    elif kind == "down":
        ub2[j] = max(parent.x[j] - step, lb[j])
    else:
        lb2[j] = min(parent.x[j] + step, ub[j])
    return kind, obj, lb2, ub2


def test_warm_start_after_bound_change_matches_cold():
    # a child or a sweep level, solved warm and cold
    rng = np.random.default_rng(11)
    seen = {"bound:optimal": 0, "bound:infeasible": 0, "cost:optimal": 0,
            "bound:dual": 0}
    for trial in range(300):
        obj, a, senses, rhs, lb, ub = _random_lp(rng)
        parent = solve_lp(make_model(obj, a, senses, rhs, lb, ub))
        if parent.status != "optimal":
            continue
        basis, stat = parent.basis.copy(), parent.stat.copy()
        kind, obj, lb2, ub2 = _warm_child(rng, parent, obj, lb, ub)
        model = make_model(obj, a, senses, rhs, lb, ub)
        warm = solve_lp(model, col_lb=lb2, col_ub=ub2,
                        warm=(parent.basis, parent.stat))
        cold = solve_lp(model, col_lb=lb2, col_ub=ub2)
        assert warm.status == cold.status, (trial, kind)
        if cold.status == "optimal":
            assert abs(warm.objective - cold.objective) <= 1e-9 * (
                1 + abs(cold.objective)), (trial, kind)
            assert warm.max_violation <= 1e-7
        if kind == "cost":
            # new costs leave the parent's basis primal feasible, so the
            # primal carries on and the dual phase never starts
            assert warm.phase1_pivots == 0 and warm.dual_pivots == 0, trial
        else:
            seen["bound:dual"] += warm.dual_pivots > 0
        # children share the parent's arrays, so a warm solve must not
        # write them
        assert np.array_equal(parent.basis, basis)
        assert np.array_equal(parent.stat, stat)
        key = f"{'cost' if kind == 'cost' else 'bound'}:{cold.status}"
        seen[key] = seen.get(key, 0) + 1
    assert min(seen[k] for k in ("bound:optimal", "bound:infeasible",
                                 "cost:optimal", "bound:dual")) >= 15, seen


def _branched_parent():
    """min x1 + 2 x2 s.t. x1 + x2 >= 4, x2 <= 1 over [0, 5]^2, and its
    optimum: x1 = 4 basic, x2 at its lower bound."""
    model = make_model([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]], [GE, LE],
                       [4.0, 1.0], [0.0, 0.0], [5.0, 5.0])
    parent = solve_lp(model)
    assert parent.status == "optimal"
    np.testing.assert_allclose(parent.x, [4.0, 0.0], atol=1e-12)
    return model, parent


def test_dual_infeasible_warm_start_takes_the_primal_path():
    # x1 <= 3 leaves the basic x1 above its bound. Under the parent's costs
    # the basis stays dual feasible and the dual phase reoptimizes; with
    # x2's cost turned negative the re-seated x2 prices in, so the basis is
    # dual infeasible and phase 1 walks x1 back instead
    model, parent = _branched_parent()
    warm = (parent.basis, parent.stat)
    lb, ub = np.zeros(2), np.array([3.0, 5.0])
    for obj, dual in (([1.0, 2.0], True), ([1.0, -1.0], False)):
        child = make_model(obj, model.a_matrix.toarray(), model.row_sense,
                           model.rhs, model.col_lb, model.col_ub)
        got = solve_lp(child, col_lb=lb, col_ub=ub, warm=warm)
        cold = solve_lp(child, col_lb=lb, col_ub=ub)
        assert got.status == cold.status == "optimal", obj
        assert abs(got.objective - cold.objective) <= 1e-12, obj
        assert (got.dual_pivots > 0) == dual, obj
        assert (got.phase1_pivots > 0) != dual, obj


def test_dual_hands_an_infeasible_child_to_phase_1():
    # x1 <= 2 cannot meet x1 + x2 >= 4 with x2 <= 1. The dual brings x2 in
    # for x1, overruns the second row and finds no column to repair it (a
    # dual ray); phase 1 then proves infeasibility and names that row
    model, parent = _branched_parent()
    lb, ub = np.zeros(2), np.array([2.0, 5.0])
    got = solve_lp(model, col_lb=lb, col_ub=ub,
                   warm=(parent.basis, parent.stat))
    assert got.status == "infeasible" and got.dual_pivots == 1
    assert got.infeasible_rows == [1]
    assert solve_lp(model, col_lb=lb, col_ub=ub).status == "infeasible"


def test_dual_stall_hands_over_to_the_primal(monkeypatch):
    # after one dual-degenerate pivot the dual gives the basis to the
    # primal, which must finish each LP as a cold solve does; costs rounded
    # to mostly 0 (some +-1) leave many reduced costs at 0, so dual steps of
    # 0 are common
    monkeypatch.setattr(simplex_mod, "_BLAND_AFTER", 1)
    rng = np.random.default_rng(11)
    handed = 0
    for trial in range(300):
        obj, a, senses, rhs, lb, ub = _random_lp(rng)
        obj = np.rint(obj / 2.0)
        parent = solve_lp(make_model(obj, a, senses, rhs, lb, ub))
        if parent.status != "optimal":
            continue
        _kind, obj, lb2, ub2 = _warm_child(rng, parent, obj, lb, ub)
        model = make_model(obj, a, senses, rhs, lb, ub)
        warm = solve_lp(model, col_lb=lb2, col_ub=ub2,
                        warm=(parent.basis, parent.stat))
        cold = solve_lp(model, col_lb=lb2, col_ub=ub2)
        assert warm.status == cold.status, trial
        if cold.status == "optimal":
            assert abs(warm.objective - cold.objective) <= 1e-9 * (
                1 + abs(cold.objective)), trial
            # the dual stopped short of feasibility; phase 1 went on
            handed += warm.dual_pivots > 0 and warm.phase1_pivots > 0
    assert handed >= 5, handed


def test_warm_start_from_own_optimum_takes_no_pivots():
    rng = np.random.default_rng(5)
    solved = 0
    for trial in range(60):
        model = make_model(*_random_lp(rng))
        cold = solve_lp(model)
        if cold.status != "optimal":
            continue
        again = solve_lp(model, warm=(cold.basis, cold.stat))
        assert again.status == "optimal" and again.iterations == 0, trial
        assert again.objective == cold.objective
        assert np.array_equal(again.x, cold.x)
        solved += 1
    assert solved > 15


@pytest.fixture
def checked_ratio_tests(monkeypatch):
    """Make every ker.ratio_test call of solve_lp check the basic state it
    is passed against a fresh basic_state of the basics it is passed.

    solve_lp carries the violation codes across pivots and recomputes them
    only on the rows a pivot moved. Returns a dict counting the calls and
    those made while some passed basic was out of bounds.
    """
    real_ratio, real_state = ker.ratio_test, ker.basic_state
    seen = {"calls": 0, "infeasible": 0}

    def checking(w, xb, lb_b, ub_b, gamma, *rest):
        fresh, _viol = real_state(xb, lb_b, ub_b, simplex_mod._FEAS_TOL)
        assert np.array_equal(gamma, fresh)
        seen["calls"] += 1
        seen["infeasible"] += bool(gamma.any())
        return real_ratio(w, xb, lb_b, ub_b, gamma, *rest)

    monkeypatch.setattr(ker, "ratio_test", checking)
    return seen


def _assert_exit_violation(model, sol, col_lb, col_ub):
    """sol.max_violation is the largest bound violation of the point it
    returns, with the slacks recomputed as rhs - A x."""
    slack = model.rhs - model.a_matrix @ sol.x
    s_lo, s_hi = simplex_mod._slack_bounds(model.row_sense)
    _gamma, viol = ker.basic_state(np.concatenate([sol.x, slack]),
                                   np.concatenate([col_lb, s_lo]),
                                   np.concatenate([col_ub, s_hi]),
                                   simplex_mod._FEAS_TOL)
    assert abs(sol.max_violation - viol) <= 1e-9, (sol.status,
                                                   sol.max_violation, viol)


@pytest.fixture
def checked_reduced_costs(monkeypatch):
    """Make every ker.ratio_test and ker.dual_ratio_test call of solve_lp
    (one per primal or dual pivot) check solve_lp's reduced costs against
    a fresh pricing pass.

    solve_lp prices in full only now and then and carries the reduced costs
    across the other pivots: by the row update in the primal, by the dual
    step in the dual phase. The fresh pass solves the dense basis for the
    row prices of the current phase's costs (the violation codes in phase
    1, c in phase 2 and in the dual phase) and compares the nonbasic
    columns to 1e-9 (1 + |d|). Returns a dict counting the checks whose d
    was carried: by primal phase, and by start, "dual" for the dual phase
    and otherwise the start tag that the test sets under "start".
    """
    real_primal, real_dual = ker.ratio_test, ker.dual_ratio_test
    seen = collections.Counter(start="cold")

    def check(f, phase1):
        a_full = np.hstack([f["a_s"].toarray(), np.eye(f["m"])])
        basis, d = f["basis"], f["d"]
        cost = np.zeros(a_full.shape[1]) if phase1 else f["c"]
        cost_b = f["gamma"].astype(float) if phase1 else cost[basis]
        y = np.linalg.solve(a_full[:, basis].T, cost_b)
        fresh = cost - a_full.T @ y
        nonbasic = f["stat"] != simplex_mod.BASIC
        assert np.all(np.abs(d - fresh)[nonbasic]
                      <= 1e-9 * (1.0 + np.abs(fresh[nonbasic])))

    def primal(*args):
        f = sys._getframe(1).f_locals
        check(f, f["phase1"])
        if not f["fresh"]:
            seen["phase1" if f["phase1"] else "phase2"] += 1
            seen[seen["start"]] += 1
        return real_primal(*args)

    def dual(*args):
        f = sys._getframe(1).f_locals
        check(f, False)
        seen["dual"] += f["dual_pivots"] > 0
        return real_dual(*args)

    monkeypatch.setattr(ker, "ratio_test", primal)
    monkeypatch.setattr(ker, "dual_ratio_test", dual)
    return seen


def _solve_random_lps_and_children(seen=None, children=None):
    """Cold solves of 150 random LPs, then a warm solve of a child of each
    optimum, as in the warm-start fuzz above; each solve's exit violation
    is checked. Sets seen["start"] to the kind of each solve before it
    runs, and appends (kind, child model, col_lb, col_ub, parent solution,
    child solution) to children when given. Returns the statuses met."""
    seen = {} if seen is None else seen
    rng = np.random.default_rng(7)
    statuses = set()
    for _trial in range(150):
        obj, a, senses, rhs, lb, ub = _random_lp(rng)
        model = make_model(obj, a, senses, rhs, lb, ub)
        seen["start"] = "cold"
        cold = solve_lp(model)
        _assert_exit_violation(model, cold, lb, ub)
        statuses.add(cold.status)
        if cold.status != "optimal":
            continue
        kind, obj2, lb2, ub2 = _warm_child(rng, cold, obj, lb, ub)
        child = make_model(obj2, a, senses, rhs, lb, ub)
        seen["start"] = kind
        warm = solve_lp(child, col_lb=lb2, col_ub=ub2,
                        warm=(cold.basis, cold.stat))
        _assert_exit_violation(child, warm, lb2, ub2)
        statuses.add(warm.status)
        if children is not None:
            children.append((kind, child, lb2, ub2, cold, warm))
    return statuses


def test_basic_state_carried_across_pivots(checked_ratio_tests):
    statuses = _solve_random_lps_and_children()
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert checked_ratio_tests["calls"] > 500
    assert checked_ratio_tests["infeasible"] > 100, checked_ratio_tests


def test_reduced_costs_carried_across_pivots(checked_reduced_costs):
    # two rows reach their bound in the same phase-1 step: one leaves, the
    # other's violation code turns 0, which changes the phase-1 costs off
    # the pivot row, while the third row keeps phase 1 going
    tie = make_model([1.0, 1.0, 1.0], [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
                     [GE, GE, GE], [2.0, 2.0, 1.0], [0.0] * 3, [10.0] * 3)
    assert solve_lp(tie).status == "optimal"
    _solve_random_lps_and_children(checked_reduced_costs)
    seen = checked_reduced_costs
    assert min(seen[k] for k in ("phase1", "phase2", "cold", "cost",
                                 "dual")) >= 10, seen


def _with_ray(model, col_lb, col_ub, warm, side):
    """The model with one more column, empty and with one infinite bound,
    that starts on its finite bound (0) with a cost of 5e-8 towards the
    infinite one: side "lo" is [0, inf) at cost -5e-8, side "up" (-inf, 0]
    at cost 5e-8. Every basis prices it within the 1e-7 tolerance, yet the
    LP is unbounded below, so no bound on it can be proven. Returns the
    model, its column bounds and the warm start with the column added."""
    n = model.n_cols
    if side == "lo":
        lo, hi, cost, stat_ray = 0.0, np.inf, -5e-8, simplex_mod.NB_LO
    else:
        lo, hi, cost, stat_ray = -np.inf, 0.0, 5e-8, simplex_mod.NB_UP
    ray = make_model(np.append(model.obj, cost),
                     np.hstack([model.a_matrix.toarray(),
                                np.zeros((model.n_rows, 1))]),
                     model.row_sense, model.rhs, np.append(model.col_lb, lo),
                     np.append(model.col_ub, hi))
    basis, stat = warm
    return (ray, np.append(col_lb, lo), np.append(col_ub, hi),
            (np.where(basis >= n, basis + 1, basis),
             np.insert(stat, n, stat_ray)))


def test_cutoff_claims_are_valid_bounds():
    # the bound children of the fuzz above, solved warm with a cutoff: just
    # above the child's optimum none may stop, and the solve must be the
    # one without a cutoff; halfway between the parent's optimum and the
    # child's, a stop must prove a bound in [cutoff, optimum]. The same
    # children with an unbounded column priced within the tolerance
    # (_with_ray) must never stop.
    children = []
    _solve_random_lps_and_children(children=children)
    claims = 0
    for kind, child, lb2, ub2, parent, warm in children:
        if kind == "cost" or warm.status != "optimal":
            continue
        start = (parent.basis, parent.stat)
        cold = solve_lp(child, col_lb=lb2, col_ub=ub2)
        assert cold.status == "optimal"
        tol = 1e-9 * (1.0 + abs(cold.objective))
        cut_above = cold.objective + tol
        cut_between = 0.5 * (parent.objective + cold.objective)
        for cutoff in (cut_above, cut_between):
            got = solve_lp(child, col_lb=lb2, col_ub=ub2, warm=start,
                           cutoff=cutoff)
            if got.status == "cutoff":
                assert cutoff == cut_between
                assert cutoff <= got.objective <= cold.objective + tol
                claims += 1
                for side in ("lo", "up"):
                    ray = _with_ray(child, lb2, ub2, start, side)
                    again = solve_lp(ray[0], col_lb=ray[1], col_ub=ray[2],
                                     warm=ray[3], cutoff=cutoff)
                    assert again.status == "optimal", side
                    assert abs(again.objective - warm.objective) <= tol
                continue
            assert got.status == warm.status
            assert got.objective == warm.objective
            assert np.array_equal(got.x, warm.x)
            assert got.iterations == warm.iterations
    assert claims >= 10, claims


def test_a_carried_factor_is_taken_as_it_is(monkeypatch):
    # a warm start from a solve's own optimum that carries its factor
    # claims on that factor: it factors nothing and derives no array anew
    model, parent = _branched_parent()
    assert parent.factor.blk.k == 1 and parent.factor.a_matrix is \
        model.a_matrix
    ref = solve_lp(model, warm=(parent.basis, parent.stat))
    monkeypatch.setattr(simplex_mod, "splu", None)  # a call would raise
    again = solve_lp(model, warm=(parent.basis, parent.stat, parent.factor))
    same_lp(again, ref)
    assert again.iterations == again.refactors == again.kernel_cols == 0
    for f in dataclasses.fields(parent.factor):
        assert getattr(again.factor, f.name) is \
            getattr(parent.factor, f.name), f.name


def test_a_factor_of_another_matrix_is_not_taken(tiny_solved):
    # the tiny root's factor offered to its up child on a copy of the
    # model's matrix, and on one with a fuel-limit coefficient changed:
    # the child factors afresh and ends as it does from the bare basis
    model = tiny_solved.model
    root = solve_lp(model)
    j = model.var_index.ids[K_XFC][0]
    lb = model.col_lb.copy()
    lb[j] = np.ceil(root.x[j])
    own = solve_lp(model, col_lb=lb,
                   warm=(root.basis, root.stat, root.factor))
    changed = model.a_matrix.copy()
    changed[model.row_names.index("FL0_1_0"), j] *= 1.5
    for a in (model.a_matrix.copy(), changed):
        other = dataclasses.replace(model, a_matrix=a)
        got = solve_lp(other, col_lb=lb,
                       warm=(root.basis, root.stat, root.factor))
        same_lp(got, solve_lp(other, col_lb=lb,
                              warm=(root.basis, root.stat)))
        assert got.status == "optimal" and got.refactors >= 1
        assert got.factor.a_matrix is a and got.factor.at_s is not \
            root.factor.at_s
    # the changed coefficient moves the child's optimum, which the root's
    # factor would have missed
    assert got.objective < own.objective


def test_warm_start_shape_is_checked():
    m = make_model([1.0, 1.0], [[1.0, 1.0]], [GE], [2.0], [0.0, 0.0],
                   [10.0, 10.0])
    s = solve_lp(m)
    with pytest.raises(InvalidParameterError):
        solve_lp(m, warm=(s.basis, s.stat[:-1]))


def _block_basis(a, basis):
    """The split basis of the structurals a (dense) at basis, factored with
    solve_lp's SuperLU settings."""
    blk = simplex_mod._BlockBasis(sparse.csc_matrix(a), basis, a.shape[1])
    if blk.k:
        blk.lu = simplex_mod.splu(blk.b_k, relax=simplex_mod._SPLU_RELAX,
                                  panel_size=simplex_mod._SPLU_PANEL_SIZE)
    return blk


def _check_block_solves(rng, a, basis):
    """ftran and btran through the split basis against dense solves of the
    full basis [A | I][:, basis]; btran both with a right-hand side that is
    nonzero on the slack positions and with one that is zero there."""
    m = a.shape[0]
    dense = np.hstack([a, np.eye(m)])[:, basis]
    blk = _block_basis(a, basis)
    assert blk.k == np.count_nonzero(basis < a.shape[1])
    v = rng.normal(size=m)
    u_zero = rng.normal(size=m)
    u_zero[basis >= a.shape[1]] = 0.0
    for got, want in ((blk.solve(v), np.linalg.solve(dense, v)),
                      (blk.solve_t(v), np.linalg.solve(dense.T, v)),
                      (blk.solve_t(u_zero), np.linalg.solve(dense.T, u_zero))):
        assert (np.linalg.norm(got - want)
                <= 1e-10 * max(np.linalg.norm(want), 1.0))
    return blk.k


def test_block_solves_match_dense_basis():
    # all-slack (k = 0), all-structural (k = m) and mixed bases drawn at
    # random, redrawn until the full basis is well conditioned
    rng = np.random.default_rng(23)
    seen = set()
    for trial in range(90):
        m = int(rng.integers(1, 15))
        n = m + int(rng.integers(0, 8))
        a = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6)
        k = (0, m, int(rng.integers(0, m + 1)))[trial % 3]
        for _draw in range(200):
            basis = np.concatenate([
                rng.choice(n, k, replace=False),
                n + rng.choice(m, m - k, replace=False)])
            rng.shuffle(basis)
            full = np.hstack([a, np.eye(m)])[:, basis]
            if np.linalg.cond(full) < 1e4:
                break
        else:
            continue
        k = _check_block_solves(rng, a, basis)
        seen.add("slack" if k == 0 else "struct" if k == m else "mixed")
    assert seen == {"slack", "struct", "mixed"}


def test_block_solves_at_warm_bases():
    # the final bases of solved random LPs, as warm starts hand them on
    rng = np.random.default_rng(29)
    mixed = 0
    for _trial in range(60):
        obj, a, senses, rhs, lb, ub = _random_lp(rng)
        s = solve_lp(make_model(obj, a, senses, rhs, lb, ub))
        if s.status != "optimal":
            continue
        full = np.hstack([a, np.eye(a.shape[0])])[:, s.basis]
        if np.linalg.cond(full) < 1e4:
            k = _check_block_solves(rng, a, s.basis)
            mixed += 0 < k < a.shape[0]
    assert mixed > 10


def test_singular_warm_basis_raises():
    # columns 0 and 1 are equal, so a basis holding both is singular; so is
    # one holding row 0's slack twice
    m = make_model([1.0, 1.0, 1.0], [[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]],
                   [LE, LE], [4.0, 4.0], [0.0] * 3, [5.0] * 3)
    stat = np.full(5, simplex_mod.NB_LO, dtype=np.int8)
    stat[[0, 1]] = simplex_mod.BASIC
    with pytest.raises(SolverError, match="first structural basic column 0"):
        solve_lp(m, warm=(np.array([0, 1]), stat))
    with pytest.raises(SolverError, match="slack column is basic in two"):
        solve_lp(m, warm=(np.array([3, 3]), stat))


# Scalar loop versions of the simplex kernels: the reference that the
# vectorized numpy kernels in hubplan.milp._kernels must match.

def _ftran_etas_py(etas, eta_piv, n_eta, v):
    for k in range(n_eta):
        r = eta_piv[k]
        w = etas[k]
        vr = v[r] / w[r]
        for i in range(v.shape[0]):
            v[i] -= w[i] * vr
        v[r] = vr
    return v


def _btran_etas_py(etas, eta_piv, n_eta, v):
    for k in range(n_eta - 1, -1, -1):
        r = eta_piv[k]
        w = etas[k]
        s = 0.0
        for i in range(v.shape[0]):
            s += w[i] * v[i]
        v[r] = (v[r] - (s - w[r] * v[r])) / w[r]
    return v


def _basic_state_py(xb, lb_b, ub_b, feas_tol):
    m = xb.shape[0]
    gamma = np.zeros(m, dtype=np.int8)
    max_viol = 0.0
    for i in range(m):
        lo, hi = lb_b[i], ub_b[i]
        if xb[i] < lo:
            viol = (lo - xb[i]) / (1.0 + abs(lo))
            if viol > feas_tol:
                gamma[i] = -1
            if viol > max_viol:
                max_viol = viol
        elif xb[i] > hi:
            viol = (xb[i] - hi) / (1.0 + abs(hi))
            if viol > feas_tol:
                gamma[i] = 1
            if viol > max_viol:
                max_viol = viol
    return gamma, max_viol


def _block_at_py(i, w, xb, lb_b, ub_b, gamma, sigma, pivot_tol):
    """Step at which basic i blocks, and the bound code it lands on.

    Returns (t, code) with t = inf when i never blocks. Infeasible basics
    block at the bound they are returning to, feasible ones at the bound
    they approach.
    """
    rho = -sigma * w[i]
    if rho > pivot_tol:
        if gamma[i] == -1:
            t, code = (lb_b[i] - xb[i]) / rho, 0
        elif gamma[i] == 0 and np.isfinite(ub_b[i]):
            t, code = (ub_b[i] - xb[i]) / rho, 1
        else:
            # above its upper bound and climbing: no bound ahead
            return np.inf, 0
    elif rho < -pivot_tol:
        if gamma[i] == 1:
            t, code = (xb[i] - ub_b[i]) / (-rho), 1
        elif gamma[i] == 0 and np.isfinite(lb_b[i]):
            t, code = (xb[i] - lb_b[i]) / (-rho), 0
        else:
            return np.inf, 0
    else:
        return np.inf, 0
    if t < 0.0:
        t = 0.0
    return t, code


def _ratio_test_py(w, xb, lb_b, ub_b, gamma, sigma, enter_gap, pivot_tol, prio):
    """Smallest step before a bound is hit, and who blocks.

    Returns (t, pos, code): pos is the blocking basis position, POS_FLIP for
    an entering-variable bound flip, or POS_UNBOUNDED; code 0/1 says the
    leaving variable lands on its lower/upper bound. Among blockers tying
    within a relative 1e-10 window the smallest prio wins; a flip is taken
    only when no basic ties.
    """
    m = xb.shape[0]
    t_min = enter_gap
    for i in range(m):
        t, _code = _block_at_py(i, w, xb, lb_b, ub_b, gamma, sigma, pivot_tol)
        if t < t_min:
            t_min = t
    if not np.isfinite(t_min):
        return t_min, POS_UNBOUNDED, 0
    tie = t_min + 1e-10 * (1.0 + t_min)
    best_pos = POS_FLIP
    best_code = 0
    best_prio = np.inf
    for i in range(m):
        t, code = _block_at_py(i, w, xb, lb_b, ub_b, gamma, sigma, pivot_tol)
        if t <= tie and prio[i] < best_prio:
            best_prio = prio[i]
            best_pos = i
            best_code = code
    return t_min, best_pos, best_code


def _dual_ratios_py(alpha, d, dirn, s, pivot_tol):
    """Dual ratio max(dirn d, 0) / |alpha| of each column; inf unless
    |alpha| exceeds pivot_tol and s dirn alpha > 0."""
    out = []
    for j in range(alpha.shape[0]):
        if abs(alpha[j]) <= pivot_tol or s * dirn[j] * alpha[j] <= 0.0:
            out.append(np.inf)
        else:
            out.append(max(dirn[j] * d[j], 0.0) / abs(alpha[j]))
    return out


def _dual_ratio_test_py(alpha, d, dirn, s, pivot_tol):
    """Entering column of a dual simplex pivot, and its dual step.

    Returns (q, t): the column with the smallest finite dual ratio, ties
    within a relative 1e-10 window going to the largest |alpha|, then the
    lowest index; (-1, inf) when no ratio is finite.
    """
    ratios = _dual_ratios_py(alpha, d, dirn, s, pivot_tol)
    t_min = min(ratios, default=np.inf)
    if not np.isfinite(t_min):
        return -1, np.inf
    tie = t_min + 1e-10 * (1.0 + t_min)
    best, best_mag = -1, -1.0
    for j, t in enumerate(ratios):
        if t <= tie and abs(alpha[j]) > best_mag:
            best, best_mag = j, abs(alpha[j])
    return best, t_min


def _entering_py(d, dirn, weight, opt_tol, bland):
    """Entering column of a primal pivot: among the eligible columns
    (dirn d < -opt_tol), the lowest index under Bland's rule, else the one
    with the smallest weight dirn d, the lowest index on ties; -1 when none
    is eligible."""
    best, best_score = -1, np.inf
    for j in range(d.shape[0]):
        if not dirn[j] * d[j] < -opt_tol:
            continue
        if bland:
            return j
        score = weight[j] * dirn[j] * d[j]
        if score < best_score:
            best, best_score = j, score
    return best


def test_spmv_is_scipys_product_bit_for_bit():
    # spmv calls scipy's private compiled kernels; a change there must fail
    # here, not move a pivot. Random CSR and CSC matrices, CSR views of
    # CSC transposes as _BlockBasis builds them, with empty rows and
    # columns, 32- and 64-bit indices, and no rows or columns at all
    rng = np.random.default_rng(3)
    mats = []
    for m, n in ((1, 1), (7, 5), (40, 90), (200, 60), (0, 4), (5, 0)):
        a = sparse.random(m, n, density=0.15, random_state=rng, format="csc")
        a = a.tolil()
        if m > 2 and n > 2:
            a[m // 2, :] = 0.0  # an empty row
            a[:, n // 3] = 0.0  # an empty column
        a = a.tocsc()
        a.data *= rng.uniform(-1e3, 1e3, a.data.size)
        wide = a.copy()
        wide.indices = wide.indices.astype(np.int64)
        wide.indptr = wide.indptr.astype(np.int64)
        mats += [a, a.tocsr(), a.T, wide, wide.T]
    for a in mats:
        x = rng.standard_normal(a.shape[1]) * 10.0 ** rng.integers(-8, 8)
        got = ker.spmv(a, x)
        want = a @ x
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (a.format, a.shape)


def test_dual_ratio_test_matches_scalar_reference():
    piv_tol = 1e-9
    seen = dict(tie=0, ray=0, zero=0)
    for trial in range(300):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(1, 12))
        dirn = rng.choice([-1.0, 0.0, 1.0], size=n)
        # dual feasible reduced costs, a few slightly infeasible, some 0
        d = dirn * rng.uniform(0, 2, n) * (rng.random(n) < 0.8)
        d[rng.random(n) < 0.1] *= -1e-8
        # basics and fixed columns (dirn 0) with a tiny nonzero d never enter
        off = np.flatnonzero((dirn == 0) & (rng.random(n) < 0.3))
        d[off] = rng.normal(size=off.size) * 1e-8
        alpha = rng.normal(size=n) * (rng.random(n) < 0.7)
        alpha[rng.random(n) < 0.1] = 1e-11  # below the pivot tolerance
        if n >= 2 and rng.random() < 0.4:  # a tie: a copied column
            i, j = rng.choice(n, 2, replace=False)
            for arr in (alpha, d, dirn):
                arr[j] = arr[i]
            if rng.random() < 0.5:  # same ratio, larger |alpha|
                alpha[j] *= 2.0
                d[j] *= 2.0
        s = float(rng.choice([-1.0, 1.0]))
        want = _dual_ratio_test_py(alpha, d, dirn, s, piv_tol)
        got = ker.dual_ratio_test(alpha, d, dirn, s, piv_tol)
        assert (int(got[0]), float(got[1])) == (int(want[0]),
                                                float(want[1])), trial
        q, t = want
        seen["ray"] += q < 0
        seen["zero"] += q >= 0 and t == 0.0
        if q >= 0:
            ratios = _dual_ratios_py(alpha, d, dirn, s, piv_tol)
            seen["tie"] += sum(r <= t + 1e-10 * (1 + t) for r in ratios) >= 2
    assert min(seen.values()) >= 10, seen


def test_entering_matches_scalar_reference():
    opt_tol = 1e-7
    seen = dict(none=0, masked=0, tie=0, bland=0)
    for trial in range(400):
        rng = np.random.default_rng(2000 + trial)
        n = int(rng.integers(1, 12))
        dirn = rng.choice([-1.0, 0.0, 1.0], size=n)
        # reduced costs from clearly priced to within the tolerance, and
        # weights down to those of very long columns
        d = rng.normal(size=n) * 10.0 ** rng.uniform(-9, 1, n)
        weight = 10.0 ** rng.uniform(-6, 0, n)
        weight[rng.random(n) < 0.2] = 2.0 ** -0.5  # slacks
        if rng.random() < 0.3:  # a short column just inside the tolerance
            j = rng.integers(n)
            dirn[j], d[j], weight[j] = 1.0, -0.9 * opt_tol, 1.0
        if n >= 2 and rng.random() < 0.5:  # a tie: a copied column
            i, j = rng.choice(n, 2, replace=False)
            for arr in (d, dirn, weight):
                arr[j] = arr[i]
        bland = rng.random() < 0.2
        want = _entering_py(d, dirn, weight, opt_tol, bland)
        score = np.full(n, np.nan)
        got = ker.entering(d, dirn, dirn * weight, score, opt_tol, bland)
        assert got == want, trial
        seen["none"] += want < 0
        seen["bland"] += bland and want >= 0
        if want >= 0 and not bland:
            weighted = weight * dirn * d
            k = weighted.argmin()  # the weighted minimum, eligible or not
            seen["masked"] += not dirn[k] * d[k] < -opt_tol
            elig = dirn * d < -opt_tol
            seen["tie"] += np.sum(elig & (weighted == weighted[want])) >= 2
    assert min(seen.values()) >= 10, seen


def test_long_column_with_a_small_reduced_cost_blocks_the_claim():
    # C0's column is long (weight about 1e-4), so its weighted score
    # -1e-10 is above the tolerance, and C1's -9e-8 is the weighted minimum
    # but not eligible; C0's reduced cost -1e-6 still prices it in
    m = make_model([-1e-6, -9e-8], [[1e4, 0.0]], [LE], [1e4], [0.0, 0.0],
                   [np.inf, 1.0])
    s = solve_lp(m)
    assert s.status == "optimal" and s.iterations == 1
    assert s.x.tolist() == [1.0, 0.0]
    assert s.objective == -1e-6


def _random_basics(rng, m):
    """Basic values and bounds with infinite bounds and some basics outside
    their box, a few of them by less than the feasibility tolerance."""
    xb = rng.normal(size=m) * 3
    lb = xb - rng.uniform(0, 2, m)
    ub = xb + rng.uniform(0, 2, m)
    lb[rng.random(m) < 0.2] = -np.inf
    ub[rng.random(m) < 0.2] = np.inf
    for i in np.flatnonzero(rng.random(m) < 0.3):
        below = np.isfinite(lb[i]) and rng.random() < 0.5
        bound = lb[i] if below else ub[i]
        if np.isfinite(bound):
            step = rng.choice([1e-9, rng.uniform(0.1, 2)]) * (1 + abs(bound))
            xb[i] = bound - step if below else bound + step
    return xb, lb, ub


def test_kernels_match_scalar_reference():
    # the numpy kernels select the same pivots as the scalar loops above
    piv_tol = 1e-9
    seen = dict(gamma=0, tie=0, flip=0, unbounded=0, basic=0, dropped=0)
    for trial in range(300):
        rng = np.random.default_rng(trial)
        m = int(rng.integers(1, 10))
        xb, lb, ub = _random_basics(rng, m)
        g_loop, v_loop = _basic_state_py(xb, lb, ub, 1e-7)
        gamma, viol = ker.basic_state(xb, lb, ub, 1e-7)
        assert gamma.dtype == g_loop.dtype, trial
        assert np.array_equal(gamma, g_loop) and viol == v_loop, trial
        seen["gamma"] += bool(np.any(gamma))

        w = rng.normal(size=m)
        w[rng.random(m) < 0.2] = 0.0
        w[rng.random(m) < 0.1] = 1e-11  # below the pivot tolerance
        if rng.random() < 0.1:
            w[:] = 0.0  # no basic blocks; unbounded if the gap is infinite
        sigma = float(rng.choice([-1.0, 1.0]))

        def steps():
            return np.array([_block_at_py(i, w, xb, lb, ub, gamma, sigma,
                                          piv_tol)[0] for i in range(m)])

        if m >= 2 and rng.random() < 0.5:  # an exact tie: a copied row
            i, j = rng.choice(m, 2, replace=False)
            for arr in (w, xb, lb, ub, gamma):
                arr[j] = arr[i]
        t = steps()
        if np.isfinite(t).sum() >= 2 and rng.random() < 0.5:
            # row j blocks just inside or just outside the 1e-10 window of i
            i, j = rng.choice(np.flatnonzero(np.isfinite(t)), 2, replace=False)
            tj = t[i] * (1 + rng.choice([3e-11, -3e-11, 3e-9]))
            rho = -sigma * w[j]
            if gamma[j] == -1 or (gamma[j] == 0 and rho < 0):
                xb[j] = lb[j] - tj * rho
            else:
                xb[j] = ub[j] - tj * rho
            t = steps()
        r = rng.random()
        if r < 0.3:
            gap = np.inf
        elif r < 0.6:
            gap = float(rng.uniform(0, 2))
        elif r < 0.8 or not np.isfinite(t).any():
            gap = 0.0
        else:
            gap = float(np.min(t))  # the entering bound ties a basic

        # solve_lp passes only the rows with |w| above the pivot tolerance
        # (the kernel's precondition) and maps the blocking position back;
        # the rows it drops never block
        rows = np.flatnonzero(np.abs(w) > piv_tol)
        seen["dropped"] += rows.size < m
        # Bland's priorities (basis column ids) and Dantzig's (-|w|)
        for prio in (rng.permutation(m).astype(np.float64), -np.abs(w)):
            sub = (w[rows], xb[rows], lb[rows], ub[rows], gamma[rows], sigma,
                   gap)
            want = _ratio_test_py(*sub, piv_tol, prio[rows])
            pos = int(want[1])
            want = (float(want[0]), int(rows[pos]) if pos >= 0 else pos,
                    int(want[2]))
            full = _ratio_test_py(w, xb, lb, ub, gamma, sigma, gap, piv_tol,
                                  prio)
            assert (float(full[0]), int(full[1]), int(full[2])) == want, trial
            t_sub, pos, code = ker.ratio_test(*sub, prio[rows])
            if pos >= 0:
                pos = rows[pos]
            assert (float(t_sub), int(pos), int(code)) == want, trial
        t_min = min(float(np.min(t)), gap)
        if np.isfinite(t_min):
            window = t_min + 1e-10 * (1.0 + t_min)
            seen["tie"] += int(np.sum(t <= window)) + (gap <= window) >= 2
        pos = int(want[1])
        seen["flip"] += pos == POS_FLIP
        seen["unbounded"] += pos == POS_UNBOUNDED
        seen["basic"] += pos >= 0
    assert min(seen.values()) >= 10, seen

    # the block eta kernels against the per-eta loops, on files built
    # through push_eta as solve_lp builds them
    n_full = n_repeat = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        m = int(rng.integers(1, 12))
        n_eta = 50 if rng.random() < 0.1 else int(rng.integers(0, 50))
        eta_piv = rng.integers(0, m, size=50)
        cols = np.full((50, m), np.nan)  # the ftran'ed columns, for the loops
        # entries past n_eta, and above the diagonal of tri, stay unread
        etas = np.full((50, m), np.nan)
        tri = np.full((50, 50), np.nan)
        for k in range(n_eta):
            w = rng.normal(size=m) * (rng.random(m) < 0.4)
            w[eta_piv[k]] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2)
            cols[k] = w
            ker.push_eta(etas, tri, eta_piv, k, w, eta_piv[k])
        n_full += n_eta == 50
        n_repeat += np.unique(eta_piv[:n_eta]).size < n_eta
        v = rng.normal(size=m)
        # the block forms sum in another order than the loops
        for kernel, loop in ((ker.ftran_etas, _ftran_etas_py),
                             (ker.btran_etas, _btran_etas_py)):
            got = kernel(etas, tri, eta_piv, n_eta, v.copy())
            want = loop(cols, eta_piv, n_eta, v.copy())
            assert (np.linalg.norm(got - want)
                    <= 1e-10 * np.linalg.norm(want)), (trial, kernel.__name__)
        # the unit-row btran reads column r of etas in place of the product
        r = int(rng.integers(m))
        e_r = np.zeros(m)
        e_r[r] = 1.0
        got = ker.btran_etas(etas, tri, eta_piv, n_eta, e_r.copy(), r)
        want = _btran_etas_py(cols, eta_piv, n_eta, e_r.copy())
        assert (np.linalg.norm(got - want)
                <= 1e-10 * np.linalg.norm(want)), trial
    assert n_full >= 1 and n_repeat >= 10, (n_full, n_repeat)


def test_bland_rule_reaches_the_same_optimum(tiny_solved, monkeypatch):
    # after one degenerate pivot the primal switches to Bland's rule; the
    # tiny root LP must still end at the default rule's optimum
    model = tiny_solved.model
    ref = solve_lp(model)
    monkeypatch.setattr(simplex_mod, "_BLAND_AFTER", 1)
    s = solve_lp(model)
    assert s.status == "optimal" and s.bland_pivots > 0
    assert abs(s.objective - ref.objective) \
        <= 1e-9 * max(1.0, abs(ref.objective))
