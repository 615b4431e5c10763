"""Bounded-variable primal simplex against closed forms and linprog."""
import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import make_model
from hubplan.errors import InvalidParameterError
from hubplan.milp import _kernels as ker
from hubplan.milp import solve_lp
from hubplan.milp._kernels import POS_FLIP, POS_UNBOUNDED
from hubplan.model import EQ, GE, LE


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
    m = make_model([1.0], [[1.0]], [GE], [-4.0], [-np.inf], [np.inf])
    s = solve_lp(m)
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
    infinite bounds; most draws are solvable."""
    m = int(rng.integers(1, 12))
    n = int(rng.integers(1, 12))
    dens = rng.uniform(0.3, 1.0)
    a = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < dens)
    obj = rng.normal(size=n)
    senses = rng.integers(0, 3, size=m)
    lb = np.where(rng.random(n) < 0.15, -np.inf, rng.uniform(-5, 0, n))
    ub = np.where(rng.random(n) < 0.15, np.inf, rng.uniform(0.5, 6, n))
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


def test_warm_start_after_bound_change_matches_cold():
    # a branch-and-bound child (one bound tightened past the parent's
    # value) or a sweep level (new costs), solved warm and cold
    rng = np.random.default_rng(11)
    seen = {"bound:optimal": 0, "bound:infeasible": 0, "cost:optimal": 0}
    for trial in range(300):
        obj, a, senses, rhs, lb, ub = _random_lp(rng)
        parent = solve_lp(make_model(obj, a, senses, rhs, lb, ub))
        if parent.status != "optimal":
            continue
        basis, stat = parent.basis.copy(), parent.stat.copy()
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
            # new costs leave the parent's basis primal feasible
            assert warm.phase1_pivots == 0, trial
        # children share the parent's arrays, so a warm solve must not
        # write them
        assert np.array_equal(parent.basis, basis)
        assert np.array_equal(parent.stat, stat)
        key = f"{'cost' if kind == 'cost' else 'bound'}:{cold.status}"
        seen[key] = seen.get(key, 0) + 1
    assert min(seen[k] for k in ("bound:optimal", "bound:infeasible",
                                 "cost:optimal")) >= 15, seen


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


def test_warm_start_shape_is_checked():
    m = make_model([1.0, 1.0], [[1.0, 1.0]], [GE], [2.0], [0.0, 0.0],
                   [10.0, 10.0])
    s = solve_lp(m)
    with pytest.raises(InvalidParameterError):
        solve_lp(m, warm=(s.basis, s.stat[:-1]))


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
    seen = dict(gamma=0, tie=0, flip=0, unbounded=0, basic=0)
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

        for prio in (rng.permutation(m).astype(np.float64), -np.abs(w)):
            want = _ratio_test_py(w, xb, lb, ub, gamma, sigma, gap,
                                  piv_tol, prio)
            got = ker.ratio_test(w, xb, lb, ub, gamma, sigma, gap, piv_tol,
                                 prio)
            assert ((float(got[0]), int(got[1]), int(got[2]))
                    == (float(want[0]), int(want[1]), int(want[2]))), trial
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
    assert n_full >= 1 and n_repeat >= 10, (n_full, n_repeat)
