"""Bounded-variable primal simplex against closed forms and linprog."""
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

import hubplan
from conftest import make_model
from hubplan.errors import InvalidParameterError
from hubplan.milp import _kernels as ker
from hubplan.milp import solve_lp
from hubplan.model import EQ, GE, LE


def test_single_bound_optimum():
    m = make_model([-1.0], [[1.0]], [LE], [5.0], [0.0], [3.0])
    s = solve_lp(m)
    assert s.status == "optimal"
    assert abs(s.objective + 3.0) < 1e-9 and abs(s.x[0] - 3.0) < 1e-9


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


def _child_pythonpath(here):
    """PYTHONPATH for a child interpreter that imports the hubplan under test.

    Absolute entries only, so the child finds conftest (in `here`) and the
    same hubplan whatever its working directory: a relative inherited entry
    such as PYTHONPATH=src names a different directory once cwd changes.
    """
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(hubplan.__file__)))
    inherited = [os.path.abspath(p)
                 for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return os.pathsep.join([here, pkg_root] + inherited)


def test_pure_numpy_backend_matches():
    # the env switch is read at import time, so compare across processes;
    # without numba both children run numpy, and the first line says so
    code = (
        "import numpy as np\n"
        "from conftest import make_model\n"
        "from hubplan.milp import _kernels, solve_lp\n"
        "from hubplan.model import LE, GE, EQ\n"
        "print(_kernels.USE_NUMBA)\n"
        "rng = np.random.default_rng(123)\n"
        "out = []\n"
        "for _ in range(20):\n"
        "    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))\n"
        "    a = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6)\n"
        "    obj = rng.normal(size=n)\n"
        "    senses = rng.integers(0, 3, size=m)\n"
        "    rhs = a @ rng.uniform(0, 1, n) + rng.normal(size=m) * 0.3\n"
        "    s = solve_lp(make_model(obj, a, senses, rhs,\n"
        "                            np.zeros(n), np.full(n, 5.0)))\n"
        "    out.append(s.status + ':' + ('%.12e' % s.objective\n"
        "               if s.status == 'optimal' else '-'))\n"
        "print('\\n'.join(out))\n")
    here = os.path.dirname(os.path.abspath(__file__))
    outs = []
    for pure, use_numba in (("0", ker.HAS_NUMBA), ("1", False)):
        env = dict(os.environ, HUBPLAN_PURE_NUMPY=pure,
                   PYTHONPATH=_child_pythonpath(here))
        r = subprocess.run([sys.executable, "-c", code], cwd=here, env=env,
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        flag, rest = r.stdout.split("\n", 1)
        assert flag == str(use_numba), (pure, flag)
        outs.append(rest)
    assert outs[0] == outs[1]


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


def test_loop_kernels_match_active_kernels():
    # the loops are what numba compiles; without numba the active kernels
    # are the numpy ones, so this keeps "identical pivots" checked in-process
    piv_tol = 1e-9
    seen = dict(gamma=0, tie=0, flip=0, unbounded=0, basic=0)
    for trial in range(300):
        rng = np.random.default_rng(trial)
        m = int(rng.integers(1, 10))
        xb, lb, ub = _random_basics(rng, m)
        g_loop, v_loop = ker._basic_state_py(xb, lb, ub, 1e-7)
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
            return np.array([ker._block_at_py(i, w, xb, lb, ub, gamma, sigma,
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
            want = ker._ratio_test_py(w, xb, lb, ub, gamma, sigma, gap,
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
        seen["flip"] += pos == ker.POS_FLIP
        seen["unbounded"] += pos == ker.POS_UNBOUNDED
        seen["basic"] += pos >= 0
    assert min(seen.values()) >= 10, seen

    for trial in range(100):
        rng = np.random.default_rng(trial)
        m, n_eta = int(rng.integers(1, 12)), int(rng.integers(0, 8))
        etas = np.full((8, m), np.nan)  # rows past n_eta must stay unread
        eta_piv = rng.integers(0, m, size=8)
        etas[:n_eta] = rng.normal(size=(n_eta, m))
        etas[np.arange(n_eta), eta_piv[:n_eta]] = (
            rng.choice([-1.0, 1.0], n_eta) * rng.uniform(0.5, 2, n_eta))
        v = rng.normal(size=m)
        assert np.array_equal(ker.ftran_etas(etas, eta_piv, n_eta, v.copy()),
                              ker._ftran_etas_py(etas, eta_piv, n_eta,
                                                 v.copy())), trial
        # a sequential sum and w @ v add in different orders
        np.testing.assert_allclose(
            ker.btran_etas(etas, eta_piv, n_eta, v.copy()),
            ker._btran_etas_py(etas, eta_piv, n_eta, v.copy()),
            rtol=1e-12, atol=0, err_msg=str(trial))
