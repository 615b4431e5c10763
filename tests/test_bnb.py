"""Branch and bound: small closed forms, limits, and a fuzz run vs milp."""
import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import hubplan.milp.bnb as bnb_mod
from conftest import make_model
from hubplan.errors import InvalidParameterError
from hubplan.milp import branch_and_bound, solve_lp
from hubplan.model import (BINARY, CONT, EQ, GE, INTEGER, LE, ModelConfig,
                           assemble_model)


def test_binary_knapsack():
    m = make_model([-1, -1], [[1, 1]], [LE], [1.5], [0, 0], [1, 1],
                   [BINARY, BINARY])
    s = branch_and_bound(m)
    assert s.status == "optimal" and abs(s.objective + 1.0) < 1e-9
    assert sorted(np.round(s.x)) == [0.0, 1.0]


def test_all_continuous_equals_lp():
    m = make_model([2.0, 3.0], [[1, 1], [1, -1]], [EQ, LE], [4.0, 1.0],
                   [0, 0], [5, 5], [CONT, CONT])
    s = branch_and_bound(m)
    lp = solve_lp(m)
    assert s.status == "optimal"
    assert s.objective == lp.objective and s.n_nodes == 1


def test_integer_ceiling():
    # cover 5 kW demand with 4.2 kW units
    m = make_model([1.0], [[4.2]], [GE], [5.0], [0], [10], [INTEGER])
    s = branch_and_bound(m)
    assert s.status == "optimal" and abs(s.x[0] - 2.0) < 1e-9


def test_integer_infeasible_window():
    m = make_model([1.0], [[1.0]], [LE], [9.0], [0.4], [0.6], [INTEGER])
    assert branch_and_bound(m).status == "infeasible"


def test_lp_infeasible_propagates():
    m = make_model([1.0], [[1.0], [1.0]], [LE, GE], [1.0, 3.0], [0.0],
                   [10.0], [INTEGER])
    assert branch_and_bound(m).status == "infeasible"


def test_deterministic_replay():
    m = make_model([-1, -1], [[1, 1]], [LE], [1.5], [0, 0], [1, 1],
                   [BINARY, BINARY])
    a = branch_and_bound(m)
    b = branch_and_bound(m)
    assert a.n_nodes == b.n_nodes
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x)


def test_node_limit_reports_bound():
    rng = np.random.default_rng(0)
    n = 14
    a = rng.normal(size=(8, n))
    m = make_model(rng.normal(size=n), a, [LE] * 8,
                   a @ rng.uniform(0, 1, n), np.zeros(n), np.full(n, 3.0),
                   [INTEGER] * n)
    s = branch_and_bound(m, max_nodes=2)
    assert s.status in ("node_limit", "optimal", "infeasible")
    if s.status == "node_limit":
        assert s.n_nodes <= 3  # the node in flight finishes counting
        assert np.isfinite(s.best_bound)


def test_incumbent_bounds_the_bound():
    m = make_model([1.0], [[4.2]], [GE], [5.0], [0], [10], [INTEGER])
    s = branch_and_bound(m)
    assert s.best_bound <= s.objective + 1e-9
    assert s.gap <= 1e-6


def test_fuzz_against_scipy_milp():
    rng = np.random.default_rng(42)
    agree = 0
    for trial in range(120):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 10))
        a = np.round(rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6), 2)
        obj = np.round(rng.normal(size=n), 2)
        senses = rng.integers(0, 3, size=m)
        lb = np.zeros(n)
        ub = rng.choice([1.0, 3.0, 6.0], n)
        kinds = rng.choice([CONT, INTEGER, BINARY], n, p=[0.3, 0.4, 0.3])
        ub[kinds == BINARY] = 1.0
        rhs = np.round(a @ rng.uniform(0, 1, n) + rng.normal(size=m) * 0.4, 2)

        mod = make_model(obj, a, senses, rhs, lb, ub, kinds)
        mine = branch_and_bound(mod, max_nodes=20000)

        lo = np.where(senses == LE, -np.inf, rhs)
        hi = np.where(senses == GE, np.inf, rhs)
        ref = milp(obj, constraints=LinearConstraint(a, lo, hi),
                   bounds=Bounds(lb, ub),
                   integrality=(kinds != CONT).astype(int))
        if ref.status == 0:
            assert mine.status == "optimal", (trial, mine.status)
            assert abs(mine.objective - ref.fun) <= 1e-6 * (1 + abs(ref.fun)), \
                (trial, mine.objective, ref.fun)
            assert mine.best_bound <= mine.objective + 1e-6 * (
                1 + abs(mine.objective))
            agree += 1
        elif ref.status == 2:
            assert mine.status == "infeasible", (trial, mine.status)
    assert agree > 30


def _solve_recording(monkeypatch, model):
    """branch_and_bound(model), and the (warm, LpSolution) of each LP it
    solved in solve order: root, dive steps, nodes."""
    calls = []
    real = bnb_mod.solve_lp

    def recording(*args, warm=None, **kwargs):
        lp = real(*args, warm=warm, **kwargs)
        calls.append((warm, lp))
        return lp

    with monkeypatch.context() as mp:
        mp.setattr(bnb_mod, "solve_lp", recording)
        s = branch_and_bound(model)
    assert len(calls) == 1 + s.dive_lps + s.node_lps
    return s, calls


def test_warm_started_lps_cost_less_than_the_root(tiny_solved, monkeypatch):
    # the tiny hub case branches once: root, dive and two node LPs
    s, calls = _solve_recording(monkeypatch, tiny_solved.model)
    assert s.objective == tiny_solved.sol.objective
    assert s.n_nodes > 1 and s.node_lps == s.n_nodes - 1 and s.dive_lps > 0
    pivots = [lp.iterations for _w, lp in calls]
    assert s.root_pivots == pivots[0]
    assert sum(pivots) == s.root_pivots + s.dive_pivots + s.node_pivots
    assert s.node_pivots < s.root_pivots
    assert s.dive_pivots < s.root_pivots


def test_lp_counters_sum_over_every_lp(tiny_solved, monkeypatch):
    s, calls = _solve_recording(monkeypatch, tiny_solved.model)
    lps = [lp for _w, lp in calls]
    for lp in lps:
        assert 0 <= lp.phase1_pivots <= lp.iterations
        assert 0 <= lp.dual_pivots <= lp.iterations - lp.phase1_pivots
        assert 0 <= lp.degenerate_pivots <= lp.iterations
        assert 0 <= lp.bland_pivots <= lp.iterations
        assert lp.priced >= 1
        assert lp.refactors >= 1
        # each factored block is 1 to n_rows structural columns
        assert (lp.refactors <= lp.kernel_cols
                <= lp.refactors * tiny_solved.model.n_rows)
    for key in bnb_mod.LP_COUNTERS:
        assert getattr(s, key) == sum(getattr(lp, key) for lp in lps), key
        assert s.lp_counters()[key] == getattr(s, key)
    # the cold root walks out of an infeasible slack basis first; warm node
    # and dive LPs are reoptimized by the dual phase
    assert lps[0].phase1_pivots > 0 and lps[0].dual_pivots == 0
    assert s.dual_pivots > 0


@pytest.mark.parametrize("limits", [
    {"rel_gap": -1.0}, {"rel_gap": float("nan")}, {"max_nodes": 0},
    {"time_limit_s": 0.0}, {"time_limit_s": -5.0}])
def test_bad_limits_are_rejected(limits):
    m = make_model([-1, -1], [[1, 1]], [LE], [1.5], [0, 0], [1, 1],
                   [BINARY, BINARY])
    with pytest.raises(InvalidParameterError):
        branch_and_bound(m, **limits)


def test_each_lp_starts_from_its_parent_basis(tiny, monkeypatch):
    # binary exclusivity gives an eight-LP dive and a tree of about 60 nodes
    for mode in ("relaxed", "binary"):
        model = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs,
                               tiny.scen, ModelConfig(zeta=0.0,
                                                      exclusivity_mode=mode))
        s, calls = _solve_recording(monkeypatch, model)
        # the root starts cold, a dive step from the last optimal LP before
        # it, a node from an earlier optimal LP (its parent)
        assert calls[0][0] is None
        solved = [calls[0][1]]
        for k, (warm, lp) in enumerate(calls[1:], start=1):
            if k <= s.dive_lps:
                assert warm[0] is solved[-1].basis, (mode, k)
            else:
                assert any(warm[0] is p.basis for p in solved), (mode, k)
            if lp.status == "optimal":
                solved.append(lp)


def test_root_warm_start_skips_the_root_pivots(tiny_solved):
    s = tiny_solved.sol
    again = branch_and_bound(tiny_solved.model, warm=s.root_warm)
    assert again.root_pivots == 0 < s.root_pivots
    assert again.objective == s.objective and again.n_nodes == s.n_nodes


def test_tree_counters(tiny, monkeypatch):
    # relaxed exclusivity branches once; binary builds a tree of about 60
    # nodes, a third of them infeasible, and improves on the dive's incumbent
    for mode in ("relaxed", "binary"):
        model = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs,
                               tiny.scen, ModelConfig(zeta=0.0,
                                                      exclusivity_mode=mode))
        s, calls = _solve_recording(monkeypatch, model)
        assert s.n_nodes > 1 and s.max_depth >= 1, mode
        # no node sits deeper than the number of nodes after the root
        assert s.max_depth <= s.node_lps, mode
        node_lps = [lp for _w, lp in calls[1 + s.dive_lps:]]
        assert s.infeasible_nodes == sum(lp.status == "infeasible"
                                         for lp in node_lps), mode
        assert 0 <= s.infeasible_nodes <= s.node_lps, mode
        assert s.incumbents and s.incumbents[-1] == s.objective, mode
        assert all(a > b for a, b in zip(s.incumbents, s.incumbents[1:])), \
            mode
        counters = s.lp_counters()
        for key in ("max_depth", "infeasible_nodes", "incumbents",
                    "node_log"):
            assert counters[key] == getattr(s, key), (mode, key)
        # one node_log entry per node LP, in the order solved
        log = s.node_log
        assert len(log) == s.node_lps, mode
        assert [e["pivots"] for e in log] == [lp.iterations
                                              for lp in node_lps], mode
        assert [e["dual_pivots"] for e in log] == [lp.dual_pivots
                                                   for lp in node_lps], mode
        assert sum(e["pivots"] for e in log) == s.node_pivots, mode
        assert sum(e["status"] == "infeasible"
                   for e in log) == s.infeasible_nodes, mode
        assert max(e["depth"] for e in log) == s.max_depth, mode
        # a child's bound is its parent's LP objective: never above its own
        for e, lp in zip(log, node_lps):
            if lp.status == "optimal":
                assert e["bound"] <= lp.objective + 1e-9 * (
                    1 + abs(lp.objective)), mode
        # the flagged nodes gave the incumbents after the dive's
        found = [lp.objective for e, lp in zip(log, node_lps)
                 if e["incumbent"]]
        assert len(found) in (len(s.incumbents), len(s.incumbents) - 1), \
            mode
        assert found == s.incumbents[len(s.incumbents) - len(found):], mode


def test_tree_counters_without_branching():
    s = branch_and_bound(make_model([-1.0], [[1.0]], [LE], [3.0], [0], [5],
                                    [INTEGER]))
    assert s.status == "optimal" and s.n_nodes == 1
    assert (s.max_depth, s.infeasible_nodes) == (0, 0)
    assert s.incumbents == [s.objective]
