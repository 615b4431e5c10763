"""Branch and bound: small closed forms, limits, and a fuzz run vs milp."""
import dataclasses
import gc
import os
import weakref

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import hubplan.milp.bnb as bnb_mod
from conftest import make_model, same_lp, with_exclusivity_flags
from hubplan.errors import InvalidParameterError, SolverError
from hubplan.fileio import read_case, read_scenario_set
from hubplan.milp import VerifyReport, branch_and_bound, solve_lp
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
    s = branch_and_bound(m)
    assert s.status == "infeasible"
    # the rows the root LP's phase 1 left violated, as solve_lp names them
    assert s.infeasible_rows == solve_lp(m).infeasible_rows != []


def test_time_limit_stops_before_the_first_node_lp(tiny_solved):
    # the root LP runs to its end; the limit has passed before the
    # plunge's first node LP, so no incumbent exists
    assert tiny_solved.sol.node_lps > 0
    s = branch_and_bound(tiny_solved.model, time_limit_s=1e-9)
    assert s.status == "time_limit" and s.x is None
    assert (s.n_nodes, s.node_lps, s.node_pivots) == (1, 0, 0)
    assert s.incumbents == [] and s.gap == np.inf
    assert s.root_pivots == tiny_solved.sol.root_pivots
    assert s.best_bound == pytest.approx(tiny_solved.sol.node_log[0]["bound"])


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


def _solve_recording(monkeypatch, model, bounds=None):
    """branch_and_bound(model), and the (warm, LpSolution) of each LP it
    solved in solve order: the root, then the nodes. When bounds is a
    list, each LP's (col_lb, col_ub) is appended to it."""
    calls = []
    real = bnb_mod.solve_lp

    def recording(*args, warm=None, **kwargs):
        lp = real(*args, warm=warm, **kwargs)
        calls.append((warm, lp))
        if bounds is not None:
            bounds.append((kwargs["col_lb"], kwargs["col_ub"]))
        return lp

    with monkeypatch.context() as mp:
        mp.setattr(bnb_mod, "solve_lp", recording)
        s = branch_and_bound(model)
    assert len(calls) == 1 + s.node_lps
    return s, calls


def test_warm_started_lps_cost_less_than_the_root(tiny_solved, monkeypatch):
    # the tiny hub case branches once: the root and two node LPs
    s, calls = _solve_recording(monkeypatch, tiny_solved.model)
    assert s.objective == tiny_solved.sol.objective
    assert s.n_nodes > 1 and s.node_lps == s.n_nodes - 1
    pivots = [lp.iterations for _w, lp in calls]
    assert s.root_pivots == pivots[0]
    assert sum(pivots) == s.root_pivots + s.node_pivots
    assert s.node_pivots < s.root_pivots


def test_lp_counters_sum_over_every_lp(tiny_solved, monkeypatch):
    s, calls = _solve_recording(monkeypatch, tiny_solved.model)
    lps = [lp for _w, lp in calls]
    # the cold root factors its start basis; a node LP counts only the
    # factorizations it made, as it starts on its parent's factor: none
    # when it claims without a pivot, at least one when it claims after
    # one (a claim needs a clean factor)
    assert lps[0].refactors >= 1
    for lp in lps:
        assert 0 <= lp.phase1_pivots <= lp.iterations
        assert 0 <= lp.dual_pivots <= lp.iterations - lp.phase1_pivots
        assert 0 <= lp.degenerate_pivots <= lp.iterations
        assert 0 <= lp.bland_pivots <= lp.iterations
        assert lp.priced >= 1
        claimed = lp.status in ("optimal", "infeasible")
        assert lp.refactors >= (claimed and lp.iterations > 0)
        # each factored block is 1 to n_rows structural columns
        assert (lp.refactors <= lp.kernel_cols
                <= lp.refactors * tiny_solved.model.n_rows)
    for key in bnb_mod.LP_COUNTERS:
        assert getattr(s, key) == sum(getattr(lp, key) for lp in lps), key
        assert s.lp_counters()[key] == getattr(s, key)
    # the cold root starts at the model's start point, which holds every
    # row and bound of the tiny case, so it needs no phase 1; warm node LPs
    # are reoptimized by the dual phase
    assert lps[0].phase1_pivots == 0 and lps[0].dual_pivots == 0
    assert s.dual_pivots > 0


@pytest.mark.parametrize("limits", [
    {"rel_gap": -1.0}, {"rel_gap": float("nan")}, {"max_nodes": 0},
    {"time_limit_s": 0.0}, {"time_limit_s": -5.0}])
def test_bad_limits_are_rejected(limits):
    m = make_model([-1, -1], [[1, 1]], [LE], [1.5], [0, 0], [1, 1],
                   [BINARY, BINARY])
    with pytest.raises(InvalidParameterError):
        branch_and_bound(m, **limits)


def _tiny_models(tiny):
    """The tiny case's model and, as "binary", the same with exclusivity
    flags, which give a tree of about 50 nodes."""
    model = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                           ModelConfig(zeta=0.0))
    return {"relaxed": model, "binary": with_exclusivity_flags(model)}


def test_each_lp_starts_from_its_parent_basis(tiny, monkeypatch):
    for mode, model in _tiny_models(tiny).items():
        s, calls = _solve_recording(monkeypatch, model)
        # the root starts cold, a node from an earlier optimal LP (its
        # parent)
        assert calls[0][0] is None, mode
        solved = [calls[0][1]]
        for k, (warm, lp) in enumerate(calls[1:], start=1):
            assert any(warm[0] is p.basis for p in solved), (mode, k)
            if lp.status == "optimal":
                solved.append(lp)


def _tree(calls, bounds):
    """For each node LP in calls, in solve order: the index in calls of
    its parent (the LP whose basis it starts from), the bound it was
    opened with (the parent's objective), and its creation id as
    branch_and_bound numbers it: (parent index, 0 for the down child and
    1 for the up one), which orders as the ids do."""
    nodes = []
    for k, (warm, _lp) in enumerate(calls[1:], start=1):
        p = next(i for i in range(k) if warm[0] is calls[i][1].basis)
        j = int(np.flatnonzero((bounds[k][0] != bounds[p][0])
                               | (bounds[k][1] != bounds[p][1]))[0])
        up = bounds[k][0][j] > bounds[p][0][j]
        nodes.append((p, calls[p][1].objective, (p, int(up)), j))
    return nodes


def _plunge_fixtures(tiny, data_dir):
    """The tiny models, the benchmark's three days at tax 40, and a
    chance-recipe day (rng seed 1001), whose tree branches on binaries:
    there fixing a column and branching on it give the same bounds."""
    from test_acceptance import _c3_fixture
    grid, catalog, tariffs, scen, _n = _c3_fixture(1)
    return [*_tiny_models(tiny).items(),
            ("n3 tax 40", _n3_model(data_dir, 40)),
            ("c3-1001", assemble_model(grid, catalog, tariffs, scen,
                                       ModelConfig(zeta=0.05)))]


def test_node_lps_on_their_parents_factor_match_a_fresh_one(
        tiny, data_dir, monkeypatch):
    # each node LP solved twice, on its parent's factor and from the bare
    # (basis, stat), ends bit for bit alike with one factorization fewer;
    # so does the tree with every factor dropped
    from test_acceptance import _c3_fixture
    models = [*_tiny_models(tiny).items(),
              ("n3 tax 40", _n3_model(data_dir, 40))]
    for k in range(20):
        grid, catalog, tariffs, scen, _n = _c3_fixture(k)
        if grid.n_scenarios == 20:
            models.append((f"c3[{k}]", assemble_model(
                grid, catalog, tariffs, scen, ModelConfig(zeta=0.05))))
    real = bnb_mod.solve_lp
    pairs = []

    def both(*args, warm=None, **kwargs):
        lp = real(*args, warm=warm, **kwargs)
        if warm is not None and len(warm) == 3:
            pairs.append((lp, real(*args, warm=warm[:2], **kwargs)))
        return lp

    def dropped(*args, warm=None, **kwargs):
        return real(*args, warm=warm and warm[:2], **kwargs)

    for name, model in models:
        pairs.clear()
        with monkeypatch.context() as mp:
            mp.setattr(bnb_mod, "solve_lp", both)
            carried = branch_and_bound(model)
            mp.setattr(bnb_mod, "solve_lp", dropped)
            fresh = branch_and_bound(model)
        assert len(pairs) == carried.node_lps > 0, name
        for lp, ref in pairs:
            same_lp(lp, ref)
            # the parent's basis has structural basics, so a kernel to factor
            assert lp.refactors == ref.refactors - 1, name
            assert lp.kernel_cols < ref.kernel_cols, name
            # only a claim hands its factor on
            assert (lp.factor.blk is None) == (
                lp.status not in ("optimal", "infeasible")), name
        assert carried.node_log == fresh.node_log, name
        assert carried.x.tobytes() == fresh.x.tobytes(), name
        assert float(carried.objective).hex() == \
            float(fresh.objective).hex(), name


def test_no_factor_outlives_the_tree(tiny, monkeypatch):
    # every factor branch and bound was handed is gone once it returns,
    # while its result is still held; root_warm is (basis, stat)
    real = bnb_mod.solve_lp
    refs = []

    def tracking(*args, **kwargs):
        lp = real(*args, **kwargs)
        refs.append(weakref.ref(lp.factor))
        if lp.factor.blk is not None:
            refs.append(weakref.ref(lp.factor.blk))
        return lp

    for name, model in _tiny_models(tiny).items():
        refs.clear()
        with monkeypatch.context() as mp:
            mp.setattr(bnb_mod, "solve_lp", tracking)
            s = branch_and_bound(model)
        gc.collect()
        # the root's factor and its blocks, then one factor per node LP
        assert s.node_lps > 0 and len(refs) >= 2 + s.node_lps, name
        assert [ref() for ref in refs] == [None] * len(refs), name
        assert len(s.root_warm) == 2, name


def test_no_lp_is_solved_twice(tiny, data_dir, monkeypatch):
    for name, model in _plunge_fixtures(tiny, data_dir):
        bounds = []
        s, calls = _solve_recording(monkeypatch, model, bounds)
        assert s.status == "optimal" and s.node_lps > 0, name
        seen = {(lb.tobytes(), ub.tobytes()) for lb, ub in bounds}
        assert len(seen) == len(calls), name


def test_plunge_to_the_first_incumbent_then_best_first(tiny, data_dir,
                                                       monkeypatch):
    # until the first incumbent, each node LP is the newest open node: a
    # child of the latest LP solved with a child still open, the one on
    # the side of its branched column's nearest integer first. From the
    # first incumbent on, each node LP is the open node least by (bound,
    # id)
    for name, model in _plunge_fixtures(tiny, data_dir):
        bounds = []
        s, calls = _solve_recording(monkeypatch, model, bounds)
        nodes = _tree(calls, bounds)
        first = next(k for k, e in enumerate(s.node_log) if e["incumbent"])
        assert s.incumbents[0] == calls[1 + first][1].objective, name
        opened = {0: 2}  # children not yet solved, by parent index
        for k, (p, bound, (_p, up), j) in enumerate(nodes[:first + 1]):
            assert p == max(i for i, n in opened.items() if n), (name, k)
            assert bound == s.node_log[k]["bound"], (name, k)
            xj = calls[p][1].x[j]
            if opened[p] == 2:
                assert up == (np.rint(xj) > xj), (name, k)
            opened[p] -= 1
            lp = calls[k + 1][1]
            if lp.status == "optimal" and k < first:
                opened[k + 1] = 2
        # the open nodes by id; an LP none of whose children was solved
        # is left out, its children never being least
        parents = {p for p, *_rest in nodes}
        keys = {}
        for k, lp in enumerate(lp for _w, lp in calls):
            if k in parents:
                keys.update({(k, side): (lp.objective, (k, side))
                             for side in (0, 1)})
            if k < len(nodes):
                _p, bound, nid, _j = nodes[k]
                if k > first:
                    assert min(keys.values()) == (bound, nid), (name, k)
                del keys[nid]
        assert s.n_nodes == 1 + len(nodes), name


def test_root_warm_start_skips_the_root_pivots(tiny_solved):
    s = tiny_solved.sol
    again = branch_and_bound(tiny_solved.model, warm=s.root_warm)
    assert again.root_pivots == 0 < s.root_pivots
    assert again.objective == s.objective and again.n_nodes == s.n_nodes


def test_tree_counters(tiny, monkeypatch):
    # the relaxed model branches once; with exclusivity flags the tree has
    # about 50 nodes, some of them infeasible, and improves on the plunge's
    # incumbent
    for mode, model in _tiny_models(tiny).items():
        s, calls = _solve_recording(monkeypatch, model)
        assert s.n_nodes > 1 and s.max_depth >= 1, mode
        # no node sits deeper than the number of nodes after the root
        assert s.max_depth <= s.node_lps, mode
        node_lps = [lp for _w, lp in calls[1:]]
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
        assert sum(e["status"] == "cutoff" for e in log) == s.cutoff_nodes, \
            mode
        assert counters["cutoff_nodes"] == s.cutoff_nodes, mode
        assert max(e["depth"] for e in log) == s.max_depth, mode
        # a child's bound is its parent's LP objective: never above its own,
        # nor above the bound that a node stopped at the cutoff proved
        for e, lp in zip(log, node_lps):
            if lp.status in ("optimal", "cutoff"):
                assert e["bound"] <= lp.objective + 1e-9 * (
                    1 + abs(lp.objective)), mode
        # the flagged nodes gave every incumbent
        found = [lp.objective for e, lp in zip(log, node_lps)
                 if e["incumbent"]]
        assert found == s.incumbents, mode


def _n3_model(data_dir, tax):
    """The three-day model of the benchmark's sweep at one carbon tax."""
    case = read_case(os.path.join(data_dir, "case.json"))
    days = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "data")
    scen = read_scenario_set(os.path.join(days, "n3_scenarios.csv"), case,
                             ev_path=os.path.join(days, "n3_scenarios_ev.csv"))
    return assemble_model(scen.grid, case.catalog,
                          case.tariffs.with_carbon_tax(tax), scen,
                          ModelConfig())


def test_cutoff_leaves_the_tree_unchanged(tiny, data_dir, monkeypatch):
    # node LPs stopped at the incumbent's cutoff are pruned as the finished
    # LPs would have been: the same nodes, incumbents and x
    real = bnb_mod.solve_lp

    def without_cutoff(*args, cutoff=None, **kwargs):
        return real(*args, **kwargs)

    models = list(_tiny_models(tiny).items())
    models += [(f"n3 tax {tax}", _n3_model(data_dir, tax))
               for tax in (40, 700)]
    for name, model in models:
        cut = branch_and_bound(model)
        with monkeypatch.context() as mp:
            mp.setattr(bnb_mod, "solve_lp", without_cutoff)
            full = branch_and_bound(model)
        assert full.cutoff_nodes == 0, name
        assert cut.n_nodes == full.n_nodes, name
        assert cut.incumbents == full.incumbents, name
        assert cut.objective == full.objective, name
        assert np.array_equal(cut.x, full.x), name
        # a stopped node is one the full solve pruned: optimal at or above
        # the cutoff, or infeasible (its dual objective grew past the
        # cutoff before the dual ray showed)
        assert [e["status"] for e in cut.node_log] == [
            "cutoff" if c["status"] == "cutoff" else f["status"]
            for c, f in zip(cut.node_log, full.node_log)], name
        assert all(f["status"] in ("optimal", "infeasible") for c, f in
                   zip(cut.node_log, full.node_log)
                   if c["status"] == "cutoff"), name
        if name.startswith("n3"):
            assert cut.cutoff_nodes > 0, name
            assert cut.node_pivots < full.node_pivots, name


def test_tree_counters_without_branching():
    s = branch_and_bound(make_model([-1.0], [[1.0]], [LE], [3.0], [0], [5],
                                    [INTEGER]))
    assert s.status == "optimal" and s.n_nodes == 1
    assert (s.max_depth, s.infeasible_nodes) == (0, 0)
    assert s.incumbents == [s.objective]


def test_an_incumbent_the_checker_fails_is_a_solver_error(monkeypatch):
    monkeypatch.setattr(bnb_mod, "check_solution",
                        lambda model, x: VerifyReport(False, 1.0, ["R0 1.0"]))
    with pytest.raises(SolverError, match="failed independent verification"):
        branch_and_bound(make_model([-1.0], [[1.0]], [LE], [3.0], [0], [5],
                                    [INTEGER]))


@pytest.mark.parametrize("kind, at", [("root", 0), ("node", 1)])
def test_an_lp_out_of_iterations_is_a_solver_error(tiny_solved, monkeypatch,
                                                   kind, at):
    # the tiny hub case branches at the root, so its second LP is a node's
    real, calls = bnb_mod.solve_lp, []

    def limited(*args, **kwargs):
        lp = real(*args, **kwargs)
        calls.append(lp)
        if len(calls) == at + 1:
            return dataclasses.replace(lp, status="iteration_limit")
        return lp

    monkeypatch.setattr(bnb_mod, "solve_lp", limited)
    with pytest.raises(SolverError,
                       match=f"^{kind} relaxation ended iteration_limit$"):
        branch_and_bound(tiny_solved.model)
