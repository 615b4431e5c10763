"""Mapping raw MILP vectors back to named dispatch quantities."""
import numpy as np
import pytest

from hubplan.milp import branch_and_bound, extract_solution
from hubplan.model import (CONT, K_BCH, K_BDIS, K_BE, K_FUEL, K_GRID, K_PV,
                           K_SHORT, K_TCH, K_TDIS, K_TE, K_VCH, K_VDIS, K_VE,
                           K_XESS, K_XFC, K_YB, K_YEV, K_YT, K_Z, ModelConfig,
                           assemble_model)


def test_first_stage(tiny_solved):
    plan = tiny_solved.plan
    assert plan.objective == tiny_solved.sol.objective
    assert set(plan.x_fc) == {"PEM_gas"}
    assert isinstance(plan.x_fc["PEM_gas"], int)
    assert 0 <= plan.x_fc["PEM_gas"] <= 10
    assert 0.0 <= plan.x_ess <= 200.0
    # -0.0 never leaks into reports
    assert repr(plan.x_ess)[0] != "-"


def test_dispatch_shapes(tiny_solved):
    plan = tiny_solved.plan
    assert plan.grid.shape == (2, 4)
    assert plan.pv.shape == (2, 4)
    assert plan.fuel.shape == (2, 4, 1)
    assert plan.bess_ch.shape == (2, 4)
    assert plan.bess_e.shape == (2, 4)
    assert plan.tess_e.shape == (2, 4)
    assert plan.ev_ch.shape == (2, 1, 4)
    assert plan.ev_e.shape == (2, 1, 5)  # T+1 states
    assert plan.shortfall.shape == (2, 1)
    assert plan.z.shape == (2,)


def test_ev_window_nan_pattern(tiny_solved):
    plan = tiny_solved.plan
    # scenario 0: parked hours 0..2, departs at hour 3
    assert not np.isnan(plan.ev_ch[0, 0, :3]).any()
    assert np.isnan(plan.ev_ch[0, 0, 3])
    assert not np.isnan(plan.ev_e[0, 0, :4]).any()
    assert np.isnan(plan.ev_e[0, 0, 4])
    # scenario 1: parked hours 1..3
    assert np.isnan(plan.ev_ch[1, 0, 0])
    assert not np.isnan(plan.ev_ch[1, 0, 1:]).any()
    assert np.isnan(plan.ev_e[1, 0, 0])


def test_ev_arrival_datum(tiny_solved):
    plan = tiny_solved.plan
    assert plan.ev_e[0, 0, 0] == pytest.approx(0.4 * 40.0)
    assert plan.ev_e[1, 0, 1] == pytest.approx(0.5 * 40.0)


def test_departure_energy(tiny_solved):
    plan = tiny_solved.plan
    assert plan.e_dep.shape == (2, 1)
    assert plan.e_dep[0, 0] == pytest.approx(plan.ev_e[0, 0, 3])
    assert plan.e_dep[1, 0] == pytest.approx(plan.ev_e[1, 0, 4])
    # zeta = 0 forces every departure at target
    assert np.all(plan.e_dep >= 0.9 * 40.0 - 1e-6)
    assert np.all(plan.z == 0)
    assert len(plan.substandard) == 0
    assert np.all(plan.shortfall <= 1e-9)


def test_relaxed_mode_has_no_flags(tiny_solved):
    plan = tiny_solved.plan
    assert plan.y_bess is None and plan.y_tess is None and plan.y_ev is None


def test_nonnegative_dispatch(tiny_solved):
    plan = tiny_solved.plan
    for arr in (plan.grid, plan.pv, plan.fuel, plan.bess_ch, plan.bess_dis,
                plan.tess_ch, plan.tess_dis):
        assert np.all(arr >= -1e-9)
    win = ~np.isnan(plan.ev_ch)
    assert np.all(plan.ev_ch[win] >= -1e-9)


def test_extraction_round_trips_objective(tiny, tiny_solved):
    # reprice the extracted dispatch; must equal the solver objective
    from hubplan.analysis import cost_breakdown
    from hubplan.core import annualization_factor
    m = annualization_factor(tiny.grid)
    bd = cost_breakdown(tiny_solved.plan, tiny.catalog, tiny.tariffs, m)
    assert bd.total == pytest.approx(tiny_solved.sol.objective, rel=1e-9)


def test_idempotent(tiny_solved):
    a = extract_solution(tiny_solved.sol, tiny_solved.model.var_index)
    b = extract_solution(tiny_solved.sol, tiny_solved.model.var_index)
    assert np.array_equal(a.grid, b.grid)
    np.testing.assert_array_equal(a.ev_e, b.ev_e)
    assert a.x_fc == b.x_fc


# kinds whose key (kind, s, t, j) is stored at [s, j, t] of the plan array
_EV_FIELDS = {K_VCH: "ev_ch", K_VDIS: "ev_dis", K_VE: "ev_e", K_YEV: "y_ev"}
_FIELDS = {K_GRID: "grid", K_PV: "pv", K_FUEL: "fuel", K_BCH: "bess_ch",
           K_BDIS: "bess_dis", K_BE: "bess_e", K_TCH: "tess_ch",
           K_TDIS: "tess_dis", K_TE: "tess_e", K_SHORT: "shortfall",
           K_Z: "z", K_YB: "y_bess", K_YT: "y_tess"}


def test_binary_plan_entries_are_their_columns(tiny):
    # every entry of a binary-mode plan is the solver value of its column
    # (rounded for integer columns), and NaN where the key has no column
    config = ModelConfig(zeta=0.5, exclusivity_mode="binary")
    model = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                           config)
    sol = branch_and_bound(model)
    assert sol.status == "optimal"
    ix = model.var_index
    plan = extract_solution(sol, ix)
    x = sol.x
    covered = {name: np.zeros(np.shape(getattr(plan, name)), dtype=bool)
               for name in list(_FIELDS.values()) + list(_EV_FIELDS.values())}
    for c, key in enumerate(ix.keys):
        kind, idx = key[0], key[1:]
        want = x[c] if ix.kind[c] == CONT else np.rint(x[c])
        if kind == K_XESS:
            got = plan.x_ess
        elif kind == K_XFC:
            got = plan.x_fc[ix.fc_ids[idx[0]]]
        elif kind in _EV_FIELDS:
            s, t, j = idx
            got = getattr(plan, _EV_FIELDS[kind])[s, j, t]
            covered[_EV_FIELDS[kind]][s, j, t] = True
        else:
            got = getattr(plan, _FIELDS[kind])[idx]
            covered[_FIELDS[kind]][idx] = True
        assert got == want, key
    for name, mask in covered.items():
        arr = getattr(plan, name)
        if name == "ev_e":
            # the arrival datum is not a column
            for (s, j), (a, _d) in ix.windows.items():
                assert arr[s, j, a] == ix.ev_init[(s, j)]
                mask[s, j, a] = True
        if name in _EV_FIELDS.values():
            assert np.isnan(arr[~mask]).all(), name
        else:
            assert mask.all(), name
    for (s, j), (_a, d) in ix.windows.items():
        assert plan.e_dep[s, j] == x[ix.col(K_VE, s, d, j)]
    assert plan.substandard == [s for s in range(2) if plan.z[s] == 1]


@pytest.mark.parametrize("key, name", [((K_XFC, 0), "XFC0"), ((K_Z, 1), "Z1")])
def test_non_integral_column_refused(tiny_solved, key, name):
    from types import SimpleNamespace
    from hubplan.errors import SolverError
    from hubplan.milp.verify import INT_TOL
    ix = tiny_solved.model.var_index
    x = tiny_solved.sol.x.copy()
    x[ix.col(*key)] = 0.25
    with pytest.raises(SolverError) as ei:
        extract_solution(SimpleNamespace(x=x, objective=0.0), ix)
    assert str(ei.value) == (f"column {name} = 0.25 is not integral "
                             f"within {INT_TOL}")
