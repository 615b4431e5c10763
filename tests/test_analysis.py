"""Reporting layer: cost parts, chance audit, tables, recheck, sweep."""
import csv
import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from conftest import with_pv_less_overlap
from hubplan.analysis import (chance_audit, cost_breakdown, dispatch_table,
                              select_extreme_scenario, soc_table,
                              sweep_carbon_tax, verify_plan, write_audit_json,
                              write_cost_breakdown, write_plan_summary,
                              write_table_csv)
from hubplan.core import annualization_factor
from hubplan.errors import InfeasibleSolutionError, InvalidParameterError
from hubplan.fileio import read_case, read_history
from hubplan.milp import branch_and_bound, extract_solution
from hubplan.model import ModelConfig, assemble_model
from hubplan.scengen import generate_scenarios


@pytest.fixture(scope="module")
def priced(tiny, tiny_solved):
    m = annualization_factor(tiny.grid)
    bd = cost_breakdown(tiny_solved.plan, tiny.catalog, tiny.tariffs, m)
    return m, bd


def test_breakdown_equals_objective(tiny_solved, priced):
    _, bd = priced
    obj = tiny_solved.sol.objective
    assert abs(bd.total - obj) <= 1e-6 * (1 + abs(obj))
    parts = bd.as_dict()
    assert abs(sum(v for k, v in parts.items() if k != "total")
               - parts["total"]) < 1e-9
    assert all(v >= 0.0 for v in parts.values())


def test_breakdown_zero_dispatch(tiny, tiny_solved, priced):
    m, _ = priced
    zero = dataclasses.replace(
        tiny_solved.plan, x_ess=100.0, x_fc={"PEM_gas": 3},
        grid=np.zeros_like(tiny_solved.plan.grid),
        fuel=np.zeros_like(tiny_solved.plan.fuel),
        shortfall=np.zeros_like(tiny_solved.plan.shortfall))
    bd = cost_breakdown(zero, tiny.catalog, tiny.tariffs, m)
    assert bd.fc_investment == 90.0
    assert bd.bess_investment == 15.0
    assert bd.gas_cost == 0.0 and bd.carbon_from_gas == 0.0
    assert bd.soc_penalty == 0.0


def test_breakdown_screens_nan(tiny, tiny_solved, priced):
    m, _ = priced
    grid = tiny_solved.plan.grid.copy()
    grid[1, 2] = np.nan
    with pytest.raises(InfeasibleSolutionError) as ei:
        cost_breakdown(dataclasses.replace(tiny_solved.plan, grid=grid),
                       tiny.catalog, tiny.tariffs, m)
    assert "grid(1, 2)" in str(ei.value)


def test_breakdown_screens_negative(tiny, tiny_solved, priced):
    m, _ = priced
    fuel = tiny_solved.plan.fuel.copy()
    fuel[0, 0, 0] = -3.0
    with pytest.raises(InfeasibleSolutionError):
        cost_breakdown(dataclasses.replace(tiny_solved.plan, fuel=fuel),
                       tiny.catalog, tiny.tariffs, m)


def test_breakdown_clamps_roundoff(tiny, tiny_solved, priced):
    # a -1e-15 from the solver must price as zero, not as a negative part
    m, _ = priced
    short = tiny_solved.plan.shortfall.copy()
    short[:] = -1e-15
    bd = cost_breakdown(dataclasses.replace(tiny_solved.plan,
                                            shortfall=short),
                        tiny.catalog, tiny.tariffs, m)
    assert bd.soc_penalty == 0.0


def test_chance_audit_zeta_zero(tiny, tiny_solved):
    audit = chance_audit(tiny_solved.plan, tiny.fleet, 0.0, 2)
    assert audit.passed and audit.count == 0 and audit.limit == 0
    assert np.all(audit.worst_soc >= 0.9 - 1e-7)
    d = audit.as_dict()
    assert d["count"] == 0 and d["passed"] is True


def test_chance_audit_flags_shortfall(tiny, tiny_solved):
    # push one departure below target
    ev_e = tiny_solved.plan.ev_e.copy()
    ev_e[0, 0, 3] = 0.5 * 40.0
    e_dep = tiny_solved.plan.e_dep.copy()
    e_dep[0, 0] = 0.5 * 40.0
    bad = dataclasses.replace(tiny_solved.plan, ev_e=ev_e, e_dep=e_dep)
    audit = chance_audit(bad, tiny.fleet, 0.0, 2)
    assert not audit.passed and audit.count == 1
    audit_ok = chance_audit(bad, tiny.fleet, 0.5, 2)
    assert audit_ok.passed and audit_ok.limit == 1


def test_dispatch_table(tiny, tiny_solved):
    hdr, rows = dispatch_table(tiny_solved.plan, tiny.scen, tiny.catalog,
                               tiny.tariffs, 0)
    assert len(rows) == 4 and all(len(r) == len(hdr) for r in rows)
    assert rows[1][hdr.index("hour")] == 1
    assert rows[1][hdr.index("elec_load_kw")] == 30.0
    assert rows[1][hdr.index("elec_price")] == 1.0
    i_fc = hdr.index("fc_PEM_gas_elec_kw")
    assert rows[2][i_fc] == pytest.approx(
        0.45 * tiny_solved.plan.fuel[0, 2, 0])
    assert rows[3][hdr.index("ev0_ch_kw")] is None  # departed at hour 3
    with pytest.raises(KeyError):
        dispatch_table(tiny_solved.plan, tiny.scen, tiny.catalog,
                       tiny.tariffs, 5)


def test_soc_table(tiny, tiny_solved):
    hdr, rows = soc_table(tiny_solved.plan, tiny.catalog, 0)
    assert len(rows) == 5  # T+1 with the cyclic wrap repeated
    assert rows[4][1] == rows[0][1]
    assert rows[0][hdr.index("ev0_soc")] == pytest.approx(0.4)
    assert rows[3][hdr.index("ev0_soc")] == pytest.approx(0.9, abs=1e-7)
    assert rows[4][hdr.index("ev0_soc")] is None


def test_select_extreme(tiny):
    assert select_extreme_scenario(tiny.scen, "elec") == 1
    assert select_extreme_scenario(tiny.scen, "heat") == 1
    with pytest.raises(Exception):
        select_extreme_scenario(tiny.scen, "wind")


def test_verify_plan_clean(tiny, tiny_solved):
    chk = verify_plan(tiny_solved.plan, tiny.scen, tiny.catalog, tiny.tariffs)
    assert chk.ok and chk.max_residual <= 1e-6 and chk.issues == []


def test_verify_plan_catches_imbalance(tiny, tiny_solved):
    bad = dataclasses.replace(tiny_solved.plan,
                              grid=tiny_solved.plan.grid + 1.0)
    chk = verify_plan(bad, tiny.scen, tiny.catalog, tiny.tariffs)
    assert not chk.ok
    assert any("elec balance" in s for s in chk.issues)


def test_verify_plan_catches_soc_break(tiny, tiny_solved):
    e = tiny_solved.plan.bess_e.copy()
    e[0, 2] += 5.0
    chk = verify_plan(dataclasses.replace(tiny_solved.plan, bess_e=e),
                      tiny.scen, tiny.catalog, tiny.tariffs)
    assert not chk.ok


def test_repair_keeps_the_cost_of_a_bundled_plan(data_dir, monkeypatch):
    # the README's plan at seed 11 charges and discharges the BESS at s4
    # t10 and vehicle 0 at s4 t8, with PV to curtail: solve_level repairs
    # both, at the cost branch and bound found, to the bit
    import hubplan.analysis as analysis
    case = read_case(os.path.join(data_dir, "case.json"))
    history = read_history(os.path.join(data_dir, "history_loads.csv"),
                           os.path.join(data_dir, "history_ev.csv"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        scen, _ = generate_scenarios(case, *history, n_scenarios=10, seed=11)
    tariffs, config = case.tariffs.with_carbon_tax(40), ModelConfig()
    model = assemble_model(scen.grid, case.catalog, tariffs, scen, config)
    solved, real = [], analysis.branch_and_bound

    def recorded(*args, **kwargs):
        solved.append(real(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(analysis, "branch_and_bound", recorded)
    level = analysis.solve_level(model, scen, case.catalog, tariffs, config)
    raw, = solved
    assert (level.overlap, level.unrepaired) == (["BC4_10", "VC4_8_0"], [])
    raw_plan = extract_solution(raw, model.var_index)
    assert not verify_plan(raw_plan, scen, case.catalog, tariffs).ok
    assert level.check.ok and level.plan_check.ok
    assert level.bnb.objective == raw.objective
    assert model.obj @ level.bnb.x == model.obj @ raw.x
    assert level.breakdown.as_dict() == cost_breakdown(
        raw_plan, case.catalog, tariffs,
        annualization_factor(scen.grid)).as_dict()
    # only the overlapping store-hours and their hours' PV moved
    assert {model.col_names[c] for c in np.flatnonzero(
        level.bnb.x != raw.x)} == {"BC4_10", "BD4_10", "PV4_10", "VC4_8_0",
                                   "VD4_8_0", "PV4_8"}


def test_unrepairable_overlap_is_reported(tiny, tiny_solved, monkeypatch):
    # an overlap in an hour without PV is left as it is, and fails the
    # plan check
    import hubplan.analysis as analysis
    sol, model = tiny_solved.sol, tiny_solved.model
    x = with_pv_less_overlap(model, tiny.fleet, sol.x)
    monkeypatch.setattr(analysis, "branch_and_bound",
                        lambda *a, **k: dataclasses.replace(sol, x=x))
    level = analysis.solve_level(model, tiny.scen, tiny.catalog,
                                 tiny.tariffs, tiny.config)
    assert level.bnb.x.tobytes() == x.tobytes()
    assert level.overlap == level.unrepaired == ["VC0_0_0"]
    doc = level.as_dict()
    assert (doc["overlap_hours"], doc["overlap_unrepaired"]) == (
        1, ["VC0_0_0"])
    assert level.check.ok and not level.plan_check.ok
    assert level.plan_check.issues == [
        "ev charges and discharges s0 j0 t0: 0.5"]


def test_sweep_monotone_and_convertible(tiny):
    # two levels in yuan/ton; the 40-level must replay the direct solve
    # at carbon_tax = 0.04 yuan/kg
    sw = sweep_carbon_tax(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                          tiny.config, [40.0, 1000.0])
    assert [lv.status for lv in sw.levels] == ["optimal", "optimal"]
    lo, hi = (lv.solve.breakdown.total for lv in sw.levels)
    assert hi >= lo - 1e-9

    tar40 = dataclasses.replace(tiny.tariffs, carbon_tax=0.04)
    model = assemble_model(tiny.grid, tiny.catalog, tar40, tiny.scen,
                           tiny.config)
    direct = branch_and_bound(model)
    assert lo == pytest.approx(direct.objective, rel=1e-9)
    assert sw.notes  # trend notes always come back


def test_sweep_levels_carry_plan(tiny):
    sw = sweep_carbon_tax(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                          tiny.config, [40.0])
    lv = sw.levels[0]
    assert lv.carbon_tax == 40.0
    assert lv.solve.audit.count == 0
    assert lv.solve.plan.x_fc["PEM_gas"] >= 0 and lv.solve.plan.x_ess >= 0.0
    assert lv.solve.bnb.n_nodes >= 1 and lv.solve.bnb.wall_time >= 0.0


def test_sweep_refuses_a_bad_level_before_solving(tiny, monkeypatch):
    # the bad level is the last: nothing is assembled or solved before it
    import hubplan.analysis as analysis

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the bad level was refused")

    monkeypatch.setattr(analysis, "assemble_model", must_not_run)
    monkeypatch.setattr(analysis, "solve_level", must_not_run)
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(InvalidParameterError, match="carbon_tax"):
            analysis.sweep_carbon_tax(tiny.grid, tiny.catalog, tiny.tariffs,
                                      tiny.scen, tiny.config, [40.0, bad])


def test_sweep_level_failing_its_check_is_an_error(tiny, monkeypatch,
                                                    tmp_path):
    # the level keeps its verdicts, but reports no plan and no total
    import hubplan.analysis as analysis
    from hubplan.milp import VerifyReport
    monkeypatch.setattr(analysis, "check_solution", lambda model, x:
                        VerifyReport(ok=False, max_residual=1.0,
                                     bad_rows=[("EB0_0", 1.0)]))
    sw = analysis.sweep_carbon_tax(tiny.grid, tiny.catalog, tiny.tariffs,
                                   tiny.scen, tiny.config, [40.0])
    lv, = sw.levels
    assert lv.status == "error" and lv.optimal is None
    assert lv.error == ("optimal solution failed verification: "
                        "[('EB0_0', 1.0)]")
    doc = lv.as_dict()
    assert doc["total"] is None and doc["solution_check"]["ok"] is False
    cb = tmp_path / "cost_breakdown.csv"
    write_cost_breakdown(str(cb), sw)
    assert list(csv.reader(cb.open()))[1] == ["40.0"] + [""] * 8 + ["error"]
    # no units, kWh or substandard count that would read as a plan
    ps = tmp_path / "plan_summary.csv"
    write_plan_summary(str(ps), sw, tiny.catalog)
    assert list(csv.reader(ps.open()))[1] == ["40.0", "", "", "", "error"]


def test_stopped_level_reports_its_incumbent(tiny, tmp_path):
    # one node: the sweep level holds the dive's incumbent and its verdicts,
    # but keeps its status and reports no plan or total in the tables
    sw = sweep_carbon_tax(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                          tiny.config, [40.0], max_nodes=1)
    lv, = sw.levels
    assert (lv.status, lv.error) == ("node_limit", "solver ended node_limit")
    assert lv.optimal is None and lv.solve.check.ok
    assert lv.solve.breakdown.total == pytest.approx(lv.solve.bnb.objective,
                                                     rel=1e-9)
    doc = lv.as_dict()
    assert doc["objective"] == lv.solve.bnb.objective
    assert doc["total"] is None and doc["gap"] > 0
    ps, cb = tmp_path / "plan_summary.csv", tmp_path / "cost_breakdown.csv"
    write_plan_summary(str(ps), sw, tiny.catalog)
    write_cost_breakdown(str(cb), sw)
    assert list(csv.reader(ps.open()))[1] == ["40.0", "", "", "",
                                              "node_limit"]
    assert list(csv.reader(cb.open()))[1] == (["40.0"] + [""] * 8
                                              + ["node_limit"])


def test_hint_when_only_integrality_binds():
    # 2x = 1 has the LP solution x = 0.5 and no binary one
    import hubplan.analysis as analysis
    from conftest import make_model
    from hubplan.model import BINARY, EQ
    model = make_model([1.0], [[2.0]], [EQ], [1.0], [0.0], [1.0], [BINARY])
    level = analysis.solve_level(model, None, None, None, None)
    assert level.bnb.status == "infeasible" and level.bnb.n_nodes > 1
    assert level.bnb.infeasible_rows == [] and level.plan is None
    assert level.infeasible_hint == ("LP relaxation is feasible; integer "
                                     "restrictions bind")
    assert level.as_dict()["infeasible_hint"] == level.infeasible_hint


def test_every_row_has_a_constraint_family(tiny):
    # the infeasibility hint names a row's family by its name's first letter
    from hubplan.analysis import _FAMILIES
    model = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                           ModelConfig(zeta=0.5))
    assert {name[0] for name in model.row_names} == set(_FAMILIES)


def test_writers(tiny, tiny_solved, tmp_path):
    sw = sweep_carbon_tax(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                          tiny.config, [40.0, 1000.0])
    ps = tmp_path / "plan_summary.csv"
    cb = tmp_path / "cost_breakdown.csv"
    write_plan_summary(str(ps), sw, tiny.catalog)
    write_cost_breakdown(str(cb), sw)
    rows = list(csv.reader(ps.open()))
    assert rows[0][0] == "carbon_tax_yuan_per_ton"
    assert "fc_PEM_gas_units" in rows[0] and "bess_kwh" in rows[0]
    assert len(rows) == 3
    rows = list(csv.reader(cb.open()))
    assert rows[0][-1] == "status" and len(rows) == 3

    hdr, trows = dispatch_table(tiny_solved.plan, tiny.scen, tiny.catalog,
                                tiny.tariffs, 0)
    dp = tmp_path / "dispatch_0.csv"
    write_table_csv(str(dp), hdr, trows)
    got = list(csv.reader(dp.open()))
    assert got[0] == hdr
    assert got[4][hdr.index("ev0_ch_kw")] == ""  # None -> empty cell
    assert float(got[2][hdr.index("elec_load_kw")]) == 30.0

    aj = tmp_path / "audit.json"
    write_audit_json(str(aj), {"b": 1, "a": [1.5, None]})
    txt = aj.read_text()
    assert txt.endswith("\n")
    assert json.loads(txt) == {"a": [1.5, None], "b": 1}
    assert txt.index('"a"') < txt.index('"b"')  # sorted keys


def test_writer_determinism(tiny, tmp_path):
    sw = sweep_carbon_tax(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                          tiny.config, [40.0])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_plan_summary(str(p1), sw, tiny.catalog)
    write_plan_summary(str(p2), sw, tiny.catalog)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_assembles_once(tiny, monkeypatch):
    # a carbon tax only re-prices the objective: one assembly serves every
    # level, and each level's objective is bit-equal to a fresh assembly's
    import hubplan.analysis as analysis
    assembled, solved = [], []
    assemble, solve = analysis.assemble_model, analysis.branch_and_bound

    def counted(*args, **kwargs):
        assembled.append(args)
        return assemble(*args, **kwargs)

    def captured(model, *args, **kwargs):
        solved.append(model)
        return solve(model, *args, **kwargs)

    monkeypatch.setattr(analysis, "assemble_model", counted)
    monkeypatch.setattr(analysis, "branch_and_bound", captured)
    taxes = [40.0, 400.0, 1000.0]
    sw = analysis.sweep_carbon_tax(tiny.grid, tiny.catalog, tiny.tariffs,
                                   tiny.scen, tiny.config, taxes)
    assert [lv.status for lv in sw.levels] == ["optimal"] * 3
    assert len(assembled) == 1 and len(solved) == 3
    for tax, model in zip(taxes, solved):
        tar = dataclasses.replace(tiny.tariffs, carbon_tax=tax / 1000.0)
        fresh = assemble(tiny.grid, tiny.catalog, tar, tiny.scen, tiny.config)
        assert model.obj.tobytes() == fresh.obj.tobytes()
        assert (model.a_matrix != fresh.a_matrix).nnz == 0
        assert np.array_equal(model.rhs, fresh.rhs)
