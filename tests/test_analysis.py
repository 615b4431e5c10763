"""Reporting layer: cost parts, chance audit, tables, recheck, sweep."""
import collections
import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from conftest import with_pv_less_overlap
from hubplan.analysis import (ChanceAudit, PlanCheck, chance_audit,
                              cost_breakdown, dispatch_table,
                              select_extreme_scenario, soc_table,
                              sweep_carbon_tax, verify_plan,
                              write_cost_breakdown, write_plan_summary)
from hubplan.core import FEAS_TOL, INT_TOL, EvRecord
from hubplan.errors import InvalidParameterError, SolverError
from hubplan.fileio import (read_case, read_history, write_audit_json,
                            write_table_csv)
from hubplan.milp import (branch_and_bound, check_solution,
                          extract_solution)
from hubplan.model import (K_GRID, K_PV, K_SHORT, K_VCH, K_VDIS,
                           ModelConfig, assemble_model, max_substandard,
                           repair_overlap)
from hubplan.scengen import generate_scenarios


@pytest.fixture(scope="module")
def priced(tiny, tiny_solved):
    return cost_breakdown(tiny_solved.plan, tiny.catalog, tiny.tariffs)


def test_breakdown_equals_objective(tiny_solved, priced):
    bd = priced
    obj = tiny_solved.sol.objective
    assert abs(bd.total - obj) <= 1e-6 * (1 + abs(obj))
    parts = bd.as_dict()
    assert abs(sum(v for k, v in parts.items() if k != "total")
               - parts["total"]) < 1e-9
    assert all(v >= 0.0 for v in parts.values())


def test_breakdown_zero_dispatch(tiny, tiny_solved, priced):
    zero = dataclasses.replace(
        tiny_solved.plan, x_ess=100.0, x_fc={"PEM_gas": 3},
        grid=np.zeros_like(tiny_solved.plan.grid),
        fuel=np.zeros_like(tiny_solved.plan.fuel),
        shortfall=np.zeros_like(tiny_solved.plan.shortfall))
    bd = cost_breakdown(zero, tiny.catalog, tiny.tariffs)
    assert bd.fc_investment == 90.0
    assert bd.bess_investment == 15.0
    assert bd.gas_cost == 0.0 and bd.carbon_from_gas == 0.0
    assert bd.soc_penalty == 0.0


def test_breakdown_screens_nan(tiny, tiny_solved, priced):
    # cost_breakdown judges nothing; CostBreakdown refuses the NaN part
    grid = tiny_solved.plan.grid.copy()
    grid[1, 2] = np.nan
    with pytest.raises(InvalidParameterError, match="cost part nan"):
        cost_breakdown(dataclasses.replace(tiny_solved.plan, grid=grid),
                       tiny.catalog, tiny.tariffs)


def test_breakdown_screens_negative(tiny, tiny_solved, priced):
    # a negative x_fc prices a negative investment, which CostBreakdown
    # refuses
    bad = dataclasses.replace(tiny_solved.plan, x_fc={"PEM_gas": -1})
    with pytest.raises(InvalidParameterError, match=r"cost part -30\.0 "):
        cost_breakdown(bad, tiny.catalog, tiny.tariffs)


def test_breakdown_clamps_roundoff(tiny, tiny_solved, priced):
    # a -1e-15 from the solver must price as zero, not as a negative part
    short = tiny_solved.plan.shortfall.copy()
    short[:] = -1e-15
    bd = cost_breakdown(dataclasses.replace(tiny_solved.plan,
                                            shortfall=short),
                        tiny.catalog, tiny.tariffs)
    assert bd.soc_penalty == 0.0


@pytest.mark.parametrize("value, ok", [(-5e-7, True), (-2e-6, False)])
def test_breakdown_screen_matches_the_gate(tiny, tiny_solved, priced,
                                           value, ok):
    # a shortfall entry below its bound of 0: within FEAS_TOL every verdict
    # takes it (and its cost part is clamped), beyond it the solution check
    # refuses it. The entry is the first shortfall column at its lower bound
    # in the solved x, so the cost stays put
    base = priced
    model, sol = tiny_solved.model, tiny_solved.sol
    short = model.var_index.ids[K_SHORT]
    at = next(sj for sj in np.ndindex(short.shape)
              if sol.x[short[sj]] == model.col_lb[short[sj]])
    x = sol.x.copy()
    x[short[at]] = value
    plan = extract_solution(dataclasses.replace(sol, x=x), model.var_index)
    assert plan.shortfall[at] == value
    assert check_solution(model, x).ok is ok
    if ok:
        assert verify_plan(plan, tiny.scen, tiny.catalog, tiny.tariffs).ok
        bd = cost_breakdown(plan, tiny.catalog, tiny.tariffs)
        assert bd.as_dict() == base.as_dict()


def _departing_with(plan, fleet, kwh):
    """plan with scenario 0's vehicle, parked hours 0-2, leaving at hour 3
    with kwh, e_dep too; its hour-2 charge and that hour's PV are lowered
    to match, so its chain and the electric balance still hold (the hour
    imports too little to give up 3 kW, but uses 12 kW of PV)."""
    less = plan.ev_e[0, 0, 3] - kwh
    ev_e, ev_ch, pv, e_dep = (a.copy() for a in (plan.ev_e, plan.ev_ch,
                                                 plan.pv, plan.e_dep))
    ev_e[0, 0, 3] = e_dep[0, 0] = kwh
    ev_ch[0, 0, 2] -= less
    pv[0, 2] -= less / fleet.eta_ch
    return dataclasses.replace(plan, ev_e=ev_e, ev_ch=ev_ch, pv=pv,
                               e_dep=e_dep)


@pytest.mark.parametrize("below, short", [(2e-7, False), (1e-5, True)])
def test_departure_verdicts_agree(tiny, tiny_solved, below, short):
    # a z = 0 departure below target is substandard for the chance audit
    # exactly when the plan check flags it: FEAS_TOL * (1 + target) below
    fleet = tiny.fleet
    plan = _departing_with(tiny_solved.plan, fleet, (
        fleet.target_departure_soc - below) * fleet.capacity)
    soc = float(plan.e_dep[0, 0] / fleet.capacity)
    audit = chance_audit(plan, fleet, 0.0, 2)
    assert audit.worst_soc[0] == soc
    assert (audit.count, audit.passed) == ((1, False) if short
                                           else (0, True))
    assert audit.substandard == ([(0, 0, soc)] if short else [])
    chk = verify_plan(plan, tiny.scen, tiny.catalog, tiny.tariffs)
    assert chk.issues == ([f"departure soc s0 j0: {soc!r}"] if short else [])


def _nan_departure(tiny_solved):
    """The tiny optimum's vector with VE0_3_0, the first vehicle's departure
    energy in scenario 0, set to NaN, and its plan."""
    model, sol = tiny_solved.model, tiny_solved.sol
    x = sol.x.copy()
    x[model.col_names.index("VE0_3_0")] = np.nan
    return x, extract_solution(dataclasses.replace(sol, x=x), model.var_index)


def test_nan_departure_fails_both_verdicts(tiny, tiny_solved):
    # a NaN departure energy is substandard for the chance audit, as the
    # plan check flags it, and the gate refuses the vector it came from
    x, plan = _nan_departure(tiny_solved)
    assert not check_solution(tiny_solved.model, x).ok
    assert np.isnan(plan.e_dep[0, 0])
    audit = chance_audit(plan, tiny.fleet, 0.0, 2)
    assert (audit.count, audit.passed) == (1, False)
    assert [(s, j) for s, j, _soc in audit.substandard] == [(0, 0)]
    chk = verify_plan(plan, tiny.scen, tiny.catalog, tiny.tariffs)
    assert "departure soc s0 j0: nan" in chk.issues


def test_nan_departure_reads_as_null(tiny, tiny_solved):
    # its scenario's worst SOC is the NaN, not a full charge, and
    # audit.json writes it as null, which strict JSON accepts
    _x, plan = _nan_departure(tiny_solved)
    audit = chance_audit(plan, tiny.fleet, 0.0, 2)
    assert np.isnan(audit.worst_soc[0]) and audit.worst_soc[1] >= 0.9 - 1e-7
    doc = json.loads(json.dumps(audit.as_dict(), allow_nan=False))
    assert doc["worst_soc"][0] is None
    assert doc["substandard"] == [{"scenario": 0, "ev": 0, "soc": None}]


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


def test_chance_audit_refuses_other_scenario_count(tiny, tiny_solved):
    with pytest.raises(InvalidParameterError) as ei:
        chance_audit(tiny_solved.plan, tiny.fleet, 0.0, 3)
    assert str(ei.value) == "solution has 2 scenarios, audit asked about 3"


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
    chk = verify_plan(tiny_solved.plan, tiny.scen, tiny.catalog,
                      tiny.tariffs)
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


# (label, field, index, added value): each breaks one verify_plan check
# family of the tiny plan (no BESS, one vehicle a day, parked s0 t0..t2
# and s1 t1..t3, z = 0); a NaN inside a visit breaks its window
_BREAKS = [
    ("elec balance", "grid", (0, 1), 1.0),
    ("heat surplus", "tess_ch", (0, 1), 50.0),
    ("bess chain", "bess_ch", (0, 1), 1.0),
    ("tess chain", "tess_e", (0, 1), 1.0),
    ("ev chain", "ev_e", (0, 0, 2), 1.0),
    ("bess soc low", "bess_e", (0, 1), -1.0),
    ("bess soc high", "bess_e", (0, 2), 1.0),
    ("tess soc low", "tess_e", (0, 2), -50.0),
    ("tess soc high", "tess_e", (0, 3), 50.0),
    ("ev soc low", "ev_e", (0, 0, 1), -20.0),
    ("ev soc high", "ev_e", (0, 0, 2), 30.0),
    ("ev charge window", "ev_ch", (0, 0, 1), np.nan),
    ("ev discharge window", "ev_dis", (1, 0, 2), np.nan),
    ("ev energy window", "ev_e", (1, 0, 2), np.nan),
    ("ev arrival", "ev_e", (0, 0, 0), 1.0),
    ("departure soc", "ev_e", (0, 0, 3), -10.0),
    ("ev departure energy", "e_dep", (0, 0), -1.0),
    ("tess charges and discharges", "tess_ch", (0, 0), 1.0),
    ("integral x_fc", "x_fc", "PEM_gas", 0.5),
    ("binary z", "z", (1,), 0.5),
]


def _broken(plan, breaks):
    """A copy of plan with each break's value added."""
    changed = {}
    for _label, name, at, delta in breaks:
        if name not in changed:
            val = getattr(plan, name)
            changed[name] = (dict(val) if isinstance(val, dict)
                             else val.astype(float))
        changed[name][at] += delta
    return dataclasses.replace(plan, **changed)


@pytest.mark.parametrize("brk", _BREAKS, ids=[b[0] for b in _BREAKS])
def test_verify_plan_names_each_check_family(tiny, tiny_solved, brk):
    chk = verify_plan(_broken(tiny_solved.plan, [brk]), tiny.scen,
                      tiny.catalog, tiny.tariffs)
    assert not chk.ok
    assert any(issue.startswith(brk[0]) for issue in chk.issues), chk.issues


def test_plan_check_issues_print_plain_numbers(tiny, tiny_solved):
    chk = verify_plan(_broken(tiny_solved.plan, _BREAKS), tiny.scen,
                      tiny.catalog, tiny.tariffs)
    for label, *_rest in _BREAKS:
        assert any(issue.startswith(label) for issue in chk.issues), label
    for issue in chk.issues:
        assert "np.float64" not in issue
        float(issue.rpartition(": ")[2])


def test_each_tess_break_fails_check_solution(tiny, tiny_solved):
    # the TESS window uses the column bounds' tolerance: a plan it fails
    # is one whose x check_solution already rejects at the same column
    model, x = tiny_solved.model, tiny_solved.sol.x
    for label, _name, at, delta in _BREAKS:
        if not label.startswith("tess soc"):
            continue
        col = "TE{}_{}".format(*at)
        bad = x.copy()
        bad[model.col_names.index(col)] += delta
        report = check_solution(model, bad)
        assert [c for c, _v in report.bad_bounds] == [col], label


# The scalar loop version of verify_plan, scenario-first: the reference
# that the whole-array laws of hubplan.analysis must match, apart from the
# TESS window it never checked.

def _verify_plan_py(solution, scenario_set, catalog, tariffs):
    """Recheck a plan from physics, without the model or the solver.

    Electric balance residuals are scaled by (1 + max electric load); heat
    surplus must be >= -FEAS_TOL absolutely; each fuel cell's electric and
    heat output may exceed its cap, max_elec or max_heat times x_fc, by
    FEAS_TOL * (1 + cap); so may PV leave [0, min(pv_avail, pv_cap)] and
    grid import [0, grid_cap]; storage dynamics, cyclic closure
    and SOC windows are checked to FEAS_TOL on energies. A store may not
    charge and discharge more than FEAS_TOL each in the same hour. Each
    vehicle's window, arrival energy and departure come from its record.
    """
    issues = []
    worst = 0.0

    def resid(label, value, bar):
        # balance/chain residual: always counts toward max_residual
        nonlocal worst
        worst = max(worst, abs(value))
        if abs(value) > bar:
            issues.append(f"{label}: {float(value)!r}")

    def flag(cond, label, value):
        # window/integrality check: counts only when violated
        if not cond:
            issues.append(f"{label}: {float(value)!r}")

    bess, tess, fleet = catalog.bess, catalog.tess, catalog.ev_fleet
    n = scenario_set.grid.n_scenarios
    t_day = scenario_set.grid.hours_per_day
    max_e_load = max(max(sc.elec_load) for sc in scenario_set.scenarios)
    e_scale = 1.0 + max_e_load

    for s, sc in enumerate(scenario_set.scenarios):
        for t in range(t_day):
            supply = (solution.grid[s, t] + solution.pv[s, t]
                      - solution.bess_ch[s, t] / bess.eta_ch
                      + bess.eta_dis * solution.bess_dis[s, t])
            for i, fc in enumerate(catalog.fuel_cells):
                supply += fc.gas_to_elec * solution.fuel[s, t, i]
            for j in range(solution.ev_ch.shape[1]):
                ch = solution.ev_ch[s, j, t]
                if not np.isnan(ch):
                    supply -= ch / fleet.eta_ch
                    supply += fleet.eta_dis * solution.ev_dis[s, j, t]
            resid(f"elec balance s{s} t{t}",
                  (supply - sc.elec_load[t]) / e_scale, FEAS_TOL)

            heat = (- solution.tess_ch[s, t] / tess.eta_ch
                    + tess.eta_dis * solution.tess_dis[s, t])
            for i, fc in enumerate(catalog.fuel_cells):
                heat += fc.gas_to_heat * solution.fuel[s, t, i]
            surplus = heat - sc.heat_load[t]
            flag(surplus >= -FEAS_TOL, f"heat surplus s{s} t{t}", surplus)
            for i, fc in enumerate(catalog.fuel_cells):
                units = solution.x_fc[fc.fc_id]
                for port, gain, most in (
                        ("elec", fc.gas_to_elec, fc.max_elec),
                        ("heat", fc.gas_to_heat, fc.max_heat)):
                    out, cap = gain * solution.fuel[s, t, i], most * units
                    flag(out <= cap + FEAS_TOL * (1 + cap),
                         f"fc {port} output {fc.fc_id} s{s} t{t}", out)
            for label, v, cap in (
                    ("pv", solution.pv[s, t],
                     min(sc.pv_avail[t], tariffs.pv_cap)),
                    ("grid import", solution.grid[s, t], tariffs.grid_cap)):
                tol = FEAS_TOL * (1 + cap)
                flag(-tol <= v <= cap + tol, f"{label} s{s} t{t}", v)

        # storage chains with cyclic wrap: E(t+1) = E(t) + ch(t) - dis(t)
        for t in range(t_day):
            t_next = (t + 1) % t_day
            r_b = (solution.bess_e[s, t_next] - solution.bess_e[s, t]
                   - solution.bess_ch[s, t] + solution.bess_dis[s, t])
            resid(f"bess chain s{s} t{t}", r_b, FEAS_TOL)
            r_t = (solution.tess_e[s, t_next] - solution.tess_e[s, t]
                   - solution.tess_ch[s, t] + solution.tess_dis[s, t])
            resid(f"tess chain s{s} t{t}", r_t, FEAS_TOL)

        cap = solution.x_ess
        for t in range(t_day):
            e = solution.bess_e[s, t]
            flag(e >= bess.soc_min * cap - FEAS_TOL * (1 + cap),
                 f"bess soc low s{s} t{t}", e)
            flag(e <= bess.soc_max * cap + FEAS_TOL * (1 + cap),
                 f"bess soc high s{s} t{t}", e)

        cap_ev = fleet.capacity
        tol_ev = FEAS_TOL * (1 + cap_ev)
        for j, rec in enumerate(sc.ev_records):
            arrive, depart = rec.arrive_hour, rec.depart_hour
            ev_e = solution.ev_e[s, j]
            # NaN outside the hours the plan has no value for, also in
            # the chain
            for t in range(t_day):
                r = (ev_e[t + 1] - ev_e[t] - solution.ev_ch[s, j, t]
                     + solution.ev_dis[s, j, t])
                resid(f"ev chain s{s} j{j} t{t}", r, FEAS_TOL)
                for name, v in (("charge", solution.ev_ch[s, j, t]),
                                ("discharge", solution.ev_dis[s, j, t])):
                    flag(np.isnan(v) != (arrive <= t < depart),
                         f"ev {name} window s{s} j{j} t{t}", v)
            for t in range(t_day + 1):
                flag(np.isnan(ev_e[t]) != (arrive <= t <= depart),
                     f"ev energy window s{s} j{j} t{t}", ev_e[t])
            for t in range(arrive + 1, depart + 1):
                flag(ev_e[t] >= fleet.soc_min * cap_ev - tol_ev,
                     f"ev soc low s{s} j{j} t{t}", ev_e[t])
                flag(ev_e[t] <= fleet.soc_max * cap_ev + tol_ev,
                     f"ev soc high s{s} j{j} t{t}", ev_e[t])
            flag(abs(ev_e[arrive] - rec.initial_soc * cap_ev) <= tol_ev,
                 f"ev arrival s{s} j{j}", ev_e[arrive])
            # z=0 scenarios owe every EV its target at departure, read
            # from its path; e_dep repeats that energy
            if solution.z[s] == 0:
                dep_soc = ev_e[depart] / fleet.capacity
                flag(dep_soc >= fleet.target_departure_soc
                     - FEAS_TOL * (1 + fleet.target_departure_soc),
                     f"departure soc s{s} j{j}", dep_soc)
            e_dep = solution.e_dep[s, j]
            flag(math.isclose(e_dep, ev_e[depart], rel_tol=0.0,
                              abs_tol=tol_ev)
                 or math.isnan(e_dep) and math.isnan(ev_e[depart]),
                 f"ev departure energy s{s} j{j}", e_dep)

    for store, ch, dis in (("bess", solution.bess_ch, solution.bess_dis),
                           ("tess", solution.tess_ch, solution.tess_dis),
                           ("ev", solution.ev_ch, solution.ev_dis)):
        both = np.fmin(ch, dis)  # NaN outside a vehicle's window
        for at in np.argwhere(both > FEAS_TOL).tolist():
            where = (f"s{at[0]} t{at[1]}" if len(at) == 2
                     else f"s{at[0]} j{at[1]} t{at[2]}")
            issues.append(f"{store} charges and discharges {where}: "
                          f"{float(both[tuple(at)])!r}")

    for fc_id, units in solution.x_fc.items():
        flag(abs(units - round(units)) <= INT_TOL, f"integral x_fc {fc_id}",
             units)
    for s in range(n):
        flag(solution.z[s] in (0, 1), f"binary z s{s}", solution.z[s])

    return PlanCheck(ok=not issues, max_residual=worst, issues=issues)


def _chance_audit_py(solution, fleet, zeta, n_scenarios):
    """The loop version of chance_audit, scenario-first: the reference that
    its whole-array form must match exactly."""
    n, n_ev = solution.e_dep.shape
    target = fleet.target_departure_soc
    threshold = target - FEAS_TOL * (1.0 + target)
    worst = np.ones(n)
    bad = []
    for s in range(n):
        for j in range(n_ev):
            soc = solution.e_dep[s, j] / fleet.capacity
            worst[s] = np.minimum(worst[s], soc)  # NaN propagates
            if not soc >= threshold:  # a NaN SOC is substandard
                bad.append((s, j, float(soc)))
    count = len({s for s, _j, _soc in bad})
    limit = max_substandard(n_scenarios, zeta)
    return ChanceAudit(worst_soc=worst, substandard=bad, count=count,
                       limit=limit, passed=count <= limit)


def _same_check(got, ref):
    """got, less its TESS window lines, has ref's issues and bit-equal
    max_residual; returns the TESS window lines."""
    tess = [i for i in got.issues if i.startswith("tess soc")]
    assert collections.Counter(got.issues) - collections.Counter(tess) \
        == collections.Counter(ref.issues)
    assert float(got.max_residual).hex() == float(ref.max_residual).hex()
    assert got.ok == (ref.ok and not tess)
    return tess


def test_verify_plan_matches_scalar_reference(tiny, tiny_solved):
    # 1-3 entries of the tiny plan's value fields (all but its time grid),
    # NaN entries included, moved by 1e-8 to 1e2 either way
    plan = tiny_solved.plan
    names = [f.name for f in dataclasses.fields(plan)
             if f.name != "time_grid"]
    rng = np.random.default_rng(25)
    flagged = tess = 0
    for _case in range(1000):
        changed = {}
        for _k in range(rng.integers(1, 4)):
            name = names[rng.integers(len(names))]
            val = changed.get(name, getattr(plan, name))
            delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8, 2)
            if name == "x_ess":
                val = val + delta
            elif name == "x_fc":
                val = {k: v + delta for k, v in val.items()}
            else:
                val = val.astype(float)
                val[tuple(rng.integers(n) for n in val.shape)] += delta
            changed[name] = val
        broken = dataclasses.replace(plan, **changed)
        ref = _verify_plan_py(broken, tiny.scen, tiny.catalog, tiny.tariffs)
        assert chance_audit(broken, tiny.fleet, 0.5, 2).as_dict() \
            == _chance_audit_py(broken, tiny.fleet, 0.5, 2).as_dict()
        tess += len(_same_check(verify_plan(broken, tiny.scen, tiny.catalog,
                                            tiny.tariffs),
                                ref))
        flagged += not ref.ok
    assert flagged > 500 and tess > 0


@pytest.mark.parametrize("seed", [7, 11, 12])
def test_verify_plan_matches_scalar_reference_on_bundled_plans(data_dir,
                                                               seed):
    # the README's plan at three seeds, as branch and bound returns it,
    # before solve_level repairs its overlaps; then with 0.5 kW more charge
    # and discharge at the first TESS hour, which leaves the TESS chain as
    # it was, so that the overlap law fires whatever vertex arrives
    case = read_case(os.path.join(data_dir, "case.json"))
    history = read_history(os.path.join(data_dir, "history_loads.csv"),
                           os.path.join(data_dir, "history_ev.csv"))
    scen, _ = generate_scenarios(case, *history, n_scenarios=10, seed=seed)
    tariffs = case.tariffs.with_carbon_tax(40)
    model = assemble_model(scen.grid, case.catalog, tariffs, scen,
                           ModelConfig())
    plan = extract_solution(branch_and_bound(model), model.var_index)
    fleet = case.catalog.ev_fleet
    assert chance_audit(plan, fleet, 0.05, 10).as_dict() \
        == _chance_audit_py(plan, fleet, 0.05, 10).as_dict()
    got = verify_plan(plan, scen, case.catalog, tariffs)
    assert _same_check(got, _verify_plan_py(plan, scen, case.catalog,
                                            tariffs)) == []
    bump = np.zeros_like(plan.tess_ch)
    bump[0, 0] = 0.5
    plan = dataclasses.replace(plan, tess_ch=plan.tess_ch + bump,
                               tess_dis=plan.tess_dis + bump)
    got = verify_plan(plan, scen, case.catalog, tariffs)
    assert _same_check(got, _verify_plan_py(plan, scen, case.catalog,
                                            tariffs)) == []
    assert any(issue.startswith("tess charges and discharges s0 t0: ")
               for issue in got.issues)


def test_verify_plan_reads_each_visit_from_its_record(tiny, tiny_solved):
    # two plans whose every other law holds: scenario 0's vehicle arriving
    # with 2 kWh more than its record's 0.4 * 40, and one whose path
    # departs with 33 kWh (SOC 0.825) while e_dep still reads the target,
    # which the chance audit takes
    plan, fleet = tiny_solved.plan, tiny.fleet
    ev_e, e_dep = plan.ev_e.copy(), plan.e_dep.copy()
    ev_e[0, 0] += 2.0
    e_dep[0, 0] += 2.0
    early = dataclasses.replace(plan, ev_e=ev_e, e_dep=e_dep)
    short = dataclasses.replace(_departing_with(plan, fleet, 33.0),
                                e_dep=plan.e_dep)
    assert chance_audit(short, fleet, 0.0, 2).passed
    for bad, issues in (
            (early, ["ev arrival s0 j0: 18.0"]),
            (short, ["departure soc s0 j0: 0.825",
                     f"ev departure energy s0 j0: "
                     f"{float(plan.e_dep[0, 0])!r}"])):
        got = verify_plan(bad, tiny.scen, tiny.catalog, tiny.tariffs)
        assert got.issues == issues
        assert _same_check(got, _verify_plan_py(
            bad, tiny.scen, tiny.catalog, tiny.tariffs)) == []


def test_verify_plan_judges_by_the_records_it_is_given(tiny, tiny_solved):
    # the tiny plan against a scenario set whose first vehicle stays one
    # hour longer and arrives with 0.45 of its capacity: the plan has no
    # values for hour 3's dispatch or hour 4's energy, and arrives with 16
    # kWh, not 18
    first = dataclasses.replace(tiny.scen.scenarios[0],
                                ev_records=(EvRecord(0, 4, 0.45),))
    scen = dataclasses.replace(tiny.scen, scenarios=(
        first, *tiny.scen.scenarios[1:]))
    got = verify_plan(tiny_solved.plan, scen, tiny.catalog, tiny.tariffs)
    assert [issue.partition(":")[0] for issue in got.issues] == [
        "ev soc low s0 j0 t4", "ev soc high s0 j0 t4",
        "ev charge window s0 j0 t3", "ev discharge window s0 j0 t3",
        "ev energy window s0 j0 t4", "ev arrival s0 j0",
        "departure soc s0 j0", "ev departure energy s0 j0"]
    assert _same_check(got, _verify_plan_py(
        tiny_solved.plan, scen, tiny.catalog, tiny.tariffs)) == []


def test_verify_plan_holds_the_heat_port_to_its_cap(tiny, tiny_solved):
    # scenario 0's hour 1 burns fuel for 1 kW of heat past its cap,
    # max_heat * x_fc; the electric output it adds, within max_elec *
    # x_fc at the 3 or more units the peak heat load of 14 kW takes,
    # comes off grid import, so every other law holds
    plan, fc = tiny_solved.plan, tiny.fc
    cap = fc.max_heat * plan.x_fc["PEM_gas"]
    fuel, grid = plan.fuel.copy(), plan.grid.copy()
    extra = (cap + 1.0) / fc.gas_to_heat - fuel[0, 1, 0]
    fuel[0, 1, 0] += extra
    grid[0, 1] -= fc.gas_to_elec * extra
    bad = dataclasses.replace(plan, fuel=fuel, grid=grid)
    got = verify_plan(bad, tiny.scen, tiny.catalog, tiny.tariffs)
    assert got.issues == ["fc heat output PEM_gas s0 t1: "
                          f"{float(fc.gas_to_heat * fuel[0, 1, 0])!r}"]
    assert _same_check(got, _verify_plan_py(
        bad, tiny.scen, tiny.catalog, tiny.tariffs)) == []


def test_verify_plan_reads_the_port_caps_from_its_catalog(tiny,
                                                          tiny_solved):
    # the tiny plan against a catalog whose PEM_gas gives at most 4 kW
    # of electricity a unit: every hour whose fuel yields more at the
    # plan's count is reported, and only those
    plan, fc = tiny_solved.plan, tiny.fc
    catalog = dataclasses.replace(tiny.catalog, fuel_cells=(
        dataclasses.replace(fc, max_elec=4.0),))
    cap = 4.0 * plan.x_fc["PEM_gas"]
    out = fc.gas_to_elec * plan.fuel[..., 0]
    got = verify_plan(plan, tiny.scen, catalog, tiny.tariffs)
    assert got.issues == [
        f"fc elec output PEM_gas s{s} t{t}: {float(out[s, t])!r}"
        for s, t in np.argwhere(out > cap + 1e-3)]
    assert got.issues
    assert _same_check(got, _verify_plan_py(plan, tiny.scen, catalog,
                                           tiny.tariffs)) == []


def _pv_for_import(plan):
    """5 kW of PV at s0 t0, whose availability is 0, and 5 kW less
    import."""
    pv, grid = plan.pv.copy(), plan.grid.copy()
    pv[0, 0] += 5.0
    grid[0, 0] -= 5.0
    return dataclasses.replace(plan, pv=pv, grid=grid)


def _export(plan, fleet):
    """1 kW of export at s1 t2, where the plan imports nothing: scenario
    1's vehicle charges 1 kW of grid power less then and more at t3, with
    its energy at t3 lower between them."""
    grid, ev_ch, ev_e = plan.grid.copy(), plan.ev_ch.copy(), plan.ev_e.copy()
    assert grid[1, 2] == 0.0
    grid[1, 2:] += (-1.0, 1.0)
    ev_ch[1, 0, 2:] += (-fleet.eta_ch, fleet.eta_ch)
    ev_e[1, 0, 3] -= fleet.eta_ch
    return dataclasses.replace(plan, grid=grid, ev_ch=ev_ch, ev_e=ev_e)


@pytest.mark.parametrize("case", ["pv above availability", "export",
                                  "grid_cap", "pv_cap"])
def test_verify_plan_holds_pv_and_import_to_their_ranges(tiny, tiny_solved,
                                                         case):
    # plans that pass every other law: the tiny plan with PV where none is
    # available, or exporting, and the tiny plan itself against tariffs
    # with a grid_cap 1 kW below its largest import, or a pv_cap of 11 kW
    plan, tariffs = tiny_solved.plan, tiny.tariffs
    bad, issues = {
        "pv above availability": (_pv_for_import(plan), ["pv s0 t0: 5.0"]),
        "export": (_export(plan, tiny.fleet),
                   [f"grid import s1 t2: {-1.0!r}"]),
        "grid_cap": (plan, [f"grid import s0 t0: {float(plan.grid[0, 0])!r}"]),
        "pv_cap": (plan, ["pv s0 t2: 12.0", "pv s1 t2: 15.0"])}[case]
    if case == "grid_cap":
        tariffs = dataclasses.replace(tariffs,
                                      grid_cap=plan.grid.max() - 1.0)
    elif case == "pv_cap":
        tariffs = dataclasses.replace(tariffs, pv_cap=11.0)
    got = verify_plan(bad, tiny.scen, tiny.catalog, tariffs)
    assert got.issues == issues
    assert _same_check(got, _verify_plan_py(bad, tiny.scen, tiny.catalog,
                                            tariffs)) == []


def test_repair_keeps_the_cost_of_a_bundled_plan(data_dir, monkeypatch):
    # the README's plan at seed 11, its own overlaps repaired, is given an
    # overlap of 0.5 kW at the first vehicle-hour, in (s, t, j) order,
    # whose charge and discharge have room for it and whose hour uses PV
    # enough to curtail; grid import makes up what the overlap costs the
    # bus. solve_level repairs it at the cost it was given, to the bit
    import hubplan.analysis as analysis
    case = read_case(os.path.join(data_dir, "case.json"))
    history = read_history(os.path.join(data_dir, "history_loads.csv"),
                           os.path.join(data_dir, "history_ev.csv"))
    scen, _ = generate_scenarios(case, *history, n_scenarios=10, seed=11)
    tariffs, config = case.tariffs.with_carbon_tax(40), ModelConfig()
    model = assemble_model(scen.grid, case.catalog, tariffs, scen, config)
    sol = branch_and_bound(model)
    index, catalog, ub = model.var_index, case.catalog, model.col_ub
    x, _, left = repair_overlap(index, catalog, sol.x)
    assert left == []
    delta, fleet = 0.5, catalog.ev_fleet
    gain = delta * (1.0 / fleet.eta_ch - fleet.eta_dis)
    ch, dis = index.ids[K_VCH], index.ids[K_VDIS]
    pv, grid = (np.broadcast_to(index.ids[k][..., None], ch.shape)
                for k in (K_PV, K_GRID))
    room = ((ch >= 0) & (x[ch] + delta <= ub[ch])
            & (x[dis] + delta <= ub[dis]) & (x[pv] >= gain)
            & (x[grid] + gain <= ub[grid]))
    at = tuple(np.argwhere(room)[0])
    built = x.copy()
    built[[ch[at], dis[at]]] += delta
    built[grid[at]] += gain
    assert check_solution(model, built).ok
    raw = dataclasses.replace(sol, x=built)
    monkeypatch.setattr(analysis, "branch_and_bound", lambda *a, **k: raw)
    level = analysis.solve_level(model, scen, catalog, tariffs, config, None,
                                 None)
    assert (level.overlap, level.unrepaired) == ([model.col_names[ch[at]]],
                                                 [])
    raw_plan = extract_solution(raw, index)
    assert not verify_plan(raw_plan, scen, catalog, tariffs).ok
    assert level.check.ok and level.plan_check.ok
    assert level.bnb.objective == sol.objective
    assert model.obj @ level.bnb.x == model.obj @ built
    assert level.breakdown.as_dict() == cost_breakdown(
        raw_plan, catalog, tariffs).as_dict()
    # only the overlapping store-hour and its hour's PV moved
    assert np.flatnonzero(level.bnb.x != built).tolist() == sorted(
        [ch[at], dis[at], pv[at]])


def test_unrepairable_overlap_is_reported(tiny, tiny_solved, monkeypatch):
    # an overlap in an hour without PV is left as it is, and fails the
    # plan check
    import hubplan.analysis as analysis
    sol, model = tiny_solved.sol, tiny_solved.model
    x = with_pv_less_overlap(model, tiny.fleet, sol.x)
    monkeypatch.setattr(analysis, "branch_and_bound",
                        lambda *a, **k: dataclasses.replace(sol, x=x))
    level = analysis.solve_level(model, tiny.scen, tiny.catalog,
                                 tiny.tariffs, tiny.config, None, None)
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
    sw = sweep_carbon_tax(tiny.catalog, tiny.tariffs, tiny.scen,
                          tiny.config, [40.0, 1000.0])
    assert [lv.status for lv in sw.levels] == ["optimal", "optimal"]
    lo, hi = (lv.breakdown.total for lv in sw.levels)
    assert hi >= lo - 1e-9

    tar40 = dataclasses.replace(tiny.tariffs, carbon_tax=0.04)
    model = assemble_model(tiny.grid, tiny.catalog, tar40, tiny.scen,
                           tiny.config)
    direct = branch_and_bound(model)
    assert lo == pytest.approx(direct.objective, rel=1e-9)
    assert sw.notes  # trend notes always come back


def test_sweep_levels_carry_plan(tiny):
    sw = sweep_carbon_tax(tiny.catalog, tiny.tariffs, tiny.scen,
                          tiny.config, [40.0])
    lv = sw.levels[0]
    assert lv.carbon_tax == 40.0
    assert lv.audit.count == 0
    assert lv.plan.x_fc["PEM_gas"] >= 0 and lv.plan.x_ess >= 0.0
    assert lv.bnb.n_nodes >= 1 and lv.bnb.wall_time >= 0.0


def test_sweep_refuses_a_bad_level_before_solving(tiny, monkeypatch):
    # the bad level is the last: nothing is assembled or solved before it
    import hubplan.analysis as analysis

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the bad level was refused")

    monkeypatch.setattr(analysis, "assemble_model", must_not_run)
    monkeypatch.setattr(analysis, "solve_level", must_not_run)
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(InvalidParameterError, match="carbon_tax"):
            analysis.sweep_carbon_tax(tiny.catalog, tiny.tariffs,
                                      tiny.scen, tiny.config, [40.0, bad])
    with pytest.raises(InvalidParameterError, match="must not be empty"):
        analysis.sweep_carbon_tax(tiny.catalog, tiny.tariffs,
                                  tiny.scen, tiny.config, [])


def test_sweep_refuses_a_total_that_falls_with_the_tax(tiny, monkeypatch):
    # same feasible set, pointwise-larger objective: a lower total at the
    # higher tax is a solver defect, named by both levels
    import hubplan.analysis as analysis
    totals = iter([5.0, 3.0])
    real = analysis.cost_breakdown

    def falling(plan, catalog, tariffs):
        bd = real(plan, catalog, tariffs)
        bd.total = next(totals)
        return bd

    monkeypatch.setattr(analysis, "cost_breakdown", falling)
    with pytest.raises(SolverError) as ei:
        analysis.sweep_carbon_tax(tiny.catalog, tiny.tariffs, tiny.scen,
                                  tiny.config, [40.0, 1000.0])
    assert str(ei.value) == ("total cost fell from 5.0 at tax 40.0 to 3.0 "
                             "at tax 1000.0; must be non-decreasing")


def test_sweep_level_failing_its_check_is_an_error(tiny, monkeypatch,
                                                    tmp_path):
    # the level keeps its verdicts, but reports no plan and no total
    import hubplan.analysis as analysis
    from hubplan.milp import VerifyReport
    monkeypatch.setattr(analysis, "check_solution", lambda model, x:
                        VerifyReport(ok=False, max_residual=1.0,
                                     bad_rows=[("EB0_0", 1.0)]))
    sw = analysis.sweep_carbon_tax(tiny.catalog, tiny.tariffs,
                                   tiny.scen, tiny.config, [40.0])
    lv, = sw.levels
    assert (lv.status, lv.bnb.status) == ("error", "optimal")
    assert lv.error == ("optimal solution failed solution check: "
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
    # at zeta 0.5 and tax 5000 the plunge reaches its incumbent at the
    # fourth node with the tree still open (on the tiny case's own tree
    # that incumbent is the optimum): the sweep level holds the incumbent
    # and its verdicts, but keeps its status and reports no plan or total
    # in the tables
    sw = sweep_carbon_tax(tiny.catalog, tiny.tariffs, tiny.scen,
                          ModelConfig(zeta=0.5), [5000.0], max_nodes=4)
    lv, = sw.levels
    assert (lv.status, lv.error) == ("node_limit", "solver ended node_limit")
    assert lv.check.ok
    assert lv.breakdown.total == pytest.approx(lv.bnb.objective, rel=1e-9)
    doc = lv.as_dict()
    assert doc["objective"] == lv.bnb.objective
    assert doc["total"] is None and doc["gap"] > 0
    ps, cb = tmp_path / "plan_summary.csv", tmp_path / "cost_breakdown.csv"
    write_plan_summary(str(ps), sw, tiny.catalog)
    write_cost_breakdown(str(cb), sw)
    assert list(csv.reader(ps.open()))[1] == ["5000.0", "", "", "",
                                              "node_limit"]
    assert list(csv.reader(cb.open()))[1] == (["5000.0"] + [""] * 8
                                              + ["node_limit"])


def test_hint_when_only_integrality_binds():
    # 2x = 1 has the LP solution x = 0.5 and no binary one
    import hubplan.analysis as analysis
    from conftest import make_model
    from hubplan.model import BINARY, EQ
    model = make_model([1.0], [[2.0]], [EQ], [1.0], [0.0], [1.0], [BINARY])
    level = analysis.solve_level(model, None, None, None, None, None, None)
    assert level.bnb.status == "infeasible" and level.bnb.n_nodes > 1
    assert level.bnb.infeasible_rows == [] and level.plan is None
    assert level.infeasible_hint == ("LP relaxation is feasible; integer "
                                     "restrictions bind")
    assert level.as_dict()["infeasible_hint"] == level.infeasible_hint


def test_hint_names_rows_left_violated_by_their_start_column(tiny):
    # one fuel cell and 5 kW of grid import cannot meet the loads. Grid
    # import starts basic in each electric balance, so phase 1 leaves that
    # column, not the row's slack, out of bounds; the hint still names the
    # row's family
    import hubplan.analysis as analysis
    catalog = dataclasses.replace(tiny.catalog, fuel_cells=(
        dataclasses.replace(tiny.fc, max_units=1),))
    tariffs = dataclasses.replace(tiny.tariffs, grid_cap=5.0)
    model = assemble_model(tiny.grid, catalog, tariffs, tiny.scen,
                           tiny.config)
    level = analysis.solve_level(model, tiny.scen, catalog, tariffs,
                                 tiny.config, None, None)
    assert level.status == "infeasible"
    assert level.infeasible_hint == ("LP stage violates: electric balance, "
                                     "heat balance, departure-SOC targets")


@pytest.mark.parametrize("max_units, grid_cap, families", [
    (1, math.inf, "heat balance"),
    (2, math.inf, "heat balance"),
    (3, 0.0, "electric balance, departure-SOC targets"),
    (3, 5.0, "departure-SOC targets"),
])
def test_hint_with_and_without_a_heat_start(tiny, max_units, grid_cap,
                                            families):
    # the tiny case's peak heat load needs 2.8 fuel-cell units: with 1 or
    # 2 the heat balances start on their slacks, with 3 on the fuel; the
    # hint names the families phase 1 leaves violated either way
    import hubplan.analysis as analysis
    catalog = dataclasses.replace(tiny.catalog, fuel_cells=(
        dataclasses.replace(tiny.fc, max_units=max_units),))
    tariffs = dataclasses.replace(tiny.tariffs, grid_cap=grid_cap)
    model = assemble_model(tiny.grid, catalog, tariffs, tiny.scen,
                           tiny.config)
    level = analysis.solve_level(model, tiny.scen, catalog, tariffs,
                                 tiny.config, None, None)
    assert level.status == "infeasible"
    assert level.infeasible_hint == f"LP stage violates: {families}"


def test_every_row_has_a_constraint_family(tiny):
    # the infeasibility hint names a row's family by its name's first letter
    from hubplan.analysis import _FAMILIES
    model = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                           ModelConfig(zeta=0.5))
    assert {name[0] for name in model.row_names} == set(_FAMILIES)


def test_writers(tiny, tiny_solved, tmp_path):
    sw = sweep_carbon_tax(tiny.catalog, tiny.tariffs, tiny.scen,
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
    sw = sweep_carbon_tax(tiny.catalog, tiny.tariffs, tiny.scen,
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
    sw = analysis.sweep_carbon_tax(tiny.catalog, tiny.tariffs,
                                   tiny.scen, tiny.config, taxes)
    assert [lv.status for lv in sw.levels] == ["optimal"] * 3
    assert len(assembled) == 1 and len(solved) == 3
    for tax, model in zip(taxes, solved):
        tar = dataclasses.replace(tiny.tariffs, carbon_tax=tax / 1000.0)
        fresh = assemble(tiny.grid, tiny.catalog, tar, tiny.scen, tiny.config)
        assert model.obj.tobytes() == fresh.obj.tobytes()
        assert (model.a_matrix != fresh.a_matrix).nnz == 0
        assert np.array_equal(model.rhs, fresh.rhs)
