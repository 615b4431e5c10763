"""Acceptance gate: nine end-to-end behaviors checked at fixed tolerances.

Each test prints one [C#] summary line; the c8 check re-verifies every
solution the earlier criteria produced, so file order matters.
"""
import dataclasses
import os
import time

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from conftest import make_model, with_exclusivity_flags
from mps_oracle import parse_mps
from test_mps import assert_models_equal, rand_model

from hubplan.analysis import chance_audit, cost_breakdown
from hubplan.core import (BessSpec, EquipmentCatalog, EvFleetSpec, EvRecord,
                          FcSpec, Scenario, ScenarioSet, TariffSet, TessSpec,
                          TimeGrid, annualization_factor)
from hubplan.fileio import read_case, read_history
from hubplan.milp import (branch_and_bound, check_solution, extract_solution,
                          solve_lp, write_mps)
from hubplan.milp.solution import PlanSolution
from hubplan.model import (BINARY, CONT, GE, INTEGER, K_BCH, K_BDIS, K_BE,
                           K_FUEL, K_GRID, K_PV, K_TCH, K_TDIS, K_TE, K_VCH,
                           K_VDIS, K_VE, K_XFC, K_Z, LE, ModelConfig,
                           assemble_model, max_substandard, repair_overlap)
from hubplan.scengen import (MomentTargets, generate_scenarios, hmm_generate,
                             sample_moments)

VERIFIED = []   # (label, model, x) pairs accumulated for the c8 recheck


# ---------------------------------------------------------------- c1

# five reference plans (SOFC, PEM_gas, PEM_H2 units, BESS kWh) and the
# audited investment parts they must price to, in 1e4 yuan
REF_PLANS = [
    ((0, 27, 0), 1490.0, 810.0, 224.0),
    ((0, 17, 1), 1490.0, 805.0, 224.0),
    ((0, 7, 2), 1400.0, 800.0, 211.0),
    ((0, 7, 2), 1520.0, 800.0, 228.0),
    ((0, 0, 3), 1330.0, 885.0, 199.0),
]


def _zero_plan(n, t, n_fc, n_ev, x_ess, x_fc):
    def z(*shape):
        return np.zeros(shape)

    return PlanSolution(
        x_ess=x_ess, x_fc=x_fc, grid=z(n, t), pv=z(n, t),
        fuel=z(n, t, n_fc), bess_ch=z(n, t), bess_dis=z(n, t),
        bess_e=z(n, t), tess_ch=z(n, t), tess_dis=z(n, t), tess_e=z(n, t),
        ev_ch=np.full((n, n_ev, t), np.nan),
        ev_dis=np.full((n, n_ev, t), np.nan),
        ev_e=np.full((n, n_ev, t + 1), np.nan), shortfall=z(n, n_ev),
        e_dep=z(n, n_ev), z=np.zeros(n, dtype=np.int64))


def _ref_breakdown(case, row):
    units, kwh, _, _ = row
    m = annualization_factor(case.time_grid(1))
    plan = _zero_plan(1, case.hours_per_day, 3, case.catalog.ev_fleet.n_ev,
                      kwh, dict(zip(("SOFC", "PEM_gas", "PEM_H2"), units)))
    return cost_breakdown(plan, case.catalog, case.tariffs, m)


def test_c1_reference_investment_parts(data_dir):
    case = read_case(os.path.join(data_dir, "case.json"))
    t0 = time.perf_counter()
    parts = [_ref_breakdown(case, row) for row in REF_PLANS]
    el = time.perf_counter() - t0
    assert el < 1.0
    for bd, row in zip(parts, REF_PLANS):
        assert bd.fc_investment == row[2]
    for i in (0, 1, 3, 4):
        assert abs(parts[i].bess_investment - REF_PLANS[i][3]) <= 0.5
    print(f"\n[C1] 5 reference plans priced: fuel-cell parts exact, "
          f"bess parts within 0.5 ({el * 1e3:.0f} ms)")


@pytest.mark.xfail(strict=True, reason="reference bess part 211 is not "
                   "invest_cost * 1400 kWh to within 0.5 (that is 210.0); "
                   "the neighbouring rows all reproduce")
def test_c1_bess_part_row_three(data_dir):
    case = read_case(os.path.join(data_dir, "case.json"))
    bd = _ref_breakdown(case, REF_PLANS[2])
    assert abs(bd.bess_investment - REF_PLANS[2][3]) <= 0.5


# ---------------------------------------------------------------- c2

def test_c2_annualization_against_running_sum():
    checked = 0
    for pp in (1, 5, 10, 30):
        for gamma in (0.0, 0.03, 0.06, 0.2):
            for n in (1, 10, 100, 365):
                acc = 0.0
                disc = 1.0
                for _ in range(pp):
                    acc += (365.0 / n) / disc
                    disc *= 1.0 + gamma
                got = annualization_factor(TimeGrid(24, n, pp, gamma))
                assert abs(got - acc) <= 1e-12 * abs(acc), (pp, gamma, n)
                checked += 1
    print(f"\n[C2] annualization matches the running-sum rule on "
          f"{checked} (years, discount, scenarios) grids to 1e-12")


# ---------------------------------------------------------------- c3

def _c3_fixture(k):
    """Randomized planning day with 0..limit vehicles that cannot reach
    the departure target; everything else is comfortably chargeable."""
    rng = np.random.default_rng(1000 + k)
    n = 100 if k in (0, 3) else 20
    t_day = 4
    catalog = EquipmentCatalog(
        fuel_cells=(FcSpec("PEM_gas", 30.0, 0.45, 0.4, 6.0, 5.0, 0.257,
                           0.22, 10),),
        bess=BessSpec(0.15, 0.25, 0.95, 0.95, 0.1, 0.9, 3000.0, 200.0),
        tess=TessSpec(40.0, 0.25, 0.9, 0.9),
        ev_fleet=EvFleetSpec(1, 40.0, 7.0, 0.125, 0.95, 0.95, 0.2, 1.0))
    tariffs = TariffSet(tuple(np.round(rng.uniform(0.2, 1.2, t_day), 3)),
                        tuple(np.round(rng.uniform(0.5, 0.9, t_day), 3)),
                        0.1, 2.0, 100.0, 50.0)
    limit = max_substandard(n, 0.05)
    n_forced = int(rng.integers(0, limit + 1))
    forced = set(rng.choice(n, size=n_forced, replace=False).tolist())
    scens = []
    for s in range(n):
        if s in forced:   # one parked hour starting at 20% charge
            ev = EvRecord(t_day - 1, t_day, 0.2)
        else:
            ev = EvRecord(0, t_day, float(np.round(rng.uniform(0.4, 0.8),
                                                   2)))
        scens.append(Scenario(tuple(np.round(rng.uniform(10, 35, t_day), 2)),
                              tuple(np.round(rng.uniform(4, 12, t_day), 2)),
                              tuple(np.round(rng.uniform(0, 8, t_day), 2)),
                              (ev,)))
    grid = TimeGrid(t_day, n, 10, 0.06)
    return grid, catalog, tariffs, ScenarioSet(grid=grid,
                                               scenarios=tuple(scens)), \
        n_forced


def test_c3_chance_budget_respected():
    t0 = time.perf_counter()
    counts = []
    for k in range(20):
        grid, catalog, tariffs, scen, n_forced = _c3_fixture(k)
        model = assemble_model(grid, catalog, tariffs, scen,
                               ModelConfig(zeta=0.05))
        sol = branch_and_bound(model)
        assert sol.status == "optimal", k
        plan = extract_solution(sol, model.var_index)
        audit = chance_audit(plan, catalog.ev_fleet, 0.05, grid.n_scenarios)
        limit = max_substandard(grid.n_scenarios, 0.05)
        assert audit.passed and audit.count <= limit, (k, audit.count)
        assert audit.count >= n_forced, (k, audit.count, n_forced)
        VERIFIED.append((f"c3[{k}]", model, sol.x))
        counts.append((grid.n_scenarios, audit.count, limit))
    el = time.perf_counter() - t0
    assert sum(1 for n, _, _ in counts if n == 100) == 2
    print(f"\n[C3] 20 solved fixtures: substandard counts "
          f"{[c for _, c, _ in counts]} all within floor(N * zeta) "
          f"({el:.0f} s)")


# ---------------------------------------------------------------- c4

Q = 0.01   # dispatch lattice pitch, kW


def _floor_lattice(v):
    return np.floor(v / Q + 1e-7) * Q


def _margined(model):
    """Copy of the model with slack margins wide enough to absorb the
    worst-case drift of flooring every flow to the lattice
    (per-hour <= 2*q plus one repaired cyclic residual <= T*q)."""
    rhs = model.rhs.copy()
    for r, name in enumerate(model.row_names):
        if name.startswith("HB"):
            rhs[r] += 0.055
        elif name.startswith(("BL", "BU")):
            rhs[r] -= 0.14
        elif name.startswith("SD"):
            rhs[r] += 0.07
    lb = model.col_lb.copy()
    ub = model.col_ub.copy()
    for j, name in enumerate(model.col_names):
        if name.startswith("TE"):
            lb[j] += 0.14
            ub[j] -= 0.14
        elif name.startswith("VE"):
            lb[j] += 0.08
            ub[j] -= 0.08
        elif name.startswith("GR"):
            ub[j] -= 0.1
    return dataclasses.replace(model, rhs=rhs), lb, ub


def _lattice_witness(model, x):
    """Project a dispatch onto the 0.01 kW lattice: floor flows, restore
    cyclic storage closure, rebuild energy chains, re-close the electric
    balance with the continuous grid and PV legs."""
    vi = model.var_index
    w = x.copy()
    for s in range(vi.n_scenarios):
        for t in range(vi.hours):
            for i in range(len(vi.fc_ids)):
                j = vi.ids[K_FUEL][s, t, i]
                w[j] = _floor_lattice(w[j])
            for k in (K_BCH, K_BDIS, K_TCH, K_TDIS):
                j = vi.ids[k][s, t]
                w[j] = _floor_lattice(w[j])
        for jv in range(vi.n_ev):
            a, d = vi.windows[(s, jv)]
            for t in range(a, d):
                for k in (K_VCH, K_VDIS):
                    j = vi.ids[k][s, t, jv]
                    w[j] = _floor_lattice(w[j])
        for kc, kd, ke in ((K_BCH, K_BDIS, K_BE), (K_TCH, K_TDIS, K_TE)):
            jc, jd, je = vi.ids[kc][s], vi.ids[kd][s], vi.ids[ke][s]
            uc = np.rint(w[jc] / Q).astype(int)
            ud = np.rint(w[jd] / Q).astype(int)
            delta = int(uc.sum() - ud.sum())
            while delta > 0:
                uc[int(np.argmax(uc))] -= 1
                delta -= 1
            while delta < 0:
                ud[int(np.argmax(ud))] -= 1
                delta += 1
            w[jc] = uc * Q
            w[jd] = ud * Q
            e = int(np.rint(_floor_lattice(w[je[0]]) / Q))
            for t in range(vi.hours):
                w[je[t]] = e * Q
                e += uc[t] - ud[t]
        for jv in range(vi.n_ev):
            a, d = vi.windows[(s, jv)]
            e = float(vi.ev_init[(s, jv)])
            for t in range(a + 1, d + 1):
                e += w[vi.ids[K_VCH][s, t - 1, jv]] \
                    - w[vi.ids[K_VDIS][s, t - 1, jv]]
                w[vi.ids[K_VE][s, t, jv]] = e
        w[vi.ids[K_Z][s]] = 0.0
    amat = model.a_matrix
    row_of = {nm: r for r, nm in enumerate(model.row_names)}
    for s in range(vi.n_scenarios):
        for t in range(vi.hours):
            r = row_of[f"EB{s}_{t}"]
            jg = vi.ids[K_GRID][s, t]
            jp = vi.ids[K_PV][s, t]
            sl = slice(amat.indptr[r], amat.indptr[r + 1])
            cols, vals = amat.indices[sl], amat.data[sl]
            ag = float(vals[cols == jg][0])
            w[jg] -= (float(vals @ w[cols]) - model.rhs[r]) / ag
            if w[jg] < 0.0:   # surplus: curtail PV instead of exporting
                ap = float(vals[cols == jp][0])
                w[jg] = 0.0
                w[jp] -= (float(vals @ w[cols]) - model.rhs[r]) / ap
                if w[jp] < -1e-12:
                    return None
    return w


def test_c4_lattice_oracle_brackets_bnb(tiny, tiny_solved):
    t0 = time.perf_counter()
    model, sol = tiny_solved.model, tiny_solved.sol
    root = solve_lp(model)
    mm, lb, ub = _margined(model)
    jf = model.var_index.ids[K_XFC][0]
    best = np.inf
    feasible = 0
    for k in range(int(model.col_ub[jf]) + 1):
        lbk, ubk = lb.copy(), ub.copy()
        lbk[jf] = ubk[jf] = float(k)
        lp = solve_lp(mm, col_lb=lbk, col_ub=ubk)
        if lp.status != "optimal":
            continue
        w = _lattice_witness(model, lp.x)
        if w is None:
            continue
        rep = check_solution(model, w)
        if rep.ok:
            feasible += 1
            best = min(best, float(model.obj @ w))
    el = time.perf_counter() - t0
    assert el < 30.0
    assert feasible >= 1 and np.isfinite(best)
    scale = max(1.0, abs(sol.objective))
    assert sol.objective <= best + 1e-9 * scale
    assert sol.objective >= root.objective - 1e-9 * scale
    assert best - sol.objective <= 1e-3 * scale
    VERIFIED.append(("c4", model, sol.x))
    print(f"\n[C4] lattice oracle {best:.6f} and root bound "
          f"{root.objective:.6f} bracket bnb {sol.objective:.6f}; "
          f"gap {(best - sol.objective) / scale:.2e} ({el:.1f} s)")


# ---------------------------------------------------------------- c5

def _overlap(plan):
    out = []
    for ch, ds in ((plan.bess_ch, plan.bess_dis),
                   (plan.tess_ch, plan.tess_dis),
                   (plan.ev_ch, plan.ev_dis)):
        out.append(float(np.max(np.nan_to_num(ch * ds, nan=0.0))))
    return max(out)


def _c5_fixture(k, n):
    """Planning day where losing energy is never worth paying for:
    electricity prices stay below the fuel-cell marginal generation cost
    (0.257 / 0.45), so the heat balance never rewards dumping surplus
    co-generated heat through a storage round trip."""
    rng = np.random.default_rng(2000 + k)
    t_day = 4
    catalog = EquipmentCatalog(
        fuel_cells=(FcSpec("PEM_gas", 30.0, 0.45, 0.4, 6.0, 5.0, 0.257,
                           0.22, 10),),
        bess=BessSpec(0.15, 0.25, 0.95, 0.95, 0.1, 0.9, 3000.0, 200.0),
        tess=TessSpec(40.0, 0.25, 0.9, 0.9),
        ev_fleet=EvFleetSpec(1, 40.0, 7.0, 0.125, 0.95, 0.95, 0.2, 1.0))
    tariffs = TariffSet(tuple(np.round(rng.uniform(0.2, 0.55, t_day), 3)),
                        tuple(np.round(rng.uniform(0.5, 0.9, t_day), 3)),
                        0.1, 2.0, 100.0, 50.0)
    scens = []
    for s in range(n):
        ev = EvRecord(0, t_day, float(np.round(rng.uniform(0.4, 0.8), 2)))
        scens.append(Scenario(tuple(np.round(rng.uniform(10, 35, t_day), 2)),
                              tuple(np.round(rng.uniform(4, 12, t_day), 2)),
                              tuple(np.round(rng.uniform(0, 8, t_day), 2)),
                              (ev,)))
    grid = TimeGrid(t_day, n, 10, 0.06)
    return grid, catalog, tariffs, ScenarioSet(grid=grid,
                                               scenarios=tuple(scens))


def test_c5_exclusivity_without_binaries(tiny):
    # a relaxed optimum, once repaired, charges and discharges no store in
    # the same hour, costs what branch and bound found, and is feasible for
    # the binary formulation, whose optimum it therefore is
    config = ModelConfig(zeta=0.0)
    cases = [("tiny", (tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen))]
    cases += [(f"c5[{k}]", _c5_fixture(k, n))
              for k, n in ((0, 20), (1, 20), (2, 3))]
    worst, rels = 0.0, []
    for label, (grid, catalog, tariffs, scen) in cases:
        model = assemble_model(grid, catalog, tariffs, scen, config)
        sol = branch_and_bound(model)
        assert sol.status == "optimal", label
        x, _found, left = repair_overlap(model.var_index, catalog, sol.x)
        assert left == [] and model.obj @ x == model.obj @ sol.x, label
        worst = max(worst, _overlap(extract_solution(
            dataclasses.replace(sol, x=x), model.var_index)))
        VERIFIED.append((label, model, x))
        binary = with_exclusivity_flags(model)
        charging = [model.col_names.index(f"{name[1]}C{name[2:]}")
                    for name in binary.col_names[model.n_cols:]]
        flags = (x[charging] > 0.0).astype(float)
        assert check_solution(binary, np.concatenate([x, flags])).ok, label
        if label in ("tiny", "c5[2]"):
            sb = branch_and_bound(binary)
            assert sb.status == "optimal", label
            rel = abs(sb.objective - sol.objective) / max(1.0,
                                                          abs(sb.objective))
            assert rel <= 1e-6, label
            rels.append(rel)
            VERIFIED.append((f"{label}-binary", binary, sb.x))
    assert worst <= 1e-6
    print(f"\n[C5] charge*discharge overlap <= {worst:.2e} kW^2 on 4 "
          f"repaired relaxed plans, each feasible for the binary model; "
          f"binary optima match relaxed to {max(rels):.2e}")


# ---------------------------------------------------------------- c6

TAX_LEVELS = (40.0, 100.0, 400.0, 700.0, 1000.0)


def test_c6_carbon_tax_monotonicity(data_dir):
    case = read_case(os.path.join(data_dir, "case.json"))
    elec, heat, pv, ev = read_history(
        os.path.join(data_dir, "history_loads.csv"),
        os.path.join(data_dir, "history_ev.csv"))
    scen, _ = generate_scenarios(case, elec, heat, pv, ev, n_scenarios=10,
                                 seed=7)
    grid = case.time_grid(10)
    m = annualization_factor(grid)
    config = ModelConfig(zeta=0.05)
    totals = []
    slowest = 0.0
    for tax in TAX_LEVELS:
        tariffs = dataclasses.replace(case.tariffs, carbon_tax=tax / 1000.0)
        model = assemble_model(grid, case.catalog, tariffs, scen, config)
        t0 = time.perf_counter()
        sol = branch_and_bound(model)
        el = time.perf_counter() - t0
        slowest = max(slowest, el)
        assert sol.status == "optimal" and el < 60.0, (tax, sol.status, el)
        plan = extract_solution(sol, model.var_index)
        bd = cost_breakdown(plan, case.catalog, tariffs, m)
        totals.append(bd.total)
        VERIFIED.append((f"c6[{tax:.0f}]", model, sol.x))
    for lo, hi in zip(totals, totals[1:]):
        assert hi >= lo - 1e-9 * max(1.0, abs(lo))
    shown = ", ".join(f"{v:.1f}" for v in totals)
    print(f"\n[C6] annual totals over taxes {TAX_LEVELS}: {shown} "
          f"non-decreasing; slowest level {slowest:.1f} s")


# ---------------------------------------------------------------- c7

def test_c7_moment_matched_generation(tmp_path):
    corr = np.array([[1.0, 0.5, 0.0, 0.0],
                     [0.5, 1.0, 0.5, 0.0],
                     [0.0, 0.5, 1.0, 0.8],
                     [0.0, 0.0, 0.8, 1.0]])
    tgt = MomentTargets(mean=np.array([10.0, -3.0, 0.0, 5.0]),
                        variance=np.array([4.0, 1.0, 9.0, 0.25]),
                        skewness=np.array([-0.8, 0.0, 0.5, 0.7]),
                        kurtosis=np.array([4.0, 3.0, 3.6, 4.0]),
                        correlation=corr)
    t0 = time.perf_counter()
    raw = hmm_generate(tgt, 500, 123)
    el = time.perf_counter() - t0
    assert el < 5.0
    assert raw.converged
    got = sample_moments(raw.values)
    errs = {
        "mean": np.max(np.abs(got.mean - tgt.mean)),
        "variance": np.max(np.abs(got.variance - tgt.variance)),
        "skewness": np.max(np.abs(got.skewness - tgt.skewness)),
        "kurtosis": np.max(np.abs(got.kurtosis - tgt.kurtosis)),
        "correlation": np.max(np.abs(got.correlation - corr)),
    }
    assert all(v <= 0.05 for v in errs.values()), errs
    again = hmm_generate(tgt, 500, 123)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    np.savetxt(p1, raw.values, fmt="%.17e", delimiter=",")
    np.savetxt(p2, again.values, fmt="%.17e", delimiter=",")
    assert p1.read_bytes() == p2.read_bytes()
    other = hmm_generate(tgt, 500, 124)
    assert not np.array_equal(other.values, raw.values)
    worst = max(errs.values())
    print(f"\n[C7] 4-dim targets hit within {worst:.3f} (limit 0.05) on "
          f"500 samples; identical seeds give identical bytes "
          f"({el:.2f} s)")


# ---------------------------------------------------------------- c8

def test_c8_all_solutions_reverify():
    assert len(VERIFIED) >= 32   # c3 (20) + c4 + c5 (6) + c6 (5)
    worst = 0.0
    for label, model, x in VERIFIED:
        rep = check_solution(model, x)
        assert rep.ok, (label, rep.bad_rows[:3], rep.bad_bounds[:3],
                        rep.bad_integrality[:3])
        worst = max(worst, rep.max_residual)
    print(f"\n[C8] {len(VERIFIED)} optimal solutions re-verified against "
          f"their models; worst scaled residual {worst:.2e}")


# ---------------------------------------------------------------- c9

def _bounded_rand_model(rng):
    m = int(rng.integers(1, 8))
    n = int(rng.integers(1, 8))
    a = np.round(rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6), 2)
    senses = rng.integers(0, 3, size=m)
    lb = np.zeros(n)
    ub = rng.choice([1.0, 3.0, 6.0], n)
    kinds = rng.choice([CONT, INTEGER, BINARY], n, p=[0.4, 0.4, 0.2])
    ub[kinds == BINARY] = 1.0
    rhs = np.round(a @ rng.uniform(0, 1, n) + rng.normal(size=m) * 0.4, 2)
    return make_model(np.round(rng.normal(size=n), 2), a, senses, rhs,
                      lb, ub, kinds)


def test_c9_mps_round_trip_and_solver_parity():
    rng = np.random.default_rng(900)
    for _ in range(100):
        mod = rand_model(rng)
        assert_models_equal(mod, parse_mps(write_mps(mod)))

    rng = np.random.default_rng(901)
    agree = 0
    trials = 0
    while agree < 10 and trials < 80:
        trials += 1
        mod = _bounded_rand_model(rng)
        mine = branch_and_bound(parse_mps(write_mps(mod)), max_nodes=20000)
        lo = np.where(mod.row_sense == LE, -np.inf, mod.rhs)
        hi = np.where(mod.row_sense == GE, np.inf, mod.rhs)
        ref = milp(mod.obj,
                   constraints=LinearConstraint(mod.a_matrix.toarray(),
                                                lo, hi),
                   bounds=Bounds(mod.col_lb, mod.col_ub),
                   integrality=(mod.col_kind != CONT).astype(int))
        if ref.status == 0 and mine.status == "optimal":
            assert abs(mine.objective - ref.fun) \
                <= 1e-5 * (1 + abs(ref.fun)), trials
            agree += 1
        elif ref.status == 2:
            assert mine.status == "infeasible", trials
    assert agree >= 10
    print(f"\n[C9] 100 fuzzed models round-trip coefficient-exact; "
          f"{agree} solved models agree with the reference solver to 1e-5")
