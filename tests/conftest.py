"""Shared fixtures: a four-hour two-day hub case, a raw-model builder, and
the binary exclusivity formulation and the per-port fuel-cell rows as
references."""
import os
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

import hubplan
from hubplan.core import (FEAS_TOL, BessSpec, EquipmentCatalog, EvFleetSpec,
                          EvRecord, FcSpec, Scenario, ScenarioSet, TariffSet,
                          TessSpec, TimeGrid)
from hubplan.milp import branch_and_bound, extract_solution
from hubplan.model import (BINARY, K_BCH, K_BDIS, K_FUEL, K_GRID, K_PV,
                           K_TCH, K_TDIS, K_VCH, K_VDIS, K_VE, K_XFC, LE,
                           MilpModel, ModelConfig, assemble_model)


def make_model(obj, a, senses, rhs, lb, ub, kinds=None):
    """Assemble a MilpModel from dense pieces; all-continuous when kinds
    is omitted."""
    a = sparse.csr_matrix(np.asarray(a, dtype=float))
    m, n = a.shape
    if kinds is None:
        kinds = np.zeros(n, dtype=np.int8)
    return MilpModel(
        obj=np.asarray(obj, dtype=float), a_matrix=a,
        row_sense=np.asarray(senses, dtype=np.int8),
        rhs=np.asarray(rhs, dtype=float),
        row_names=[f"R{i}" for i in range(m)],
        col_lb=np.asarray(lb, dtype=float),
        col_ub=np.asarray(ub, dtype=float),
        col_kind=np.asarray(kinds, dtype=np.int8),
        col_names=[f"C{j}" for j in range(n)])


def same_lp(got, ref):
    """Assert that two LpSolutions agree bit for bit: status, iterations,
    objective, x, duals, basis and stat."""
    assert (got.status, got.iterations) == (ref.status, ref.iterations)
    assert float(got.objective).hex() == float(ref.objective).hex()
    for key in ("x", "duals", "basis", "stat"):
        assert getattr(got, key).tobytes() == getattr(ref, key).tobytes(), key


def with_exclusivity_flags(model):
    """The binary formulation that hubplan.model.repair_overlap replaces:
    model, as assemble_model builds it, with one flag column Y per
    store-hour appended after its last column, and the rows
    XC: P_ch <= M_ch * Y and XD: P_dis <= M_dis * (1 - Y), M being each
    column's upper bound (its rate cap).

    A flag is named Y plus its store's letter plus the charge column's
    indices (YB0_1, YT0_1, YV0_1_0), its rows by the store's letter plus XC
    or XD plus the same (BXC0_1, BXD0_1); each store-hour's two rows follow
    the model's rows in the order of its flags. The result keeps the
    model's var_index: extract a plan from x[:model.n_cols].
    """
    ids = model.var_index.ids
    ch, dis = (np.concatenate([ids[k][ids[k] >= 0] for k in kinds])
               for kinds in ((K_BCH, K_TCH, K_VCH), (K_BDIS, K_TDIS, K_VDIS)))
    k, n = ch.size, model.n_cols
    y = n + np.arange(k)
    m_ch, m_dis = model.col_ub[ch], model.col_ub[dis]
    rows = np.repeat(np.arange(2 * k), 2)
    cols = np.stack([ch, y, dis, y], axis=1).ravel()
    vals = np.stack([np.ones(k), -m_ch, np.ones(k), m_dis], axis=1).ravel()
    flags = sparse.csr_matrix((vals, (rows, cols)), shape=(2 * k, n + k))
    a = model.a_matrix
    wide = sparse.csr_matrix((a.data, a.indices, a.indptr),
                             shape=(model.n_rows, n + k))
    tails = [model.col_names[c][2:] for c in ch]
    letters = [model.col_names[c][0] for c in ch]
    return MilpModel(
        obj=np.concatenate([model.obj, np.zeros(k)]),
        a_matrix=sparse.vstack([wide, flags], format="csr"),
        row_sense=np.concatenate([model.row_sense,
                                  np.full(2 * k, LE, dtype=np.int8)]),
        rhs=np.concatenate([model.rhs,
                            np.stack([np.zeros(k), m_dis], axis=1).ravel()]),
        row_names=model.row_names + [f"{a}X{b}{t}" for a, t in
                                     zip(letters, tails) for b in "CD"],
        col_lb=np.concatenate([model.col_lb, np.zeros(k)]),
        col_ub=np.concatenate([model.col_ub, np.ones(k)]),
        col_kind=np.concatenate([model.col_kind,
                                 np.full(k, BINARY, dtype=np.int8)]),
        col_names=model.col_names + [f"Y{a}{t}"
                                     for a, t in zip(letters, tails)],
        var_index=model.var_index)


def with_port_caps(model, catalog):
    """The per-port formulation that each FL row of hubplan.model states
    at once: model, as assemble_model builds it, with the rows
    FE: gas_to_elec * P_fuel <= max_elec * X and
    FH: gas_to_heat * P_fuel <= max_heat * X of each scenario, hour and
    fuel cell appended after its last row, named like that FL row
    (FE0_1_0, FH0_1_0), the FE row first; zero coefficients are left out.
    The new rows start on their slacks, the others as in model.
    """
    ids, n, m = model.var_index.ids, model.n_cols, model.n_rows
    shape = ids[K_FUEL].shape  # (s, t, i), the FL rows' order
    fuel = ids[K_FUEL].ravel()
    units = np.broadcast_to(ids[K_XFC], shape).ravel()
    k = 2 * fuel.size
    rows = np.repeat(np.arange(k), 2)
    cols = np.stack([fuel, units, fuel, units], axis=1).ravel()
    ports = [(fc.gas_to_elec, -fc.max_elec, fc.gas_to_heat, -fc.max_heat)
             for fc in catalog.fuel_cells]
    vals = np.broadcast_to(ports, shape + (4,)).ravel()
    caps = sparse.csr_matrix((vals, (rows, cols)), shape=(k, n))
    caps.eliminate_zeros()
    tails = [name[2:] for name in model.row_names if name.startswith("FL")]
    return MilpModel(
        obj=model.obj, a_matrix=sparse.vstack([model.a_matrix, caps],
                                              format="csr"),
        row_sense=np.concatenate([model.row_sense,
                                  np.full(k, LE, dtype=np.int8)]),
        rhs=np.concatenate([model.rhs, np.zeros(k)]),
        row_names=model.row_names + [f"F{p}{t}" for t in tails
                                     for p in "EH"],
        col_lb=model.col_lb, col_ub=model.col_ub, col_kind=model.col_kind,
        col_names=model.col_names, var_index=model.var_index,
        start_basis=np.concatenate([model.start_basis,
                                    n + m + np.arange(k)]),
        start_upper=model.start_upper)


def with_pv_less_overlap(model, fleet, x):
    """A copy of x, a solved x of the tiny case, with one charge/discharge
    overlap that cannot be repaired.

    The overlap hour is the first parked vehicle-hour, in (scenario,
    vehicle, hour) order, without PV, with at least 0.5 kW of charging, no
    discharging and 0.5 kW of grid import. There the vehicle also
    discharges 0.5 kW, and it charges 0.5 kW more at the first later
    parked hour with room to (charging 0.5 kW below its cap, no
    discharging, grid import 0.5 kW below its cap, energies at least
    0.5 kWh above their floor until then); the energies in between fall by
    0.5 kWh and the grid takes up the difference. x stays feasible, but
    the overlap sits in an hour without PV to curtail.
    """
    index, lb, ub = model.var_index, model.col_lb, model.col_ub
    ids = index.ids
    ch, dis, e = ids[K_VCH], ids[K_VDIS], ids[K_VE]
    grid, pv = ids[K_GRID], ids[K_PV]
    cut, add = 0.5 * fleet.eta_dis, 0.5 / fleet.eta_ch
    for (s, j), (a, d) in sorted(index.windows.items()):
        for t in range(a, d):
            if not (x[pv[s, t]] <= FEAS_TOL and x[dis[s, t, j]] <= FEAS_TOL
                    and x[dis[s, t, j]] + 0.5 <= ub[dis[s, t, j]]
                    and x[ch[s, t, j]] >= 0.5 and x[grid[s, t]] >= cut):
                continue
            for u in range(t + 1, d):
                drop = e[s, t + 1:u + 1, j]
                if (x[dis[s, u, j]] <= FEAS_TOL
                        and x[ch[s, u, j]] + 0.5 <= ub[ch[s, u, j]]
                        and x[grid[s, u]] + add <= ub[grid[s, u]]
                        and (x[drop] - 0.5 >= lb[drop]).all()):
                    x = x.copy()
                    x[dis[s, t, j]] += 0.5
                    x[drop] -= 0.5
                    x[ch[s, u, j]] += 0.5
                    x[grid[s, t]] -= cut
                    x[grid[s, u]] += add
                    return x
    raise ValueError("x has no vehicle-hour to overlap")


def tiny_case():
    """T=4, N=2, one PEM_gas type, BESS+TESS, one EV per day.

    Small enough to solve in well under a second yet exercising every
    constraint family, including a departure inside the day (scenario 0)
    and one at the day boundary (scenario 1).
    """
    grid = TimeGrid(hours_per_day=4, n_scenarios=2, planning_years=10,
                    discount_rate=0.06)
    fc = FcSpec(fc_id="PEM_gas", invest_cost=30.0, gas_to_elec=0.45,
                gas_to_heat=0.4, max_elec=6.0, max_heat=5.0,
                fuel_price=0.257, fuel_emission=0.22, max_units=10)
    bess = BessSpec(invest_cost=0.15, rate_fraction=0.25, eta_ch=0.95,
                    eta_dis=0.95, soc_min=0.1, soc_max=0.9,
                    lifetime_cycles=3000.0, max_capacity=200.0)
    tess = TessSpec(capacity=40.0, rate_fraction=0.25, eta_ch=0.9, eta_dis=0.9)
    fleet = EvFleetSpec(n_ev=1, capacity=40.0, charger_power=7.0,
                        discharge_rate_fraction=0.125, eta_ch=0.95,
                        eta_dis=0.95, soc_min=0.2, soc_max=1.0)
    catalog = EquipmentCatalog(fuel_cells=(fc,), bess=bess, tess=tess,
                               ev_fleet=fleet)
    tariffs = TariffSet(elec_price=(0.3, 1.0, 1.0, 0.3),
                        grid_emission=(0.6, 0.8, 0.8, 0.6),
                        carbon_tax=0.1, soc_penalty=2.0, grid_cap=100.0,
                        pv_cap=50.0)
    scen = ScenarioSet(grid=grid, scenarios=(
        Scenario(elec_load=(20.0, 30.0, 25.0, 15.0),
                 heat_load=(8.0, 12.0, 10.0, 6.0),
                 pv_avail=(0.0, 10.0, 12.0, 2.0),
                 ev_records=(EvRecord(0, 3, 0.4),)),
        Scenario(elec_load=(18.0, 35.0, 28.0, 12.0),
                 heat_load=(9.0, 14.0, 11.0, 5.0),
                 pv_avail=(0.0, 8.0, 15.0, 3.0),
                 ev_records=(EvRecord(1, 4, 0.5),)),
    ))
    config = ModelConfig(zeta=0.0)
    return SimpleNamespace(grid=grid, fc=fc, bess=bess, tess=tess,
                           fleet=fleet, catalog=catalog, tariffs=tariffs,
                           scen=scen, config=config)


@pytest.fixture(scope="session")
def tiny():
    return tiny_case()


@pytest.fixture(scope="session")
def tiny_solved(tiny):
    """The tiny case assembled and solved once for the whole session.

    Tests must treat the arrays as read-only and corrupt copies only.
    """
    model = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                           tiny.config)
    sol = branch_and_bound(model)
    assert sol.status == "optimal"
    plan = extract_solution(sol, model.var_index)
    return SimpleNamespace(model=model, sol=sol, plan=plan)


@pytest.fixture(scope="session")
def data_dir():
    return os.path.join(os.path.dirname(hubplan.__file__), "data")
