"""MILP assembly: variable census, row coefficients, bounds, chance budget."""
import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import make_model, with_exclusivity_flags
from hubplan.core import (BessSpec, EquipmentCatalog, EvFleetSpec, EvRecord,
                          FcSpec, Scenario, ScenarioSet, TariffSet, TessSpec,
                          TimeGrid)
from hubplan.errors import InvalidParameterError, ModelBuildError
from hubplan.model import (BINARY, CONT, EQ, GE, INTEGER, LE, ModelConfig,
                           assemble_model, max_substandard)


def micro_case(n_ev=0):
    """N=1, T=2, one fuel-cell type; optionally one EV parked all day."""
    grid = TimeGrid(2, 1, 1, 0.0)
    fc = FcSpec("PEM_gas", 30.0, 0.45, 0.5, 6.0, 5.0, 0.257, 0.22, 10)
    bess = BessSpec(0.15, 0.25, 0.95, 0.95, 0.1, 0.9, 3000.0, 200.0)
    tess = TessSpec(40.0, 0.25, 0.9, 0.9)
    fleet = EvFleetSpec(n_ev, 40.0, 7.0, 0.125, 0.95, 0.95, 0.2, 1.0)
    catalog = EquipmentCatalog((fc,), bess, tess, fleet)
    tariffs = TariffSet((0.3, 1.0), (0.6, 0.8), 0.1, 2.0, 100.0, 50.0)
    recs = (EvRecord(0, 2, 0.5),) if n_ev else ()
    scen = ScenarioSet(grid, (Scenario((20.0, 30.0), (8.0, 12.0),
                                       (0.0, 10.0), recs),))
    return grid, catalog, tariffs, scen


def row(model, name):
    i = model.row_names.index(name)
    a = model.a_matrix.getrow(i)
    coeffs = {model.col_names[j]: v for j, v in zip(a.indices, a.data)}
    return model.row_sense[i], model.rhs[i], coeffs


def test_census_no_ev():
    m = assemble_model(*micro_case(0), ModelConfig(zeta=0.0))
    # per scenario-hour: grid, pv, fuel, bess ch/dis/E, tess ch/dis/E (9 each)
    # plus X_ess, X_fc and one Z
    assert m.n_cols == 21
    assert m.n_rows == 22


def test_census_one_ev():
    m = assemble_model(*micro_case(1), ModelConfig(zeta=0.0))
    # adds ch/dis per parked hour, E over (arrive, depart], one shortfall
    assert m.n_cols == 28


def test_census_binary_mode():
    # the binary reference formulation the tests compare the repair with
    m = with_exclusivity_flags(assemble_model(*micro_case(1),
                                              ModelConfig(zeta=0.0)))
    assert m.n_cols == 34  # + Y for bess, tess, ev at each hour
    yb = [c for c in m.col_names if c.startswith("Y")]
    assert len(yb) == 6
    assert all(m.col_kind[m.col_names.index(c)] == BINARY for c in yb)


def test_elec_balance_row():
    m = assemble_model(*micro_case(1), ModelConfig(zeta=0.0))
    sense, rhs, c = row(m, "EB0_0")
    assert sense == EQ and rhs == 20.0
    assert c["GR0_0"] == 1.0 and c["PV0_0"] == 1.0
    assert c["FU0_0_0"] == 0.45                      # electric coupling
    assert abs(c["BC0_0"] + 1 / 0.95) < 1e-12        # bus pays charge losses
    assert c["BD0_0"] == 0.95                        # bus gets net discharge
    assert abs(c["VC0_0_0"] + 1 / 0.95) < 1e-12
    assert c["VD0_0_0"] == 0.95


def test_heat_balance_row():
    m = assemble_model(*micro_case(0), ModelConfig(zeta=0.0))
    sense, rhs, c = row(m, "HB0_1")
    assert sense == GE and rhs == 12.0  # surplus heat is ventable
    assert c["FU0_1_0"] == 0.5
    assert abs(c["TC0_1"] + 1 / 0.9) < 1e-12
    assert c["TD0_1"] == 0.9


def test_fuel_cell_port_caps():
    m = assemble_model(*micro_case(0), ModelConfig(zeta=0.0))
    sense, rhs, c = row(m, "FE0_0_0")
    assert sense == LE and rhs == 0.0
    assert c == {"FU0_0_0": 0.45, "XFC0": -6.0}
    sense, rhs, c = row(m, "FH0_0_0")
    assert sense == LE and rhs == 0.0
    assert c == {"FU0_0_0": 0.5, "XFC0": -5.0}


def test_bess_rows():
    m = assemble_model(*micro_case(0), ModelConfig(zeta=0.0))
    sense, rhs, c = row(m, "BL0_0")   # soc_min * X <= E
    assert sense == LE and c == {"XESS": 0.1, "BE0_0": -1.0}
    sense, rhs, c = row(m, "BU0_1")   # E <= soc_max * X
    assert sense == LE and c == {"XESS": -0.9, "BE0_1": 1.0}
    sense, rhs, c = row(m, "BRC0_0")  # rate cap tracks installed capacity
    assert sense == LE and c == {"XESS": -0.25, "BC0_0": 1.0}
    # state chain is lossless (the bus carries the efficiencies) and cyclic:
    # row t couples E(t) to E(t-1) and the flows of hour t-1
    sense, rhs, c = row(m, "BS0_1")
    assert sense == EQ and rhs == 0.0
    assert c == {"BE0_1": 1.0, "BE0_0": -1.0, "BC0_0": -1.0, "BD0_0": 1.0}
    sense, rhs, c = row(m, "BS0_0")   # wrap: hour 0 follows the last hour
    assert c == {"BE0_0": 1.0, "BE0_1": -1.0, "BC0_1": -1.0, "BD0_1": 1.0}


def test_bess_lifetime_row():
    m = assemble_model(*micro_case(0), ModelConfig(zeta=0.0))
    sense, rhs, c = row(m, "BW0")
    assert sense == LE and rhs == 0.0
    # cycles spread over 365 * PP days, expressed per scenario day
    assert abs(c["XESS"] + 3000.0 / 365.0) < 1e-9
    assert c["BC0_0"] == 1.0 and c["BC0_1"] == 1.0


def test_tess_and_bounds():
    m = assemble_model(*micro_case(0), ModelConfig(zeta=0.0))
    sense, rhs, c = row(m, "TS0_1")
    assert sense == EQ
    assert c == {"TE0_1": 1.0, "TE0_0": -1.0, "TC0_0": -1.0, "TD0_0": 1.0}
    j = m.col_names.index("TC0_0")
    assert m.col_ub[j] == 0.25 * 40.0  # fixed capacity -> plain bound
    j = m.col_names.index("TE0_0")
    assert (m.col_lb[j], m.col_ub[j]) == (0.0, 40.0)
    j = m.col_names.index("PV0_0")
    assert m.col_ub[j] == 0.0           # no irradiance that hour
    j = m.col_names.index("PV0_1")
    assert m.col_ub[j] == 10.0          # min(availability, pv rating)
    j = m.col_names.index("GR0_0")
    assert m.col_ub[j] == 100.0


def test_ev_rows():
    m = assemble_model(*micro_case(1), ModelConfig(zeta=0.0))
    sense, rhs, c = row(m, "VS0_1_0")   # arrival datum enters the rhs
    assert sense == EQ and rhs == 0.5 * 40.0
    assert c == {"VE0_1_0": 1.0, "VC0_0_0": -1.0, "VD0_0_0": 1.0}
    sense, rhs, c = row(m, "VS0_2_0")
    assert sense == EQ and rhs == 0.0
    assert c == {"VE0_2_0": 1.0, "VE0_1_0": -1.0, "VC0_1_0": -1.0,
                 "VD0_1_0": 1.0}
    sense, rhs, c = row(m, "SD0_0")     # departure target with slack
    assert sense == GE and rhs == 0.9 * 40.0
    assert c == {"VE0_2_0": 1.0, "SH0_0": 1.0}
    sense, rhs, c = row(m, "SZ0_0")     # slack only when flagged substandard
    assert sense == LE and rhs == 0.0
    assert c == {"SH0_0": 1.0, "Z0": -(0.9 - 0.2) * 40.0}
    j = m.col_names.index("VC0_0_0")
    assert m.col_ub[j] == 7.0
    j = m.col_names.index("VD0_0_0")
    assert m.col_ub[j] == 0.125 * 40.0
    j = m.col_names.index("VE0_1_0")
    assert (m.col_lb[j], m.col_ub[j]) == (0.2 * 40.0, 40.0)


def test_exclusivity_binary_rows():
    m = with_exclusivity_flags(assemble_model(*micro_case(1),
                                              ModelConfig(zeta=0.0)))
    sense, rhs, c = row(m, "BXC0_0")
    assert sense == LE and rhs == 0.0
    assert c == {"BC0_0": 1.0, "YB0_0": -50.0}
    sense, rhs, c = row(m, "BXD0_0")    # BD <= M * (1 - Y)
    assert sense == LE and rhs == 50.0
    assert c == {"BD0_0": 1.0, "YB0_0": 50.0}
    sense, rhs, c = row(m, "VXD0_0_0")
    assert sense == LE and rhs == 5.0
    assert c == {"VD0_0_0": 1.0, "YV0_0_0": 5.0}


def test_relaxed_mode_has_no_y():
    m = assemble_model(*micro_case(1), ModelConfig(zeta=0.0))
    assert not any(c.startswith("Y") for c in m.col_names)
    assert not any(r.startswith(("BXC", "BXD", "TXC", "TXD", "VXC", "VXD"))
                   for r in m.row_names)


def test_objective_coefficients():
    m = assemble_model(*micro_case(1), ModelConfig(zeta=0.0))
    obj = dict(zip(m.col_names, m.obj))
    w = 365.0  # PP=1, gamma=0, N=1
    assert obj["XESS"] == 0.15 and obj["XFC0"] == 30.0
    assert abs(obj["GR0_0"] - w * (0.3 + 0.1 * 0.6) / 1e4) < 1e-15
    assert abs(obj["GR0_1"] - w * (1.0 + 0.1 * 0.8) / 1e4) < 1e-15
    assert abs(obj["FU0_0_0"] - w * (0.257 + 0.1 * 0.22) / 1e4) < 1e-15
    assert abs(obj["SH0_0"] - w * 2.0 / 1e4) < 1e-15
    assert obj["PV0_1"] == 0.0 and obj["BC0_0"] == 0.0
    assert obj["BE0_0"] == 0.0 and obj["Z0"] == 0.0


def test_kinds():
    m = assemble_model(*micro_case(1), ModelConfig(zeta=0.0))
    kind = dict(zip(m.col_names, m.col_kind))
    assert kind["XFC0"] == INTEGER
    assert kind["Z0"] == BINARY
    assert kind["XESS"] == CONT and kind["GR0_0"] == CONT


def test_chance_budget_row():
    grid, catalog, tariffs, scen = micro_case(1)
    m = assemble_model(grid, catalog, tariffs, scen, ModelConfig(zeta=0.0))
    sense, rhs, c = row(m, "CARD")
    assert sense == LE and rhs == 0.0 and c == {"Z0": 1.0}

    g20 = TimeGrid(2, 20, 1, 0.0)
    base = scen.scenarios[0]
    scen20 = ScenarioSet(g20, tuple(base for _ in range(20)))
    m20 = assemble_model(g20, catalog, tariffs, scen20,
                         ModelConfig(zeta=0.05))
    sense, rhs, c = row(m20, "CARD")
    assert rhs == 1.0 and len(c) == 20  # floor(20 * 0.05)


def test_max_substandard():
    assert max_substandard(100, 0.05) == 5
    assert max_substandard(10, 0.05) == 0
    assert max_substandard(20, 0.05) == 1
    assert max_substandard(2, 0.0) == 0
    assert max_substandard(99, 0.05) == 4
    # guard against float representation: 3 * (1/3) is just below 1
    assert max_substandard(3, 1.0 / 3.0) == 1


def test_model_config_validation():
    with pytest.raises(InvalidParameterError):
        ModelConfig(zeta=1.0)
    with pytest.raises(InvalidParameterError):
        ModelConfig(zeta=0.05, exclusivity_mode="none")
    with pytest.raises(InvalidParameterError, match="binary mode was removed"):
        ModelConfig(exclusivity_mode="binary")


def test_assemble_deterministic():
    a = assemble_model(*micro_case(1), ModelConfig(zeta=0.0))
    b = assemble_model(*micro_case(1), ModelConfig(zeta=0.0))
    assert a.col_names == b.col_names and a.row_names == b.row_names
    assert np.array_equal(a.obj, b.obj) and np.array_equal(a.rhs, b.rhs)
    assert np.array_equal(a.a_matrix.toarray(), b.a_matrix.toarray())
    assert np.array_equal(a.start_basis, b.start_basis)
    assert np.array_equal(a.start_upper, b.start_upper)


def test_start_basis_rows():
    # grid import starts basic in each electric balance, the fuel cell's
    # fuel in each heat balance, its count in the capacity row needing the
    # most units (12 kW of heat at t1 needs 12 / 5 units, 2.4 > 12 * 0.45 /
    # (0.5 * 6)), a store's energy in its chain row of each hour but the
    # cycle-closing hour 0, and a vehicle's energy in each of its chain
    # rows; other rows on their slack
    m = assemble_model(*micro_case(1), ModelConfig(zeta=0.0))
    named = {m.row_names[r]: m.col_names[c]
             for r, c in enumerate(m.start_basis) if c < m.n_cols}
    assert named == {"EB0_0": "GR0_0", "EB0_1": "GR0_1",
                     "HB0_0": "FU0_0_0", "HB0_1": "FU0_1_0",
                     "FH0_1_0": "XFC0", "BS0_1": "BE0_1",
                     "TS0_1": "TE0_1", "VS0_1_0": "VE0_1_0",
                     "VS0_2_0": "VE0_2_0"}
    slack = [r for r, c in enumerate(m.start_basis) if c >= m.n_cols]
    assert [m.start_basis[r] - m.n_cols for r in slack] == slack


@pytest.mark.parametrize("sofc, heat_cell", [
    (dict(max_units=2), "PEM_gas"),
    (dict(max_units=3, fuel_price=0.2), "SOFC"),
    (dict(max_units=3), "SOFC"),
    (dict(max_units=3, fuel_price=0.3), "PEM_gas"),
    (dict(max_units=3, fuel_emission=0.5), "PEM_gas"),
    (dict(max_units=3, gas_to_heat=0.0), "PEM_gas"),
], ids=["small", "cheaper", "tie", "dearer", "dirtier", "no-heat"])
def test_heat_balances_start_on_the_cheapest_covering_fuel_cell(sofc,
                                                                 heat_cell):
    # the peak heat load of 12 kW needs 2.4 units of either cell: of the
    # cells that cover it, the fuel cheapest per unit of heat at the
    # model's prices (carbon tax included) starts in the heat balances,
    # the first cell on ties
    grid, catalog, tariffs, scen = micro_case()
    pem = catalog.fuel_cells[0]
    cells = (dataclasses.replace(pem, fc_id="SOFC", **sofc), pem)
    m = assemble_model(grid, dataclasses.replace(catalog, fuel_cells=cells),
                       tariffs, scen, ModelConfig(zeta=0.0))
    i = [fc.fc_id for fc in cells].index(heat_cell)
    named = {m.row_names[r]: m.col_names[c]
             for r, c in enumerate(m.start_basis) if c < m.n_cols}
    assert {r: c for r, c in named.items() if r[0] in "HF"} == {
        "HB0_0": f"FU0_0_{i}", "HB0_1": f"FU0_1_{i}", f"FH0_1_{i}": f"XFC{i}"}


def test_start_basis_defaults_to_the_slacks():
    m = make_model([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [LE, EQ],
                   [4.0, 0.0], [0.0, 0.0], [9.0, 9.0])
    assert m.start_basis.tolist() == [2, 3]
    assert m.start_upper.tolist() == [False, False]
    m.check()


@pytest.mark.parametrize("change, message", [
    (lambda s: s[:-1], "start basis names 92 columns for 93 rows"),
    (lambda s: np.append(s, s[0]), "start basis names 94 columns for 93 rows"),
    (lambda s: np.where(np.arange(s.size) == 0, -1, s), "out of range"),
    (lambda s: s + (s == s.max()), "out of range"),
    (lambda s: np.where(np.arange(s.size) == 1, s[0], s), "a column twice"),
], ids=["short", "long", "negative", "past-the-slacks", "twice"])
def test_check_refuses_a_bad_start_basis(tiny, change, message):
    model = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                           tiny.config)
    bad = dataclasses.replace(model, start_basis=change(model.start_basis))
    with pytest.raises(ModelBuildError, match=message):
        bad.check()


@pytest.mark.parametrize("change", [
    lambda u: u[:-1], lambda u: u.astype(float)], ids=["short", "float"])
def test_check_refuses_a_bad_start_upper(tiny, change):
    model = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                           tiny.config)
    assert model.start_upper.any()
    bad = dataclasses.replace(model, start_upper=change(model.start_upper))
    with pytest.raises(ModelBuildError, match="start_upper must be a bool "
                       f"mask over the {model.n_cols} columns"):
        bad.check()


@pytest.mark.parametrize("change", [
    dict(planning_years=20), dict(n_scenarios=1), dict(n_scenarios=3)],
    ids=["planning-years", "fewer-days", "more-days"])
def test_assemble_refuses_a_grid_unlike_the_scenario_sets(tiny, change):
    # the scenario set holds the model's time grid; a grid passed beside it
    # must be the same one, or the model would be priced or sized by the
    # other
    grid = dataclasses.replace(tiny.grid, **change)
    with pytest.raises(ModelBuildError) as ei:
        assemble_model(grid, tiny.catalog, tiny.tariffs, tiny.scen,
                       tiny.config)
    assert str(ei.value) == (f"grid {grid} is not the scenario set's grid "
                             f"{tiny.scen.grid}")


@pytest.mark.parametrize("change, message", [
    (lambda m: dict(row_names=m.row_names[:1] * m.n_rows),
     "duplicate row names"),
    (lambda m: dict(col_names=m.col_names[:1] * m.n_cols),
     "duplicate column names"),
    (lambda m: dict(col_ub=np.where(np.arange(m.n_cols) >= 1, np.nan,
                                    m.col_ub)),
     "NaN column bound: XFC0 in [0.0, nan]"),
    (lambda m: dict(col_lb=np.where(np.arange(m.n_cols) >= 1, 11.0,
                                    m.col_lb)),
     "crossed column bounds: XFC0 in [11.0, 10.0]"),
], ids=["row-names", "col-names", "nan-bound", "crossed-bounds"])
def test_check_refuses_a_bad_layout_or_bound(tiny, change, message):
    # the refusals name the first column whose bounds fail
    model = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                           tiny.config)
    with pytest.raises(ModelBuildError) as ei:
        dataclasses.replace(model, **change(model)).check()
    assert str(ei.value) == message


def test_negative_pv_is_a_crossed_bound(tiny):
    # PV availability is the PV column's upper bound: -1 kW at s0 t1 crosses
    # its lower bound of 0
    first = tiny.scen.scenarios[0]
    pv = list(first.pv_avail)
    pv[1] = -1.0
    scen = dataclasses.replace(tiny.scen, scenarios=(
        dataclasses.replace(first, pv_avail=tuple(pv)),
        *tiny.scen.scenarios[1:]))
    with pytest.raises(ModelBuildError) as ei:
        assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, scen,
                       tiny.config)
    assert str(ei.value) == "crossed column bounds: PV0_1 in [0.0, -1.0]"


def test_assemble_refuses_a_row_naming_a_column_twice(tiny, monkeypatch):
    import hubplan.model as model_mod
    monkeypatch.setattr(model_mod, "build_tess_constraints", lambda index: [
        ("TX", LE, 0.0, (5, 7, 5), (1.0, 1.0, 2.0), -1)])
    with pytest.raises(ModelBuildError) as ei:
        assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                       tiny.config)
    assert str(ei.value) == "row TX: duplicate column 5"


def test_var_index_lookup(tiny):
    from hubplan.model import K_GRID, K_VCH, K_XESS
    m = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                       tiny.config)
    ix = m.var_index
    assert m.col_names[ix.ids[K_XESS]] == "XESS"
    assert m.col_names[ix.ids[K_GRID][1, 2]] == "GR1_2"
    assert ix.ids[K_VCH][0, 0, 0] >= 0      # EV 0 parked at hour 0 in day 0
    assert ix.ids[K_VCH][0, 3, 0] < 0       # departed by hour 3
    assert ix.windows[(0, 0)] == (0, 3)
    with pytest.raises(IndexError):
        ix.ids[K_GRID][9, 0]
    # the id arrays own every column exactly once
    owned = np.concatenate([c[c >= 0] for c in ix.ids.values()])
    assert np.array_equal(np.sort(owned), np.arange(m.n_cols))


def test_vehicle_count_must_match_fleet():
    grid, catalog, tariffs, scen = micro_case(1)
    bare = ScenarioSet(grid, (dataclasses.replace(scen.scenarios[0],
                                                  ev_records=()),))
    with pytest.raises(ModelBuildError) as ei:
        assemble_model(grid, catalog, tariffs, bare, ModelConfig(zeta=0.0))
    assert str(ei.value) == "scenario 0 has 0 vehicle records, the fleet has 1"


def test_vehicle_window_must_fit_the_day():
    grid, catalog, tariffs, scen = micro_case(1)
    late = ScenarioSet(grid, (dataclasses.replace(
        scen.scenarios[0], ev_records=(EvRecord(0, 3, 0.5),)),))
    with pytest.raises(ModelBuildError) as ei:
        assemble_model(grid, catalog, tariffs, late, ModelConfig(zeta=0.0))
    assert str(ei.value) == \
        "scenario 0, ev 0: window [0, 3] leaves the day (T=2)"


def test_objective_matches_per_column_loop(tiny):
    # the loop that priced one column at a time is the reference, bit for bit
    from hubplan.core import MONEY_SCALE, annualization_factor
    from hubplan.model import K_FUEL, K_GRID, K_SHORT, K_XESS, K_XFC
    model = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                           tiny.config)
    m = annualization_factor(tiny.grid)
    tar, fcs, tax = tiny.tariffs, tiny.catalog.fuel_cells, tiny.tariffs.carbon_tax
    want = np.zeros(model.n_cols)
    for kind, cols in model.var_index.ids.items():
        for idx in map(tuple, np.argwhere(cols >= 0)):
            c = cols[idx]
            if kind == K_XESS:
                want[c] = tiny.catalog.bess.invest_cost
            elif kind == K_XFC:
                want[c] = fcs[idx[0]].invest_cost
            elif kind == K_GRID:
                t = idx[1]
                want[c] = m * (tar.elec_price[t]
                               + tax * tar.grid_emission[t]) / MONEY_SCALE
            elif kind == K_FUEL:
                fc = fcs[idx[2]]
                want[c] = m * (fc.fuel_price
                               + tax * fc.fuel_emission) / MONEY_SCALE
            elif kind == K_SHORT:
                want[c] = m * tar.soc_penalty / MONEY_SCALE
    assert model.obj.tobytes() == want.tobytes()


def _model_digest(model):
    h = hashlib.sha256()
    for names in (model.row_names, model.col_names):
        h.update("\n".join(names).encode() + b"\0")
    a = model.a_matrix
    for arr in (model.row_sense, model.rhs, model.obj, model.col_lb,
                model.col_ub, model.col_kind, a.indptr.astype(np.int64),
                a.indices.astype(np.int64), a.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("mode, digest", [
    ("relaxed", "2a1fe074c89df285"),
])
def test_tiny_model_is_pinned(tiny, mode, digest):
    # any change to row order, column order, a bound or a coefficient of
    # the assembled model moves this digest
    config = ModelConfig(zeta=0.0, exclusivity_mode=mode)
    model = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                           config)
    assert _model_digest(model) == digest
