"""The model's start basis: the column each row holds basic when an LP
solve starts cold."""
import dataclasses
import os

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from test_acceptance import _c3_fixture
from test_bnb import _n3_model
from hubplan.core import FEAS_TOL, EvRecord
from hubplan.fileio import read_case, read_history
from hubplan.milp import solve_lp
from hubplan.milp.simplex import NB_LO, _BlockBasis
from hubplan.model import (K_FUEL, K_GRID, K_PV, K_VCH, K_VE, K_XFC,
                           ModelConfig, assemble_model)
from hubplan.scengen import generate_scenarios

# the row families that start on a structural, and the column each names;
# of the capacity rows, only one of the heat fuel cell's names its count,
# and a departure row names the charge that takes its visit's remainder
FAMILIES = {("EB", "GR"), ("HB", "FU"), ("FE", "XF"), ("FH", "XF"),
            ("BS", "BE"), ("TS", "TE"), ("VS", "VE"), ("SD", "VC")}


def _rows(model, prefix):
    return [r for r, name in enumerate(model.row_names)
            if name.startswith(prefix)]


def _heat_cell(model):
    """The fuel cell the start rule picks, read off the model's own rows
    and objective: of those whose fuel alone meets the peak heat load
    within max_units, the cheapest per unit of heat, lowest index on ties;
    None when none does."""
    ids, a = model.var_index.ids, model.a_matrix.tocsr()
    peak = model.rhs[_rows(model, "HB")].max()
    best = None
    for i, x in enumerate(ids[K_XFC]):
        fu = ids[K_FUEL][0, 0, i]
        fe, fh = (model.row_names.index(f"{f}0_0_{i}") for f in ("FE", "FH"))
        g_e, m_e, g_h, m_h = a[fe, fu], -a[fe, x], a[fh, fu], -a[fh, x]
        if g_h <= 0.0 or m_h <= 0.0:
            continue
        cost = model.obj[fu] / g_h
        if (peak * max(1.0 / m_h, g_e / (g_h * m_e)) <= model.col_ub[x]
                and (best is None or cost < best[0])):
            best = cost, i
    return None if best is None else best[1]


def _start_point(model):
    """The basic solution of the start basis, every nonbasic column on its
    upper bound where start_upper marks it, else on its lower bound, and
    every nonbasic slack at 0."""
    x = np.where(model.start_upper, model.col_ub, model.col_lb)
    named = model.start_basis < model.n_cols
    x[model.start_basis[named]] = 0.0
    blk = _BlockBasis(model.a_matrix.tocsc(), model.start_basis,
                      model.n_cols)
    blk.lu = splu(blk.b_k)
    w = blk.solve(model.rhs - model.a_matrix @ x)
    x[model.start_basis[named]] = w[named]
    return x

@pytest.fixture(scope="module", params=[
    "tiny", "bundled", "n3", "c3-1001", "c3-1002", "c3-1004", "c3-1007"])
def model(request, tiny, data_dir):
    """The tiny case; the README plan's model (bundled history, N = 10,
    seed 7, tax 40); the benchmark's three fixed days at tax 40; and four
    chance-recipe days (acceptance c3, rng seeds 1001, 1002, 1004, 1007)."""
    name = request.param
    if name == "tiny":
        return assemble_model(tiny.grid, tiny.catalog, tiny.tariffs,
                              tiny.scen, tiny.config)
    if name == "bundled":
        case = read_case(os.path.join(data_dir, "case.json"))
        history = read_history(os.path.join(data_dir, "history_loads.csv"),
                               os.path.join(data_dir, "history_ev.csv"))
        scen, _ = generate_scenarios(case, *history, n_scenarios=10, seed=7)
        return assemble_model(scen.grid, case.catalog,
                              case.tariffs.with_carbon_tax(40), scen,
                              ModelConfig())
    if name == "n3":
        return _n3_model(data_dir, 40)
    grid, catalog, tariffs, scen, _ = _c3_fixture(int(name[3:]) - 1000)
    return assemble_model(grid, catalog, tariffs, scen,
                          ModelConfig(zeta=0.05))


def test_start_basis_names_one_column_per_row(model):
    start = model.start_basis
    assert start.shape == (model.n_rows,)
    assert np.unique(start).size == model.n_rows


def test_start_columns_are_unit_in_their_own_rows(model):
    start, n = model.start_basis, model.n_cols
    ids = model.var_index.ids
    h = _heat_cell(model)
    rows = np.flatnonzero(start < n)
    assert {(model.row_names[r][:2], model.col_names[start[r]][:2])
            for r in rows} <= FAMILIES
    # every row of the unit families starts on its column, save each
    # store cycle's hour 0, which closes the cycle; so does every heat
    # balance, on the heat fuel cell's fuel, when some fuel cell covers
    # the peak heat load, and then one capacity row of that cell, on its
    # count
    capacity = [r for r in rows if model.row_names[r][:2] in ("FE", "FH")]
    departure = [r for r in rows if model.row_names[r][:2] == "SD"]
    assert rows.tolist() == sorted(capacity + departure + [
        r for r, name in enumerate(model.row_names)
        if name[:2] in ("EB", "VS")
        or name[:2] in ("BS", "TS") and not name.endswith("_0")
        or name[:2] == "HB" and h is not None])
    unit = [r for r in rows if model.row_names[r][:2] in ("EB", "BS", "TS",
                                                          "VS")]
    assert (np.asarray(model.a_matrix[unit, start[unit]]) == 1.0).all()
    heat = [r for r in rows if model.row_names[r][:2] == "HB"]
    if h is None:
        assert heat == capacity == []
    else:
        assert [model.col_names[start[r]] for r in heat] == [
            "FU" + model.row_names[r][2:] + f"_{h}" for r in heat]
        assert len(capacity) == 1
        r = capacity[0]
        assert model.row_names[r].endswith(f"_{h}")
        assert start[r] == ids[K_XFC][h]
        assert model.a_matrix[r, start[r]] != 0.0
    # a departure row starts on a charge of its own visit, in its window
    for r in departure:
        s, j = map(int, model.row_names[r][2:].split("_"))
        assert start[r] in ids[K_VCH][s, :, j]
    # every other row starts on its own slack
    others = np.flatnonzero(start >= n)
    assert (start[others] == n + others).all()


def test_start_kernel_factors(model):
    # without the departure rows and their charges, the structural block
    # of the start basis is lower triangular with a nonzero diagonal once
    # its rows run heat balances (fixing the fuel), the capacity row
    # (fixing the count), electric balances (fixing import), then the
    # chains; with them it is block triangular (assemble_model), and
    # nonsingular: it factors, and its LU solves it
    start, n = model.start_basis, model.n_cols
    named = [r for r in range(model.n_rows) if start[r] < n]
    family = {"HB": 0, "FE": 1, "FH": 1, "EB": 2}
    order = sorted((r for r in named if model.row_names[r][:2] != "SD"),
                   key=lambda r: (family.get(model.row_names[r][:2], 3), r))
    kernel = model.a_matrix[order][:, start[order]]
    assert np.all(kernel.diagonal() != 0.0)
    assert sparse.triu(kernel, 1).nnz == 0
    blk = _BlockBasis(model.a_matrix.tocsc(), start, n)
    assert blk.k == len(named)
    lu = splu(blk.b_k)
    w = lu.solve(np.ones(blk.k))
    assert np.isfinite(w).all()
    assert np.abs(blk.b_k @ w - 1.0).max() <= 1e-9 * (1.0 + np.abs(w).max())


def test_start_point_holds_the_heat_and_capacity_rows(model):
    # with every nonbasic at 0, the heat fuel cell's fuel meets each heat
    # load and its count every capacity row, within the columns' bounds
    x = _start_point(model)
    lhs = model.a_matrix @ x
    heat = _rows(model, "HB")
    caps = _rows(model, "FE") + _rows(model, "FH")
    assert (lhs[heat] >= model.rhs[heat] - FEAS_TOL).all()
    assert (lhs[caps] <= model.rhs[caps] + FEAS_TOL).all()
    h = _heat_cell(model)
    if h is not None:
        ids = model.var_index.ids
        cols = np.append(ids[K_FUEL][..., h].ravel(), ids[K_XFC][h])
        assert (x[cols] <= model.col_ub[cols] + FEAS_TOL).all()
        assert (x[cols] >= model.col_lb[cols] - FEAS_TOL).all()


def _visits(model):
    """(departure row, charge columns of the window, need) of each visit;
    need is the target less the arrival energy."""
    index = model.var_index
    out = []
    for (s, j), (a, d) in index.windows.items():
        sd = model.row_names.index(f"SD{s}_{j}")
        out.append((sd, index.ids[K_VCH][s, a:d, j],
                    model.rhs[sd] - index.ev_init[(s, j)]))
    return out


def test_start_point_meets_every_reachable_departure_target(model):
    # each visit that its window can charge to its target at the
    # charger's power starts at that target, its remainder basic in the
    # departure row; the others (the chance days' one-hour visits at 20 %)
    # charge in every hour at the bound and keep the row's slack. Charges,
    # vehicle energies and PV start within their bounds, import at or
    # below grid_cap
    x = _start_point(model)
    lhs = model.a_matrix @ x
    lb, ub, n = model.col_lb, model.col_ub, model.n_cols
    for sd, charge, need in _visits(model):
        if need <= 0.0:
            assert model.start_basis[sd] == n + sd
            assert not model.start_upper[charge].any()
        elif need <= ub[charge].sum():
            assert model.start_basis[sd] in charge
            assert lhs[sd] >= model.rhs[sd] - FEAS_TOL
        else:
            assert model.start_basis[sd] == n + sd
            assert model.start_upper[charge].all()
    ids = model.var_index.ids
    cols = np.concatenate([ids[k][ids[k] >= 0] for k in (K_VCH, K_VE,
                                                         K_PV)])
    assert (x[cols] >= lb[cols] - FEAS_TOL).all()
    assert (x[cols] <= ub[cols] + FEAS_TOL).all()
    grid = ids[K_GRID].ravel()
    assert (x[grid] <= ub[grid] + FEAS_TOL).all()


def _tiny_model(tiny, tariffs=None, **scenario_0):
    """The tiny case's model, with its tariffs and scenario 0's fields
    replaced as given."""
    scen = tiny.scen
    if scenario_0:
        first = dataclasses.replace(scen.scenarios[0], **scenario_0)
        scen = dataclasses.replace(scen, scenarios=(first,
                                                    *scen.scenarios[1:]))
    return assemble_model(tiny.grid, tiny.catalog, tariffs or tiny.tariffs,
                          scen, tiny.config)


def test_charges_take_the_cheapest_hours_first(tiny):
    # scenario 1's vehicle, parked in hours 1-3 at 50 %, needs 16 kWh:
    # hour 3 imports at 0.3 and hours 1 and 2 at 1.0, so hours 3 and 1
    # (the earlier of the tie) charge 7 kWh each at the bound, and hour 2
    # takes the last 2 kWh, basic in the departure row
    model = _tiny_model(tiny)
    ids = model.var_index.ids
    charge = ids[K_VCH][1, 1:4, 0]
    assert model.start_upper[charge].tolist() == [True, False, True]
    sd = model.row_names.index("SD1_0")
    assert model.start_basis[sd] == charge[1]
    x = _start_point(model)
    assert x[charge] == pytest.approx([7.0, 2.0, 7.0], abs=1e-12)


def test_a_visit_short_of_its_target_keeps_its_charge(tiny):
    # parked one hour at 20 %, the vehicle needs 28 kWh and the charger
    # gives 7: the hour charges at its bound and the departure row keeps
    # its slack
    model = _tiny_model(tiny, ev_records=(EvRecord(3, 4, 0.2),))
    charge = model.col_names.index("VC0_3_0")
    sd = model.row_names.index("SD0_0")
    assert model.start_upper[charge]
    assert model.start_basis[sd] == model.n_cols + sd
    x = _start_point(model)
    assert x[charge] == model.col_ub[charge] == tiny.fleet.charger_power


def test_no_hour_is_charged_past_grid_cap(tiny):
    # at the start, scenario 0 imports 11, 16.5 and 13.75 kW in the
    # vehicle's hours 0-2 and charging 7 kW adds 7.37; under a 22 kW cap
    # hour 1 (then 23.9 kW) is skipped, so the vehicle falls 6 kWh short
    # and its departure row keeps its slack
    model = _tiny_model(tiny, dataclasses.replace(tiny.tariffs,
                                                  grid_cap=22.0))
    ids = model.var_index.ids
    x = _start_point(model)
    grid = ids[K_GRID].ravel()
    assert (x[grid] <= 22.0 + FEAS_TOL).all()
    charged = [model.col_names[c] for c in ids[K_VCH][0, :, 0]
               if c >= 0 and model.start_upper[c]]
    assert charged == ["VC0_0_0", "VC0_2_0"]
    sd = model.row_names.index("SD0_0")
    assert model.start_basis[sd] == model.n_cols + sd
    free = _tiny_model(tiny)
    assert free.col_names[free.start_basis[sd]] == "VC0_2_0"


def _check_pv(model):
    """PV starts at its bound exactly where the bound is at most the
    hour's import (charging included), and import then stays at or above
    0; elsewhere PV starts at 0. Returns how many PV columns with a
    nonzero bound start at 0."""
    ids = model.var_index.ids
    x = _start_point(model)
    pv, grid = ids[K_PV].ravel(), ids[K_GRID].ravel()
    before = x[grid] + x[pv]  # the import with PV at 0
    up = model.start_upper[pv]
    assert (up == (model.col_ub[pv] <= before)).all()
    assert (x[grid][up] >= -FEAS_TOL).all()
    assert (x[pv][~up] == 0.0).all()
    return int(np.count_nonzero(~up & (model.col_ub[pv] > 0.0)))


def test_pv_starts_at_its_bound_within_the_import(model):
    _check_pv(model)


def test_pv_above_the_import_starts_at_0(tiny):
    # 30 kW of PV in hour 1 exceeds its start import of 23.9 kW
    model = _tiny_model(tiny, pv_avail=(0.0, 30.0, 12.0, 2.0))
    assert _check_pv(model) == 1
    x = _start_point(model)
    assert x[model.col_names.index("PV0_1")] == 0.0


def test_infeasible_rows_name_a_departure_row_left_by_its_charge(tiny):
    # with vehicle 0's charger capped at 1 kW, its visit cannot reach the
    # target, which zeta = 0 enforces; its departure row starts on the
    # charge of hour 2, which phase 1 leaves above its bound
    model = _tiny_model(tiny)
    ub = model.col_ub.copy()
    charge = model.var_index.ids[K_VCH][0, :, 0]
    ub[charge[charge >= 0]] = 1.0
    lp = solve_lp(model, col_ub=ub)
    assert lp.status == "infeasible"
    assert [model.row_names[r] for r in lp.infeasible_rows] == ["SD0_0"]
    sd = model.row_names.index("SD0_0")
    q = model.start_basis[sd]
    assert model.col_names[q] == "VC0_2_0" and q in lp.basis
    assert lp.x[q] > ub[q] + FEAS_TOL


@pytest.mark.parametrize("max_units", [1, 2])
def test_heat_rows_keep_their_slacks_when_no_fuel_cell_covers_the_peak(
        tiny, max_units):
    # the tiny case's peak heat load of 14 kW needs 2.8 PEM_gas units
    catalog = dataclasses.replace(tiny.catalog, fuel_cells=(
        dataclasses.replace(tiny.fc, max_units=max_units),))
    model = assemble_model(tiny.grid, catalog, tiny.tariffs, tiny.scen,
                           tiny.config)
    assert _heat_cell(model) is None
    rows = [r for r, name in enumerate(model.row_names)
            if name[:2] in ("HB", "FE", "FH")]
    assert (model.start_basis[rows] == model.n_cols + np.array(rows)).all()
    full = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                          tiny.config)
    others = np.setdiff1d(np.arange(model.n_rows), rows)
    assert (model.start_basis[others] == full.start_basis[others]).all()


def test_cold_start_matches_the_dual_phase_from_the_slack_basis(model):
    # the slack basis with every column on its lower bound is dual
    # feasible (no cost is negative), so a warm start from it runs the dual
    # phase first: an independent path to the same optimum
    m, n = model.n_rows, model.n_cols
    cold = solve_lp(model)
    slack = solve_lp(model, warm=(n + np.arange(m),
                                  np.full(n + m, NB_LO, dtype=np.int8)))
    assert cold.status == slack.status == "optimal"
    assert cold.dual_pivots == 0 < slack.dual_pivots
    assert cold.objective == pytest.approx(slack.objective, rel=1e-9)
