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
from hubplan.core import FEAS_TOL
from hubplan.fileio import read_case, read_history
from hubplan.milp import solve_lp
from hubplan.milp.simplex import NB_LO, _BlockBasis
from hubplan.model import K_FUEL, K_XFC, ModelConfig, assemble_model
from hubplan.scengen import generate_scenarios

# the row families that start on a structural, and the column each names;
# of the capacity rows, only one of the heat fuel cell's names its count
FAMILIES = {("EB", "GR"), ("HB", "FU"), ("FE", "XF"), ("FH", "XF"),
            ("BS", "BE"), ("TS", "TE"), ("VS", "VE")}


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
    """The basic solution of the start basis, every nonbasic column at 0."""
    blk = _BlockBasis(model.a_matrix.tocsc(), model.start_basis,
                      model.n_cols)
    blk.lu = splu(blk.b_k)
    w = blk.solve(model.rhs.astype(float))
    x = np.zeros(model.n_cols)
    named = model.start_basis < model.n_cols
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
    assert rows.tolist() == sorted(capacity + [
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
    # every other row starts on its own slack
    others = np.flatnonzero(start >= n)
    assert (start[others] == n + others).all()


def test_start_kernel_factors(model):
    # the structural block of the start basis is lower triangular with a
    # nonzero diagonal once its rows run heat balances (fixing the fuel),
    # the capacity row (fixing the count), electric balances (fixing
    # import), then the chains: nonsingular by construction
    start, n = model.start_basis, model.n_cols
    named = [r for r in range(model.n_rows) if start[r] < n]
    family = {"HB": 0, "FE": 1, "FH": 1, "EB": 2}
    order = sorted(named, key=lambda r: (
        family.get(model.row_names[r][:2], 3), r))
    kernel = model.a_matrix[order][:, start[order]]
    assert np.all(kernel.diagonal() != 0.0)
    assert sparse.triu(kernel, 1).nnz == 0
    blk = _BlockBasis(model.a_matrix.tocsc(), start, n)
    assert blk.k == len(named)
    lu = splu(blk.b_k)
    assert np.isfinite(lu.solve(np.ones(blk.k))).all()


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
