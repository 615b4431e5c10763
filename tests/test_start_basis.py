"""The model's start basis: the column each row holds basic when an LP
solve starts cold."""
import os

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from test_acceptance import _c3_fixture
from test_bnb import _n3_model
from hubplan.fileio import read_case, read_history
from hubplan.milp import solve_lp
from hubplan.milp.simplex import NB_LO, _BlockBasis
from hubplan.model import ModelConfig, assemble_model
from hubplan.scengen import generate_scenarios

# the row families that start on a structural, and the column each names
FAMILIES = {("EB", "GR"), ("BS", "BE"), ("TS", "TE"), ("VS", "VE")}


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
    rows = np.flatnonzero(start < n)
    assert {(model.row_names[r][:2], model.col_names[start[r]][:2])
            for r in rows} <= FAMILIES
    # every row of those families starts on its column, save each store
    # cycle's hour 0, which closes the cycle
    assert rows.tolist() == [
        r for r, name in enumerate(model.row_names)
        if name[:2] in ("EB", "VS")
        or name[:2] in ("BS", "TS") and not name.endswith("_0")]
    assert (np.asarray(model.a_matrix[rows, start[rows]]) == 1.0).all()
    # every other row starts on its own slack
    others = np.flatnonzero(start >= n)
    assert (start[others] == n + others).all()


def test_start_kernel_factors(model):
    # the structural block of the start basis is unit lower-bidiagonal in
    # row order, nonsingular by construction
    blk = _BlockBasis(model.a_matrix.tocsc(), model.start_basis,
                      model.n_cols)
    assert blk.k == np.count_nonzero(model.start_basis < model.n_cols)
    assert (blk.b_k.diagonal() == 1.0).all()
    assert sparse.triu(blk.b_k, 1).nnz == 0
    assert sparse.tril(blk.b_k, -2).nnz == 0
    lu = splu(blk.b_k)
    assert np.isfinite(lu.solve(np.ones(blk.k))).all()


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
