"""MPS writer: exact round-trips through the tests' reader, format
diagnostics of both."""
import numpy as np
import pytest
from scipy import sparse

from conftest import make_model
from hubplan.errors import MpsFormatError
from hubplan.milp import solve_lp, write_mps
from hubplan.model import BINARY, CONT, INTEGER, MilpModel
from mps_oracle import parse_mps


def rand_model(rng):
    m = int(rng.integers(0, 8))
    n = int(rng.integers(1, 10))
    a = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.4)
    obj = rng.normal(size=n) * (rng.random(n) < 0.7)
    senses = rng.integers(0, 3, size=m)
    kinds = rng.choice([CONT, INTEGER, BINARY], n, p=[0.5, 0.3, 0.2])
    lb = np.where(rng.random(n) < 0.2, -np.inf,
                  np.round(rng.uniform(-3, 0, n), 3))
    ub = np.where(rng.random(n) < 0.2, np.inf,
                  np.round(rng.uniform(1, 7, n), 3))
    fx = rng.random(n) < 0.1
    ub[fx] = lb[fx] = np.where(np.isfinite(lb[fx]), lb[fx], 2.0)
    lb[kinds == BINARY] = 0.0
    ub[kinds == BINARY] = 1.0
    rhs = np.round(rng.normal(size=m), 3)
    return make_model(obj, a, senses, rhs, lb, ub, kinds)


def assert_models_equal(a, b):
    assert b.n_rows == a.n_rows and b.n_cols == a.n_cols
    assert b.row_names == a.row_names and b.col_names == a.col_names
    assert np.array_equal(b.row_sense, a.row_sense)
    assert np.array_equal(b.rhs, a.rhs)
    assert np.array_equal(b.col_lb, a.col_lb)
    assert np.array_equal(b.col_ub, a.col_ub)
    assert np.array_equal(b.col_kind, a.col_kind)
    assert np.array_equal(b.obj, a.obj)
    assert np.array_equal(b.a_matrix.toarray(), a.a_matrix.toarray())


def test_round_trip_fuzz():
    rng = np.random.default_rng(5)
    for _ in range(30):
        mod = rand_model(rng)
        assert_models_equal(mod, parse_mps(write_mps(mod)))


def test_round_trip_empty():
    empty = MilpModel(obj=np.zeros(0), a_matrix=sparse.csr_matrix((0, 0)),
                      row_sense=np.zeros(0, dtype=np.int8), rhs=np.zeros(0),
                      row_names=[], col_lb=np.zeros(0), col_ub=np.zeros(0),
                      col_kind=np.zeros(0, dtype=np.int8), col_names=[])
    back = parse_mps(write_mps(empty))
    assert back.n_rows == 0 and back.n_cols == 0


def test_sections_and_markers(tiny_solved):
    txt = write_mps(tiny_solved.model)
    for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in txt
    assert "'INTORG'" in txt and "'INTEND'" in txt  # X_fc is integer
    assert " N  COST" in txt
    assert_models_equal(tiny_solved.model, parse_mps(txt))


def test_binary_bound_line():
    rng = np.random.default_rng(8)
    m = rand_model(rng)
    m.col_kind[:] = BINARY
    m.col_lb[:] = 0.0
    m.col_ub[:] = 1.0
    txt = write_mps(m)
    assert " BV BND" in txt
    back = parse_mps(txt)
    assert np.all(back.col_kind == BINARY)


def test_write_rejects_bad_names():
    m = make_model([1.0], [[1.0]], [0], [1.0], [0.0], [2.0])
    m.col_names[0] = "has space"
    with pytest.raises(MpsFormatError):
        write_mps(m)
    m.col_names[0] = "C0"
    m.row_names[0] = "COST"  # collides with the objective row
    with pytest.raises(MpsFormatError):
        write_mps(m)


def test_write_rejects_nan():
    m = make_model([np.nan], [[1.0]], [0], [1.0], [0.0], [2.0])
    with pytest.raises(MpsFormatError):
        write_mps(m)


@pytest.mark.parametrize("mutate,needle", [
    (lambda t: t.replace("ROWS", "ROWZ", 1), "unknown section"),
    (lambda t: t.replace(" L  R0", " Q  R0"), "bad row type"),
    (lambda t: t.replace("  R0  1.0", "  R9  1.0"), "unknown row"),
    (lambda t: t.replace("1.0", "1.0.0"), "bad number"),
    (lambda t: t.replace("ENDATA", "JUNKSECTION\nENDATA"), "unknown section"),
])
def test_parse_diagnostics(mutate, needle):
    m = make_model([1.0], [[1.0]], [0], [1.0], [0.0], [2.0])
    txt = write_mps(m)
    with pytest.raises(MpsFormatError) as ei:
        parse_mps(mutate(txt))
    assert needle in str(ei.value)


def test_parse_duplicate_row():
    m = make_model([1.0], [[1.0], [1.0]], [0, 2], [1.0, 0.0], [0.0], [2.0])
    txt = write_mps(m)
    txt = txt.replace(" L  R0\n", " L  R0\n L  R0\n")
    with pytest.raises(MpsFormatError) as ei:
        parse_mps(txt)
    assert "duplicate row" in str(ei.value)


def test_parsed_model_solves_identically():
    rng = np.random.default_rng(77)
    mod = rand_model(rng)
    # solve_lp needs a finite bound on every column: box the free ones
    free = np.isinf(mod.col_lb) & np.isinf(mod.col_ub)
    mod.col_lb[free], mod.col_ub[free] = -10.0, 10.0
    s0 = solve_lp(mod)
    s1 = solve_lp(parse_mps(write_mps(mod)))
    assert s0.status == s1.status
    if s0.status == "optimal":
        assert s0.objective == s1.objective


def test_write_deterministic(tiny_solved):
    assert write_mps(tiny_solved.model) == write_mps(tiny_solved.model)
