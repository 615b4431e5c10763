"""Independent feasibility check of raw solution vectors."""
import numpy as np
import pytest

from conftest import make_model
from hubplan.milp import check_solution
from hubplan.model import EQ, GE, INTEGER, LE, K_GRID, K_XFC


def test_clean_solution(tiny_solved):
    rep = check_solution(tiny_solved.model, tiny_solved.sol.x)
    assert rep.ok
    assert rep.max_residual <= 1e-6
    assert rep.bad_rows == [] and rep.bad_bounds == []
    assert rep.bad_integrality == []


def test_row_violation_named(tiny_solved):
    x = tiny_solved.sol.x.copy()
    j = tiny_solved.model.var_index.ids[K_GRID][0, 0]
    x[j] += 5.0  # breaks the hour-0 electric balance
    rep = check_solution(tiny_solved.model, x)
    assert not rep.ok
    assert any(name == "EB0_0" for name, _ in rep.bad_rows)


def test_bound_violation_named(tiny_solved):
    model = tiny_solved.model
    x = tiny_solved.sol.x.copy()
    j = model.col_names.index("XESS")
    x[j] = model.col_ub[j] + 1.0
    rep = check_solution(model, x)
    assert any(name == "XESS" for name, _ in rep.bad_bounds)


@pytest.mark.parametrize("name", ["GR1_2", "VE0_3_0", "XFC0"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_named(tiny_solved, name, value):
    # a value that is not finite fails the gate, naming its column
    model = tiny_solved.model
    x = tiny_solved.sol.x.copy()
    x[model.col_names.index(name)] = value
    rep = check_solution(model, x)
    assert not rep.ok
    assert name in [col for col, _ in rep.bad_bounds]


def test_integrality_violation_named(tiny_solved):
    x = tiny_solved.sol.x.copy()
    j = tiny_solved.model.var_index.ids[K_XFC][0]
    x[j] += 0.5
    rep = check_solution(tiny_solved.model, x)
    assert any(name == "XFC0" for name, _ in rep.bad_integrality)


def test_senses_checked_one_sided():
    m = make_model([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [LE, GE],
                   [2.0, 1.0], [0.0, 0.0], [9.0, 9.0])
    ok = check_solution(m, np.array([1.5, 3.0]))
    assert ok.ok  # LE slack and GE surplus are both fine
    bad = check_solution(m, np.array([2.5, 0.5]))
    assert len(bad.bad_rows) == 2


def test_eq_checked_two_sided():
    m = make_model([0.0], [[1.0]], [EQ], [2.0], [0.0], [9.0])
    assert check_solution(m, np.array([2.0])).ok
    assert not check_solution(m, np.array([2.1])).ok
    assert not check_solution(m, np.array([1.9])).ok


def test_relative_scaling():
    # a 5e-5 slip on a rhs of 1e4 is relative 5e-9: fine
    m = make_model([0.0], [[1.0]], [EQ], [1.0e4], [0.0], [2.0e4])
    assert check_solution(m, np.array([1.0e4 + 5e-5])).ok
    # the same absolute slip against rhs 1 is caught
    m2 = make_model([0.0], [[1.0]], [EQ], [1.0], [0.0], [2.0e4])
    assert not check_solution(m2, np.array([1.0 + 5e-5])).ok


def test_int_tol_window():
    m = make_model([0.0], [[1.0]], [LE], [9.0], [0.0], [5.0], [INTEGER])
    assert check_solution(m, np.array([3.0000004])).ok
    assert not check_solution(m, np.array([3.01])).ok
