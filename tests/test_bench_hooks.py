"""The benchmark's tracer hooks still resolve on this hubplan.

perfbench/tracer.py wraps module attributes that hubplan looks up at call
time; a hook that no longer resolves turns its per-layer metrics into
"missing" without failing the benchmark. This reads the hook list from the
tracer file and checks each entry against the package.
"""
import collections
import importlib
import importlib.util
import os
import types

import numpy as np
from scipy.sparse.linalg import splu as scipy_splu

import hubplan.milp._kernels as ker_mod
import hubplan.milp.bnb as bnb_mod
import hubplan.milp.simplex as simplex_mod
from conftest import make_model
from hubplan.model import GE, LE

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve():
    hooks = _tracer().HOOKS
    assert hooks
    gone = [f"{mod}.{attr}" for mod, attr, _label in hooks
            if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert gone == []


def test_bnb_lps_stay_attributable():
    # every LP is seen only while branch and bound calls solve_lp through
    # its module global
    assert "solve_lp" in bnb_mod.branch_and_bound.__code__.co_names


def test_level_solve_stays_attributable():
    # plan and sweep reach the solver and the report functions only through
    # analysis.sweep_carbon_tax and its analysis.solve_level, which looks
    # each one up as a module global of hubplan.analysis, where the
    # tracer's hooks sit; plan is a sweep of one level
    import hubplan.analysis as analysis
    import hubplan.cli as cli
    steps = {"branch_and_bound", "check_solution", "extract_solution",
             "cost_breakdown", "chance_audit", "verify_plan"}
    assert steps <= set(analysis.solve_level.__code__.co_names)
    assert "solve_level" in analysis.sweep_carbon_tax.__code__.co_names
    for cmd in (cli.cmd_plan, cli.cmd_sweep):
        names = _names(cmd.__code__)
        assert "sweep_carbon_tax" in names
        assert not (steps | {"solve_level", "assemble_model"}) & names


def _names(code):
    """Global and attribute names looked up by code and the functions
    nested in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def test_simplex_spans_stay_attributable():
    # simplex.factor, simplex.state and simplex.ratio wrap module globals;
    # a local alias or an inlined kernel would read 0 s without failing
    names = _names(simplex_mod.solve_lp.__code__)
    assert {"splu", "ker", "basic_state", "ratio_test"} <= names
    assert simplex_mod.splu is scipy_splu
    assert simplex_mod.ker is ker_mod


class _SolveOnly:
    """The tracer's stand-in for a factor: a solve method and nothing
    else."""

    __slots__ = ("solve",)

    def __init__(self, lu):
        self.solve = lu.solve


def test_simplex_calls_its_hooks(monkeypatch):
    calls = collections.Counter()
    real_splu = simplex_mod.splu

    def factor(*args, **kwargs):
        calls["splu"] += 1
        return _SolveOnly(real_splu(*args, **kwargs))

    def counted(name):
        real = getattr(ker_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(simplex_mod, "splu", factor)
    for name in ("basic_state", "ratio_test"):
        monkeypatch.setattr(ker_mod, name, counted(name))
    # max x + 2y s.t. x + y <= 4, x - y >= -2, from the slack basis
    model = make_model([-1.0, -2.0], [[1.0, 1.0], [1.0, -1.0]], [LE, GE],
                       [4.0, -2.0], [0.0, 0.0], [10.0, 10.0])
    s = simplex_mod.solve_lp(model)
    assert s.status == "optimal" and abs(s.objective + 7.0) < 1e-9
    assert s.iterations >= 2 and s.dual_pivots == 0
    # the cold start's all-slack basis is a permutation: no splu call, and
    # not counted in refactors
    assert calls["splu"] == s.refactors
    assert s.kernel_cols >= s.refactors >= 1
    assert calls["ratio_test"] == s.iterations
    # one full state per factorization, at the all-slack start and at exit;
    # a pivot updates the state of the rows it moved by comparison, with no
    # kernel call
    assert calls["basic_state"] == s.refactors + 1 + 1

    # y <= 2 leaves the optimum's basic y = 3 out of bounds: the dual phase
    # pivots through the same factor and state kernels, and only the
    # primal pivots run the primal ratio test
    calls.clear()
    child = simplex_mod.solve_lp(model, col_lb=np.zeros(2),
                                 col_ub=np.array([10.0, 2.0]),
                                 warm=(s.basis, s.stat))
    assert child.status == "optimal" and abs(child.objective + 6.0) < 1e-9
    assert child.dual_pivots >= 1
    assert calls["splu"] == child.refactors
    assert calls["ratio_test"] == child.iterations - child.dual_pivots
    assert calls["basic_state"] == child.refactors + 1
