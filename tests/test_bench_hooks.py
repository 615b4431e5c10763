"""The benchmark's tracer hooks still resolve on this hubplan.

perfbench/tracer.py wraps module attributes that hubplan looks up at call
time; a hook that no longer resolves turns its per-layer metrics into
"missing" without failing the benchmark. This reads the hook list from the
tracer file and checks each entry against the package.
"""
import importlib
import importlib.util
import os

import hubplan.milp.bnb as bnb_mod

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


def test_dive_lps_stay_attributable():
    # dive LPs are told apart by their caller's name, and every LP is seen
    # only while branch and bound calls solve_lp through its module global
    assert callable(getattr(bnb_mod, "_dive", None))
    assert "solve_lp" in bnb_mod._dive.__code__.co_names
    assert "solve_lp" in bnb_mod.branch_and_bound.__code__.co_names
