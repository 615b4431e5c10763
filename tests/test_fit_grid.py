"""tools/fit_grid.py counts the fit it measures: its copy of
fit_cubic_batch's loop must stay bit for bit the code under test."""
import hashlib
import importlib.util
import os
import warnings

import numpy as np

from hubplan import scengen
from hubplan.fileio import read_case, read_history

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "fit_grid.py")


def _tool():
    spec = importlib.util.spec_from_file_location("_fit_grid", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fit_grid_counts_the_shipped_fit(data_dir, monkeypatch):
    tool = _tool()
    case = read_case(os.path.join(data_dir, "case.json"))
    hist = read_history(os.path.join(data_dir, "history_loads.csv"),
                        os.path.join(data_dir, "history_ev.csv"))
    batch, fits = scengen.fit_cubic_batch, []
    monkeypatch.setattr(scengen, "fit_cubic_batch",
                        lambda *args: fits.append(args) or batch(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _scen, raw = scengen.generate_scenarios(case, *hist, n_scenarios=6,
                                                seed=3)
    monkeypatch.undo()
    for args in fits:
        coef, failed = batch(*args)
        c2, f2, steps, deepest = tool._walk(*args)
        assert np.array_equal(coef, c2) and np.array_equal(failed, f2)
        assert 0 < steps <= 200
        assert deepest.max() <= scengen._LAM_HALVINGS
    # the case record digests the very panel generate_scenarios returns
    rec = tool.run_case(case, hist, 6, 3)
    assert rec["rounds"] == len(raw.iteration_log) == len(fits)
    assert rec["values"] == hashlib.sha256(raw.values.tobytes()).hexdigest()
    assert scengen.fit_cubic_batch is batch
