"""tools/fit_grid.py digests the panel generate_scenarios returns and counts
the Newton steps fit_cubic_batch reports."""
import hashlib
import importlib.util
import os

from hubplan import scengen
from hubplan.fileio import read_case, read_history

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "fit_grid.py")


def _tool():
    spec = importlib.util.spec_from_file_location("_fit_grid", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fit_grid_counts_the_shipped_fit(data_dir):
    case = read_case(os.path.join(data_dir, "case.json"))
    hist = read_history(os.path.join(data_dir, "history_loads.csv"),
                        os.path.join(data_dir, "history_ev.csv"))
    batch = scengen.fit_cubic_batch
    _scen, raw = scengen.generate_scenarios(case, *hist, n_scenarios=6,
                                            seed=3)
    rec = _tool().run_case(case, hist, 6, 3)
    assert rec["rounds"] == len(raw.iteration_log)
    assert rec["rounds"] <= rec["steps"] <= 200 * rec["rounds"]
    assert 0 <= rec["deepest_rung"] <= scengen._LAM_HALVINGS
    assert rec["values"] == hashlib.sha256(raw.values.tobytes()).hexdigest()
    assert scengen.fit_cubic_batch is batch
