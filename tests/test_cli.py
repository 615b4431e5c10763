"""End-to-end CLI runs: exit codes, artifacts, config merging, determinism."""
import csv
import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import hubplan
from hubplan import cli
from hubplan.analysis import cost_breakdown
from hubplan.core import EvRecord, ScenarioSet
from hubplan.errors import InfeasibleSolutionError, SolverError
from hubplan.fileio import CaseData, write_case, write_scenario_set
from hubplan.milp import write_mps
from hubplan.model import assemble_model


@pytest.fixture(scope="module")
def ws(tiny, tmp_path_factory):
    """Tiny case + scenario files on disk, as the CLI consumes them."""
    root = tmp_path_factory.mktemp("cli_ws")
    case = CaseData(catalog=tiny.catalog, tariffs=tiny.tariffs,
                    hours_per_day=4, planning_years=10, discount_rate=0.06)
    write_case(case, str(root / "case.json"))
    write_scenario_set(tiny.scen, str(root / "scen.csv"),
                       str(root / "scen_ev.csv"))
    return root


def args_for(ws, *extra):
    return ["--case", str(ws / "case.json"),
            "--scenarios", str(ws / "scen.csv"),
            "--scenario-ev", str(ws / "scen_ev.csv")] + list(extra)


def test_validate(ws, capsys):
    assert cli.main(["validate"] + args_for(ws)) == 0
    out = capsys.readouterr().out
    assert "case ok" in out and "scenarios ok: 2 days" in out


def test_validate_history(data_dir, capsys):
    rc = cli.main(["validate", "--case", os.path.join(data_dir, "case.json"),
                   "--history-loads",
                   os.path.join(data_dir, "history_loads.csv"),
                   "--history-ev", os.path.join(data_dir, "history_ev.csv")])
    assert rc == 0
    assert "history ok: 365 days, 10 vehicles" in capsys.readouterr().out


def test_validate_checks_history_against_case(data_dir, tmp_path, capsys):
    # the bundled history has 10 vehicles: a fleet of 20 cannot be planned
    with open(os.path.join(data_dir, "case.json")) as fh:
        doc = json.load(fh)
    doc["ev_fleet"]["n_ev"] = 20
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    rc = cli.main(["validate", "--case", str(case),
                   "--history-loads",
                   os.path.join(data_dir, "history_loads.csv"),
                   "--history-ev", os.path.join(data_dir, "history_ev.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: fleet has 20 vehicles, history provides 10\n")


@pytest.mark.parametrize("command", [["validate"], ["scen", "gen"]])
def test_history_of_other_day_length_exits_1(data_dir, tmp_path, capsys,
                                             command):
    # the bundled days cut to 23 hours cannot feed the 24-hour case
    with open(os.path.join(data_dir, "history_loads.csv")) as fh:
        rows = list(csv.reader(fh))
    loads = tmp_path / "loads.csv"
    with open(loads, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [rows[0]] + [r for r in rows[1:] if int(r[1]) < 23])
    out = tmp_path / "o"
    rc = cli.main(command + [
        "--case", os.path.join(data_dir, "case.json"),
        "--history-loads", str(loads),
        "--history-ev", os.path.join(data_dir, "history_ev.csv"),
        "--n", "3", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: history spans 23 hours, case expects 24\n")
    assert not out.exists()


def test_version():
    with pytest.raises(SystemExit) as ei:
        cli.main(["--version"])
    assert ei.value.code == 0


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["--help"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hubplan")


@pytest.mark.parametrize("argv, message", [
    (["plan", "--bogus"], "unrecognized arguments: --bogus"),
    # the flag has the config key's one check and message
    (["plan", "--extreme", "wind"],
     "extreme must be one of ('elec', 'heat'), got 'wind'"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
    (["plan", "--mode", "binary"], "unrecognized arguments: --mode binary"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    # 2 means a generation or solver failure; a usage error is an input
    # error, reported on one line like the others, whether argparse or an
    # option's check refuses it
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["validate"], ["plan"]])
def test_one_hour_day_exits_before_reading_inputs(data_dir, tmp_path, capsys,
                                                  monkeypatch, command):
    # the storage cycle of a one-hour day would link hour 0 to itself
    monkeypatch.setattr(cli, "read_scenario_set", _must_not_read)
    monkeypatch.setattr(cli, "read_history", _must_not_read)
    with open(os.path.join(data_dir, "case.json")) as fh:
        doc = json.load(fh)
    doc["planning"]["hours_per_day"] = 1
    doc["tariffs"]["elec_price"] = [0.5]
    doc["tariffs"]["grid_emission"] = [0.6]
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = cli.main(command + [
        "--case", str(case), "--history-loads",
        os.path.join(data_dir, "history_loads.csv"), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {case}: $.planning: hours_per_day must be >= 2, got 1\n")
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, where", [
    ("fuel_cells", "max_units", 10 ** 400, "$.fuel_cells[0].max_units"),
    ("planning", "planning_years", 20000, "$.planning"),
])
def test_overflowing_case_number_exits_before_reading_inputs(
        data_dir, tmp_path, capsys, monkeypatch, section, key, value, where):
    # a number float arithmetic cannot hold fails at read, not after
    # scenario generation has written its files
    monkeypatch.setattr(cli, "read_history", _must_not_read)
    with open(os.path.join(data_dir, "case.json")) as fh:
        doc = json.load(fh)
    (doc[section][0] if section == "fuel_cells" else doc[section])[key] = value
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = cli.main(["plan", "--case", str(case), "--history-loads",
                   os.path.join(data_dir, "history_loads.csv"),
                   "--history-ev", os.path.join(data_dir, "history_ev.csv"),
                   "--n", "3", "--carbon-tax", "40", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {case}: ") and where in err
    assert not out.exists()


@pytest.mark.parametrize("flags, status", [
    (["--zeta", "0.5", "--carbon-tax", "5000", "--max-nodes", "4"],
     "node_limit"),
    (["--time-limit", "1e-9"], "time_limit"),
])
def test_plan_stopped_by_a_limit_exits_2(ws, tmp_path, capsys, flags, status):
    # at zeta 0.5 and tax 5000, four nodes hold the plunge's incumbent with
    # the tree still open, and it is reported; the time limit has passed
    # before the first node LP
    incumbent = status == "node_limit"
    out = tmp_path / "out"
    rc = cli.main(["plan"] + args_for(ws, "--out", str(out), *flags))
    assert rc == 2
    assert capsys.readouterr().err \
        == f"status {status}: solver ended {status}\n"
    doc = json.loads((out / "audit.json").read_text())
    assert doc["status"] == status and "gap" in doc
    assert ("objective" in doc) == incumbent
    assert bool(list(out.glob("dispatch_*.csv"))) == incumbent
    if incumbent:
        assert doc["incumbents"] == [doc["objective"]]
        assert doc["gap"] > 0 and doc["solution_check"]["ok"]
        assert doc["breakdown"]["total"] == pytest.approx(doc["objective"],
                                                          rel=1e-9)
        assert (out / f"soc_{doc['extreme_scenario']}.csv").exists()
    else:
        assert doc["node_lps"] == 0 and doc["incumbents"] == []


def test_plan_whose_plan_check_fails_exits_2(ws, tmp_path, capsys,
                                             monkeypatch):
    from hubplan import analysis
    check = analysis.PlanCheck(ok=False, max_residual=1.0, issues=["stub"])
    monkeypatch.setattr(analysis, "verify_plan", lambda *args: check)
    out = tmp_path / "out"
    rc = cli.main(["plan"] + args_for(ws, "--out", str(out)))
    assert rc == 2
    assert capsys.readouterr().err == ("status error: optimal solution "
                                       "failed plan check: ['stub']\n")
    doc = json.loads((out / "audit.json").read_text())
    assert (doc["status"], doc["total"]) == ("error", None)
    assert doc["error"] == "optimal solution failed plan check: ['stub']"
    assert doc["plan_check"] == {"ok": False, "max_residual": 1.0,
                                 "issues": ["stub"]}


@pytest.mark.parametrize("stub, error", [
    ("branch_and_bound", SolverError("stub solver failure")),
    ("cost_breakdown", InfeasibleSolutionError(["x_ess = -1.0"])),
], ids=["SolverError", "InfeasibleSolutionError"])
def test_plan_whose_solve_raises_is_an_error_level(ws, tmp_path, capsys,
                                                   monkeypatch, stub, error):
    # plan records a raised solve as a sweep records such a level: an
    # audit.json with status error and the message, one stderr line, exit 2
    from hubplan import analysis

    def raises(*args, **kwargs):
        raise error

    monkeypatch.setattr(analysis, stub, raises)
    out = tmp_path / "out"
    rc = cli.main(["plan"] + args_for(ws, "--out", str(out),
                                      "--carbon-tax", "40"))
    assert rc == 2
    assert capsys.readouterr().err == f"status error: {error}\n"
    doc = json.loads((out / "audit.json").read_text())
    assert {k: doc[k] for k in ("command", "carbon_tax_yuan_per_ton",
                                "status", "error", "total")} == {
        "command": "plan", "carbon_tax_yuan_per_ton": 40.0,
        "status": "error", "error": str(error), "total": None}
    assert not list(out.glob("dispatch_*.csv"))


def _failing_verdict(name):
    """A stub of hubplan.analysis's verdict name that always fails."""
    from hubplan import analysis
    from hubplan.milp import VerifyReport
    return {"check_solution": lambda model, x: VerifyReport(
                ok=False, max_residual=1.0, bad_rows=[("EB0_0", 1.0)]),
            "verify_plan": lambda *args: analysis.PlanCheck(
                ok=False, max_residual=1.0, issues=["stub"]),
            "chance_audit": lambda *args: analysis.ChanceAudit(
                worst_soc=[0.0, 1.0], substandard=[(0, 0, 0.0)], count=1,
                limit=0, passed=False)}[name]


@pytest.mark.parametrize("verdict, error", [
    ("check_solution", "solution check: [('EB0_0', 1.0)]"),
    ("verify_plan", "plan check: ['stub']"),
    ("chance_audit", "chance audit: 1 substandard scenarios, limit 0"),
])
def test_a_failed_verdict_is_one_error_for_plan_and_sweep(
        ws, tmp_path, capsys, monkeypatch, verdict, error):
    # plan and a sweep level report the status solve_level decides: an
    # optimal incumbent failing any verdict is an error in both, and no
    # table holds its numbers
    from hubplan import analysis
    monkeypatch.setattr(analysis, verdict, _failing_verdict(verdict))
    po, so = tmp_path / "plan", tmp_path / "sweep"
    assert cli.main(["plan"] + args_for(ws, "--out", str(po),
                                        "--carbon-tax", "40")) == 2
    assert capsys.readouterr().err \
        == f"status error: optimal solution failed {error}\n"
    plan = json.loads((po / "audit.json").read_text())
    assert (plan["status"], plan["total"]) == ("error", None)
    assert plan["error"] == f"optimal solution failed {error}"
    assert cli.main(["sweep"] + args_for(ws, "--out", str(so),
                                         "--carbon-tax", "40,1000")) == 2
    levels = json.loads((so / "audit.json").read_text())["levels"]
    assert [(lv["status"], lv["error"], lv["total"]) for lv in levels] \
        == [("error", plan["error"], None)] * 2
    for table in ("plan_summary.csv", "cost_breakdown.csv"):
        with open(so / table) as fh:
            rows = list(csv.reader(fh))
        assert [r[1:] for r in rows[1:]] \
            == [[""] * (len(rows[0]) - 2) + ["error"]] * 2


@pytest.mark.parametrize("exc, rc, prefix", [
    # a solution failing a verdict is not a model proven infeasible
    ("InfeasibleSolutionError", 2, "solver failure: "),
    ("SolverError", 2, "solver failure: "),
    ("HubplanError", 2, "solver failure: "),
])
def test_main_maps_solver_errors_to_exit_codes(ws, capsys, monkeypatch, exc,
                                               rc, prefix):
    from hubplan import errors

    def fail(cfg):
        raise getattr(errors, exc)("stub")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert cli.main(["validate"] + args_for(ws)) == rc
    assert capsys.readouterr().err.startswith(prefix)


def test_plan_writes_reports(ws, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["plan"] + args_for(ws, "--out", str(out)))
    assert rc == 0
    assert "optimal" in capsys.readouterr().out
    doc = json.loads((out / "audit.json").read_text())
    assert doc["status"] == "optimal"
    assert doc["scenario_source"] == "files"
    assert doc["carbon_tax_yuan_per_ton"] == pytest.approx(100.0)
    assert doc["chance_audit"]["passed"] is True
    assert doc["solution_check"]["ok"] and doc["plan_check"]["ok"]
    assert doc["breakdown"]["total"] == pytest.approx(doc["objective"],
                                                      rel=1e-9)
    assert doc["node_lps"] == doc["nodes"] - 1
    assert doc["node_pivots"] < doc["root_pivots"]
    pivots = doc["root_pivots"] + doc["node_pivots"]
    # the cold root starts at the model's start point, which holds every
    # row of the tiny case; the dual phase reoptimizes node LPs only, never
    # the cold root
    assert doc["phase1_pivots"] == 0
    assert 0 < doc["dual_pivots"] <= doc["node_pivots"]
    assert doc["phase1_pivots"] + doc["dual_pivots"] <= pivots
    assert doc["degenerate_pivots"] <= pivots
    assert doc["bland_pivots"] <= pivots
    # most primal pivots carry the reduced costs by the row update
    assert 1 <= doc["priced"] < pivots
    assert doc["kernel_cols"] >= doc["refactors"]
    assert 0 <= doc["infeasible_nodes"] <= doc["node_lps"]
    assert doc["infeasible_nodes"] + doc["cutoff_nodes"] <= doc["node_lps"]
    assert (doc["max_depth"] >= 1) == (doc["nodes"] > 1)
    assert doc["incumbents"][-1] == doc["objective"]
    log = doc["node_log"]
    # the cold root factors its start basis; a node LP starts on its
    # parent's factor and factors again only to claim after a pivot
    assert doc["refactors"] >= 1 + sum(
        e["pivots"] > 0 and e["status"] in ("optimal", "infeasible")
        for e in log)
    assert len(log) == doc["node_lps"]
    assert sum(e["status"] == "cutoff" for e in log) == doc["cutoff_nodes"]
    assert sum(e["pivots"] for e in log) == doc["node_pivots"]
    assert sum(e["dual_pivots"] for e in log) <= doc["dual_pivots"]
    assert all(e["depth"] >= 1 and e["bound"] <= doc["objective"] + 1e-9
               for e in log)
    sid = doc["extreme_scenario"]
    assert sid == 1
    assert (out / f"dispatch_{sid}.csv").exists()
    assert (out / f"soc_{sid}.csv").exists()
    assert not (out / "model.mps").exists()


def test_plan_tax_flag(ws, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["plan"] + args_for(ws, "--out", str(out),
                                      "--carbon-tax", "40"))
    assert rc == 0
    doc = json.loads((out / "audit.json").read_text())
    assert doc["carbon_tax_yuan_per_ton"] == 40.0


def test_plan_prices_at_the_case_tax_exactly(data_dir, tmp_path,
                                             monkeypatch):
    # without --carbon-tax, plan prices at the case's own tax: a tax that
    # times 1000 and back is one ulp off still prices its cost parts as
    # cost_breakdown does at the case's tariffs
    with open(os.path.join(data_dir, "case.json")) as fh:
        doc = json.load(fh)
    doc["tariffs"]["carbon_tax"] = 0.041694756064392845
    (tmp_path / "case.json").write_text(json.dumps(doc))
    days = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "data")
    sweeps, real = [], cli.sweep_carbon_tax

    def recorded(*args, **kwargs):
        sweeps.append((args, real(*args, **kwargs)))
        return sweeps[-1][1]

    monkeypatch.setattr(cli, "sweep_carbon_tax", recorded)
    out = tmp_path / "out"
    assert cli.main([
        "plan", "--case", str(tmp_path / "case.json"),
        "--scenarios", os.path.join(days, "n3_scenarios.csv"),
        "--scenario-ev", os.path.join(days, "n3_scenarios_ev.csv"),
        "--out", str(out)]) == 0
    (args, sweep), = sweeps
    catalog, tariffs, scen = args[:3]
    level, = sweep.levels
    want = cost_breakdown(level.plan, catalog, tariffs).as_dict()
    assert want["carbon_from_elec"] == 12.487082662089543
    assert want["carbon_from_gas"] == 8.160630648219907
    assert level.breakdown.as_dict() == want
    audit = json.loads((out / "audit.json").read_text())
    assert audit["breakdown"] == want


def test_plan_rejects_tax_list(ws, tmp_path, capsys):
    rc = cli.main(["plan"] + args_for(ws, "--out", str(tmp_path / "o"),
                                      "--carbon-tax", "40,100"))
    assert rc == 1
    assert "single carbon tax" in capsys.readouterr().err


def test_plan_rejects_tax_list_before_generating(data_dir, tmp_path, capsys):
    # desk_run.json carries a five-level list: refused before any scenario
    # generation starts
    out = tmp_path / "o"
    rc = cli.main(["plan", "--config", os.path.join(data_dir, "desk_run.json"),
                   "--out", str(out)])
    assert rc == 1
    assert "single carbon tax" in capsys.readouterr().err
    assert not (out / "scenarios.csv").exists()


def _must_not_generate(*args, **kwargs):
    raise AssertionError("scenario generation started")


def _must_not_read(*args, **kwargs):
    raise AssertionError("an input file was read")


@pytest.mark.parametrize("command", ["plan", "sweep", "export-mps",
                                     "scen gen", "validate"])
@pytest.mark.parametrize("flags, doc_update", [
    (["--zeta", "1.5"], {}),
    ([], {"mode": "binary"}),  # a removed key, even with its old value
    (["--rel-gap", "-1"], {}),
    (["--max-nodes", "0"], {}),
    (["--time-limit", "0"], {}),
    (["--carbon-tax", "-40"], {}),
    ([], {"carbon_tax": [40, -1]}),
    ([], {"seed": "abc"}),
    ([], {"gen_tol": 0.05}),  # the generator's tolerance is fixed
    ([], {"extreme": "wind"}),  # used only once the plan is solved
    ([], {"n_scenarios": 2.7}),  # not truncated to 2
    ([], {"seed": 1.5}),
    ([], {"max_nodes": 2.5}),
    ([], {"carbon_tax": True}),  # not taken as 1 yuan/t
    ([], {"case": 5}),  # a path that is not a string
    (["--seed", "99999999999999999999999"], {}),  # beyond 2**63
    (["--out", os.path.abspath(__file__)], {}),  # an existing file
    # below an existing file
    (["--out", os.path.join(os.path.abspath(__file__), "sub")], {}),
    (["--zeta", "abc"], {}),  # not a number
    ([], {"rel_gap": "x"}),
    (["--carbon-tax", "40,x"], {}),
])
def test_bad_options_exit_before_generating(data_dir, tmp_path, capsys,
                                            monkeypatch, command, flags,
                                            doc_update):
    # desk_run.json generates scenarios from history: every bad option is
    # refused before any input is read, and nothing is written
    monkeypatch.setattr(cli, "generate_scenarios", _must_not_generate)
    monkeypatch.setattr(cli, "read_case", _must_not_read)
    with open(os.path.join(data_dir, "desk_run.json")) as fh:
        doc = json.load(fh)
    doc = {k: (os.path.join(data_dir, v) if k in cli._PATH_KEYS else v)
           for k, v in doc.items()}
    doc.update(doc_update)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "o"
    argv = command.split() + ["--config", str(config), "--out",
                              str(out)] + flags
    if command in ("plan", "export-mps") and "carbon_tax" not in doc_update \
            and "--carbon-tax" not in flags:
        argv += ["--carbon-tax", "40"]
    t0 = time.perf_counter()
    rc = cli.main(argv)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    key, = doc_update or [flags[0].lstrip("-").replace("-", "_")]
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["plan"], ["sweep"], ["scen", "gen"]])
@pytest.mark.parametrize("n", ["-3", "0"])
def test_bad_n_exits_before_reading_inputs(data_dir, tmp_path, capsys,
                                           command, n):
    # the history path does not exist: the scenario count is refused first
    out = tmp_path / "o"
    rc = cli.main(command + [
        "--case", os.path.join(data_dir, "case.json"),
        "--history-loads", str(tmp_path / "missing.csv"),
        "--carbon-tax", "40", "--n", n, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: n must be >= 2, got {n}")
    assert not out.exists()


def test_export_mps_subcommand(ws, tiny, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["export-mps"] + args_for(ws, "--out", str(out),
                                            "--zeta", "0.0"))
    assert rc == 0
    assert "rows" in capsys.readouterr().out
    text = (out / "model.mps").read_text()
    model = assemble_model(tiny.grid, tiny.catalog, tiny.tariffs, tiny.scen,
                           tiny.config)
    assert text == write_mps(model)


def test_export_mps_rejects_tax_list_before_reading(data_dir, tmp_path,
                                                   capsys):
    # desk_run.json carries a five-level list: refused before any input is
    # read, not exported at its first level
    out = tmp_path / "o"
    rc = cli.main(["export-mps", "--config",
                   os.path.join(data_dir, "desk_run.json"), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: export-mps takes a single carbon tax; use sweep for a list\n")
    assert not out.exists()


def test_export_mps_rejects_a_bad_tax_before_generating(data_dir, tmp_path,
                                                       capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate_scenarios", _must_not_generate)
    out = tmp_path / "o"
    rc = cli.main(["export-mps", "--config",
                   os.path.join(data_dir, "desk_run.json"),
                   "--carbon-tax", "-40", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: carbon_tax must be finite and >= 0, got -40.0\n")
    assert not out.exists()


def test_missing_case(tmp_path, capsys):
    rc = cli.main(["plan", "--case", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_no_case_given(capsys):
    rc = cli.main(["plan"])
    assert rc == 1
    assert "--case" in capsys.readouterr().err


def test_unknown_config_key(ws, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"frobnicate": 1}\n')
    rc = cli.main(["validate", "--config", str(cfg)])
    assert rc == 1
    assert "frobnicate" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["config", "case", "history_loads"])
def test_non_utf8_input_exits_1(data_dir, tmp_path, capsys, which):
    # a 0xff byte, never UTF-8, in any input file is an input error naming
    # the file, not a traceback
    doc = {"case": os.path.join(data_dir, "case.json"),
           "history_loads": os.path.join(data_dir, "history_loads.csv")}
    cfg = bad = tmp_path / "bad"
    if which == "config":
        text = json.dumps(doc, indent=1).encode()
    else:
        with open(doc[which], "rb") as fh:
            text = fh.read()
        doc[which] = str(bad)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
    bad.write_bytes(text.replace(b"\n", b"\n\xff", 1))
    assert cli.main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text: byte 0xff (invalid start byte)\n")


@pytest.mark.parametrize("which", ["config", "case", "history_loads"])
def test_directory_input_exits_1(data_dir, tmp_path, capsys, which):
    # any input path that names a directory is an input error naming it
    doc = {"case": os.path.join(data_dir, "case.json"),
           "history_loads": os.path.join(data_dir, "history_loads.csv")}
    cfg = tmp_path / "cfg.json"
    if which == "config":
        cfg = tmp_path
    else:
        doc[which] = str(tmp_path)
        cfg.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path}: cannot read: Is a directory\n")


_EV_HEADER = "scenario,ev_id,arrive_hour,depart_hour,initial_soc\n"


def _first_day(data_dir):
    """The bundled history's first day, as a one-day scenario table."""
    with open(os.path.join(data_dir, "history_loads.csv")) as fh:
        return "".join(fh.readlines()[:25])


@pytest.mark.parametrize("files, flags, message", [
    ({"loads": ""}, ["--scenarios", "loads"],
     "{loads}, line 1: empty file, header row required"),
    ({"loads": "scenario,hour,elec_load_kw,heat_load_kw,pv_avail_kw\n"},
     ["--scenarios", "loads"], "{loads}, line 2: no data rows"),
    ({"loads": _first_day, "ev": _EV_HEADER},
     ["--scenarios", "loads", "--scenario-ev", "ev"],
     "{ev}: EV table has 0 vehicles, fleet has 5"),
    ({"ev": _EV_HEADER}, ["--history-ev", "ev"],
     "fleet has 5 vehicles, history provides 0"),
    ({"loads": _first_day}, ["--scenarios", "loads"],
     "{loads}: fleet has 5 vehicles but no EV table was given"),
    ({"loads": _first_day,
      "ev": _EV_HEADER + "0,0,8,8,0.5\n"
      + "".join(f"0,{j},8,17,0.5\n" for j in range(1, 5))},
     ["--scenarios", "loads", "--scenario-ev", "ev"],
     "{ev}: scenario 0: depart_hour must exceed arrive_hour"),
])
def test_input_table_errors_exit_1(data_dir, tmp_path, capsys, files, flags,
                                   message):
    # each is refused on read, naming the file, before an output directory
    # is made; the other inputs are the bundled case and history
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(text(data_dir) if callable(text) else text)
    out = tmp_path / "out"
    rc = cli.main(["plan", "--case", os.path.join(data_dir, "case.json"),
                   "--history-loads",
                   os.path.join(data_dir, "history_loads.csv"),
                   "--carbon-tax", "40", "--out", str(out)]
                  + [str(paths.get(f, f)) for f in flags])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {message.format(**paths)}\n")
    assert not out.exists()


def test_unwritable_output_exits_1(ws, data_dir, tmp_path, capsys):
    # an output file that cannot be opened is one error line naming it,
    # exit 1, whether found after a solve or after a generation
    out = tmp_path / "plan_out"
    (out / "audit.json").mkdir(parents=True)
    assert cli.main(["plan"] + args_for(ws, "--out", str(out))) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'audit.json'}: cannot write: Is a directory\n")
    out = tmp_path / "gen_out"
    (out / "scen_log.json").mkdir(parents=True)
    rc = cli.main(["scen", "gen", "--config",
                   os.path.join(data_dir, "desk_run.json"), "--n", "6",
                   "--seed", "3", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'scen_log.json'}: cannot write: Is a directory\n")


def test_config_out_resolves_against_the_working_directory(tmp_path,
                                                           monkeypatch):
    # out is a directory to create, not an input: a config's value is
    # taken as given, relative to the working directory, while its input
    # paths resolve against the config file's directory
    cfg_dir = tmp_path / "cfgdir"
    cfg_dir.mkdir()
    cfg = cfg_dir / "run.json"
    cfg.write_text(json.dumps({"out": "res", "case": "case.json"}))
    monkeypatch.chdir(tmp_path)
    got = cli.load_config(cli.build_parser().parse_args(
        ["validate", "--config", os.path.join("cfgdir", "run.json")]))
    assert got["out"] == "res"
    assert got["case"] == str(cfg_dir / "case.json")


def test_config_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]\n")
    assert cli.main(["validate", "--config", str(cfg)]) == 1
    assert "JSON object" in capsys.readouterr().err


def test_sweep_config_paths_and_flag_override(ws, tmp_path):
    # config paths resolve relative to the config file; flags win over keys
    cfg = ws / "cfg.json"
    cfg.write_text(json.dumps({
        "case": "case.json", "scenarios": "scen.csv",
        "scenario_ev": "scen_ev.csv", "carbon_tax": [40.0, 1000.0]}) + "\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["sweep", "--config", str(cfg),
                     "--out", str(out1)]) == 0
    rows = list(csv.reader((out1 / "plan_summary.csv").open()))
    assert len(rows) == 3  # header + both config levels
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out2),
                     "--carbon-tax", "400"]) == 0
    rows = list(csv.reader((out2 / "plan_summary.csv").open()))
    assert len(rows) == 2 and float(rows[1][0]) == 400.0


def test_sweep_audit(ws, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["sweep"] + args_for(ws, "--out", str(out),
                                       "--carbon-tax", "40,1000"))
    assert rc == 0
    shown = capsys.readouterr().out
    assert shown.count("optimal") == 2
    doc = json.loads((out / "audit.json").read_text())
    levels = doc["levels"]
    assert [lv["carbon_tax_yuan_per_ton"] for lv in levels] == [40.0, 1000.0]
    assert levels[0]["total"] <= levels[1]["total"] + 1e-9
    # the second level's root starts from the first level's root basis
    assert levels[1]["root_pivots"] < levels[0]["root_pivots"]
    # the cold first root starts at the model's start point, which holds
    # every row of the tiny case
    assert levels[0]["phase1_pivots"] == 0
    assert all(lv["kernel_cols"] >= lv["refactors"] >= 1 for lv in levels)
    for lv in levels:
        assert 0 <= lv["infeasible_nodes"] <= lv["node_lps"]
        assert sum(e["status"] == "cutoff"
                   for e in lv["node_log"]) == lv["cutoff_nodes"]
        assert lv["incumbents"] == sorted(lv["incumbents"], reverse=True)
        assert lv["incumbents"][-1] == pytest.approx(lv["total"], rel=1e-9)
        assert 0 <= lv["dual_pivots"] <= lv["node_pivots"]
        assert len(lv["node_log"]) == lv["node_lps"]
        assert sum(e["pivots"] for e in lv["node_log"]) == lv["node_pivots"]
    # sweep levels' roots start primal feasible: the dual serves the tree
    assert any(lv["dual_pivots"] > 0 for lv in levels)
    assert doc["notes"]
    assert (out / "cost_breakdown.csv").exists()


def test_sweep_level_records_what_plan_records(ws, tmp_path):
    # plan and sweep share one verified solve: a one-level sweep at a tax
    # records what plan records at that tax, verdicts included
    po, so = tmp_path / "plan", tmp_path / "sweep"
    for command, out in (("plan", po), ("sweep", so)):
        assert cli.main([command] + args_for(ws, "--out", str(out),
                                             "--carbon-tax", "400")) == 0
    plan = json.loads((po / "audit.json").read_text())
    level, = json.loads((so / "audit.json").read_text())["levels"]
    command_keys = {"command", "zeta", "scenario_source",
                    "extreme_scenario", "wall_time_s"}
    keys = set(plan) - command_keys
    assert {"objective", "x_fc", "x_ess_kwh", "breakdown", "chance_audit",
            "solution_check", "plan_check", "root_pivots",
            "node_log"} <= keys <= set(level)
    assert {k: level[k] for k in keys} == {k: plan[k] for k in keys}
    assert level["total"] == plan["breakdown"]["total"]


def test_plan_with_an_unrepaired_overlap_exits_2(ws, tiny, tmp_path, capsys,
                                                 monkeypatch):
    # an overlap the repair must leave is reported and fails the plan
    from conftest import with_pv_less_overlap
    from hubplan import analysis
    real = analysis.branch_and_bound

    def overlapping(model, **kwargs):
        sol = real(model, **kwargs)
        return dataclasses.replace(sol, x=with_pv_less_overlap(
            model, tiny.fleet, sol.x))

    monkeypatch.setattr(analysis, "branch_and_bound", overlapping)
    out = tmp_path / "out"
    assert cli.main(["plan"] + args_for(ws, "--out", str(out))) == 2
    doc = json.loads((out / "audit.json").read_text())
    assert (doc["overlap_hours"], doc["overlap_unrepaired"]) == (
        1, ["VC0_0_0"])
    assert doc["solution_check"]["ok"] and not doc["plan_check"]["ok"]
    assert capsys.readouterr().err.startswith(
        "status error: optimal solution failed plan check: ")


def test_sweep_level_whose_solve_raises(ws, tmp_path, capsys, monkeypatch):
    # the second of three levels raises; it keeps the message and the
    # others still solve
    from hubplan import analysis
    from hubplan.errors import SolverError
    solve_level, calls = analysis.solve_level, []

    def second_raises(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise SolverError("stub failure")
        return solve_level(*args, **kwargs)

    monkeypatch.setattr(analysis, "solve_level", second_raises)
    out = tmp_path / "out"
    rc = cli.main(["sweep"] + args_for(ws, "--out", str(out),
                                       "--carbon-tax", "40,400,1000"))
    assert rc == 0 and len(calls) == 3
    assert "tax   400.0: error      total -" in capsys.readouterr().out
    levels = json.loads((out / "audit.json").read_text())["levels"]
    assert [lv["status"] for lv in levels] == ["optimal", "error", "optimal"]
    assert levels[1] == {"carbon_tax_yuan_per_ton": 400.0, "status": "error",
                         "error": "stub failure", "total": None}
    with open(out / "plan_summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert [r[-1] for r in rows[1:]] == ["optimal", "error", "optimal"]
    assert rows[2][1:-1] == [""] * (len(rows[0]) - 2)
    assert "" not in rows[1] + rows[3]


def test_sweep_needs_taxes(ws, capsys):
    rc = cli.main(["sweep"] + args_for(ws))
    assert rc == 1
    assert "carbon-tax" in capsys.readouterr().err


def test_infeasible_exit(ws, tiny, tmp_path, capsys):
    # a vehicle that departs one hour after arriving at low charge cannot
    # reach its target, and zeta 0 forbids writing it off
    stuck = dataclasses.replace(tiny.scen, scenarios=tuple(
        dataclasses.replace(sc, ev_records=(EvRecord(0, 1, 0.2),))
        for sc in tiny.scen.scenarios))
    write_scenario_set(stuck, str(tmp_path / "s.csv"),
                       str(tmp_path / "s_ev.csv"))
    out = tmp_path / "out"
    rc = cli.main(["plan", "--case", str(ws / "case.json"),
                   "--scenarios", str(tmp_path / "s.csv"),
                   "--scenario-ev", str(tmp_path / "s_ev.csv"),
                   "--zeta", "0.0", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("infeasible:")
    doc = json.loads((out / "audit.json").read_text())
    assert doc["status"] == "infeasible"
    assert doc["infeasible_hint"]
    # a sweep level names the same violated families
    rc = cli.main(["sweep", "--case", str(ws / "case.json"),
                   "--scenarios", str(tmp_path / "s.csv"),
                   "--scenario-ev", str(tmp_path / "s_ev.csv"),
                   "--zeta", "0.0", "--carbon-tax", "100",
                   "--out", str(tmp_path / "sweep")])
    assert rc == 2
    level, = json.loads((tmp_path / "sweep" / "audit.json").read_text())[
        "levels"]
    assert level["status"] == "infeasible"
    assert level["infeasible_hint"] == doc["infeasible_hint"]


def test_invalid_scenario_values_exit_before_solving(ws, tiny, tmp_path,
                                                    capsys):
    # PV above the case's pv_cap (50) and a negative heat load parse as
    # numbers; validation on read refuses them before any model is built
    s0, s1 = tiny.scen.scenarios
    bad = dataclasses.replace(tiny.scen, scenarios=(
        dataclasses.replace(s0, pv_avail=(0.0, 60.0, 12.0, 2.0)),
        dataclasses.replace(s1, heat_load=(9.0, 14.0, -1.0, 5.0))))
    write_scenario_set(bad, str(tmp_path / "s.csv"),
                       str(tmp_path / "s_ev.csv"))
    for command in (["validate"], ["plan"],
                    ["sweep", "--carbon-tax", "100,200"]):
        out = tmp_path / ("out_" + command[0])
        rc = cli.main(command + [
            "--case", str(ws / "case.json"),
            "--scenarios", str(tmp_path / "s.csv"),
            "--scenario-ev", str(tmp_path / "s_ev.csv"), "--out", str(out)])
        assert rc == 1, command
        err = capsys.readouterr().err
        assert "scenario 0, hour 1: pv_avail: 60.0 exceeds pv_cap" in err
        assert "scenario 1, hour 2: heat_load: negative value -1.0" in err
        assert not (out / "audit.json").exists()


def test_scen_gen(data_dir, tmp_path, capsys):
    # the bundled case cut to two hours and no vehicles, and a year of a
    # smooth two-hour history without an EV table: the draw matches its
    # moments and correlations within the generator's tolerance
    with open(os.path.join(data_dir, "case.json")) as fh:
        doc = json.load(fh)
    doc["planning"]["hours_per_day"] = 2
    for key in ("elec_price", "grid_emission"):
        doc["tariffs"][key] = doc["tariffs"][key][:2]
    doc["ev_fleet"]["n_ev"] = 0
    (tmp_path / "case.json").write_text(json.dumps(doc))
    rng = np.random.default_rng(0)
    elec = 20 + 5 * rng.standard_normal((365, 2)) + rng.gamma(2, 2, (365, 2))
    heat = 10 + rng.gamma(3, 1.5, (365, 2))
    pv = np.maximum(0, 10 + 3 * rng.standard_normal((365, 2)))
    (tmp_path / "history.csv").write_text(
        "scenario,hour,elec_load_kw,heat_load_kw,pv_avail_kw\n" + "".join(
            f"{s},{t},{elec[s, t]},{heat[s, t]},{pv[s, t]}\n"
            for s in range(365) for t in range(2)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "case.json",
                               "history_loads": "history.csv",
                               "n_scenarios": 10}) + "\n")
    out = tmp_path / "out"
    rc = cli.main(["scen", "gen", "--config", str(cfg), "--n", "50",
                   "--seed", "11", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr()
    assert "wrote 50 scenarios" in printed.out  # flag beat config
    assert printed.err == ""
    with (out / "scenarios.csv").open() as fh:
        ids = {row["scenario"] for row in csv.DictReader(fh)}
    assert ids == {str(s) for s in range(50)}
    assert (out / "scenarios_ev.csv").read_text().count("\n") == 1
    log = json.loads((out / "scen_log.json").read_text())
    assert log["converged"] is True and log["seed"] == 11
    best = log["iterations"][log["best_iteration"] - 1]
    assert max(best["moment_err"], best["corr_err"]) <= 0.05


def test_scen_gen_nonconverged(data_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "case": os.path.join(data_dir, "case.json"),
        "history_loads": os.path.join(data_dir, "history_loads.csv"),
        "history_ev": os.path.join(data_dir, "history_ev.csv")}) + "\n")
    out = tmp_path / "out"
    rc = cli.main(["scen", "gen", "--config", str(cfg), "--n", "10",
                   "--out", str(out)])
    assert rc == 2
    assert "converged=False" in capsys.readouterr().out
    assert (out / "scenarios.csv").exists()  # best effort still lands


def test_scen_gen_reports_the_round_it_wrote(data_dir, tmp_path, capsys):
    # the written panel is the best round's, not the last round's
    out = tmp_path / "out"
    rc = cli.main(["scen", "gen",
                   "--case", os.path.join(data_dir, "case.json"),
                   "--history-loads",
                   os.path.join(data_dir, "history_loads.csv"),
                   "--history-ev", os.path.join(data_dir, "history_ev.csv"),
                   "--n", "10", "--seed", "7", "--out", str(out)])
    assert rc == 2
    log = json.loads((out / "scen_log.json").read_text())
    rounds = log["iterations"]
    best = rounds[log["best_iteration"] - 1]
    assert best["iteration"] == log["best_iteration"] < len(rounds)
    printed = capsys.readouterr().out
    assert (f"moment_err={best['moment_err']:.4f}, "
            f"corr_err={best['corr_err']:.4f})") in printed
    assert f"moment_err={rounds[-1]['moment_err']:.4f}" not in printed


@pytest.mark.parametrize("table, row, column", [
    ("history_loads", "nan,0,88.596,51.308,0.0", "scenario"),
    ("history_loads", "inf,0,88.596,51.308,0.0", "scenario"),
    ("history_loads", "0,0,nan,51.308,0.0", "elec_load_kw"),
    ("history_ev", "0,nan,8.2525,18.3808,0.3447", "ev_id"),
])
def test_scen_gen_rejects_non_finite_history(data_dir, tmp_path, capsys,
                                             table, row, column):
    # a non-finite cell in line 2 is refused on read, before generation
    paths = {}
    for name in ("history_loads", "history_ev"):
        with open(os.path.join(data_dir, name + ".csv")) as fh:
            lines = fh.read().splitlines()
        if name == table:
            lines[1] = row
        paths[name] = tmp_path / (name + ".csv")
        paths[name].write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    rc = cli.main(["scen", "gen", "--case", os.path.join(data_dir, "case.json"),
                   "--history-loads", str(paths["history_loads"]),
                   "--history-ev", str(paths["history_ev"]), "--n", "5",
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"line 2, column '{column}': not a finite number" in err
    assert not out.exists()


def _fresh_hubplan(argv):
    """Run hubplan with argv in a new interpreter, outside pytest's capture
    and warning filters. The child imports the hubplan these tests import,
    also when pytest put it on sys.path (pyproject's pythonpath) rather
    than PYTHONPATH."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(
        hubplan.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [pkg_root] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-m", "hubplan.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_fresh_process_determinism(ws, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        proc = _fresh_hubplan(["plan"] + args_for(ws, "--out", str(out)))
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    a, b = outs
    assert (a / "dispatch_1.csv").read_bytes() == \
        (b / "dispatch_1.csv").read_bytes()
    assert (a / "soc_1.csv").read_bytes() == (b / "soc_1.csv").read_bytes()
    da = json.loads((a / "audit.json").read_text())
    db = json.loads((b / "audit.json").read_text())
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert da == db


def test_fresh_process_stderr_is_the_status_line(data_dir, tmp_path):
    # a run that ends short of its goal says why on one stderr line, and
    # scenario generation adds nothing to it
    config = os.path.join(data_dir, "desk_run.json")
    proc = _fresh_hubplan(["plan", "--config", config, "--carbon-tax", "40",
                           "--max-nodes", "1", "--out", str(tmp_path / "p")])
    assert proc.returncode == 2
    assert proc.stderr == "status node_limit: solver ended node_limit\n"
    out = tmp_path / "g"
    (out / "scen_log.json").mkdir(parents=True)
    proc = _fresh_hubplan(["scen", "gen", "--config", config, "--n", "6",
                           "--seed", "3", "--out", str(out)])
    assert proc.returncode == 1
    assert proc.stderr == (
        f"error: {out / 'scen_log.json'}: cannot write: Is a directory\n")
