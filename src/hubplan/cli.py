"""Command-line pipeline: validate inputs, generate scenario days, plan the
hub, sweep carbon taxes, export the model as MPS.

Exit codes are a stable scripting contract: 0 success, 1 input error,
2 best-effort (tolerance or limit not met), 3 infeasible model. Given the
same inputs and seed, reruns write byte-identical CSVs; audit.json differs
only in its wall-time field.
"""

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .analysis import (dispatch_table, select_extreme_scenario, soc_table,
                       solve_level, sweep_carbon_tax, write_audit_json,
                       write_cost_breakdown, write_plan_summary,
                       write_table_csv)
# perfbench/tracer.py hooks these names on this module; the pipeline calls
# them through hubplan.analysis
from .analysis import (branch_and_bound, chance_audit, check_solution,
                       cost_breakdown, extract_solution, verify_plan)
from .errors import (HubplanError, InfeasibleSolutionError,
                     InvalidParameterError, ModelBuildError, MomentFitError,
                     MpsFormatError, ParseError, SolverError)
from .fileio import (read_case, read_history, read_scenario_set,
                     write_scenario_set)
from .milp import write_mps
from .milp.bnb import check_limits
from .model import ModelConfig, assemble_model
from .scengen import generate_scenarios

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PARTIAL = 2
EXIT_INFEASIBLE = 3

_PATH_KEYS = ("case", "history_loads", "history_ev", "scenarios",
              "scenario_ev")

_DEFAULTS = {
    "case": None,
    "history_loads": None,
    "history_ev": None,
    "scenarios": None,
    "scenario_ev": None,
    "out": "out",
    "n_scenarios": 10,
    "seed": 7,
    "gen_tol": 0.05,
    "gen_max_iters": 50,
    "zeta": 0.05,
    "carbon_tax": None,
    "mode": "relaxed",
    "extreme": "elec",
    "rel_gap": 1e-6,
    "max_nodes": 100000,
    "time_limit_s": None,
}


def load_config(args) -> dict:
    """Merge defaults, the optional --config JSON, then explicit flags."""
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        path = args.config
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read config: {exc}", path=path) from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", path=path,
                             line=exc.lineno, column=exc.colno) from exc
        if not isinstance(doc, dict):
            raise ParseError("config must be a JSON object", path=path)
        unknown = sorted(set(doc) - set(_DEFAULTS))
        if unknown:
            raise ParseError(f"unknown config keys: {', '.join(unknown)}",
                             path=path)
        base = os.path.dirname(os.path.abspath(path))
        for key, val in doc.items():
            if key in _PATH_KEYS and isinstance(val, str):
                val = os.path.join(base, val)
            cfg[key] = val
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            cfg[key] = flag
    return cfg


def _require(cfg, key, hint):
    if not cfg.get(key):
        raise InvalidParameterError(f"{hint} required: give --{key.replace('_', '-')} "
                                    "or set it in the config file")
    return cfg[key]


def _tax_list(cfg):
    """The carbon-tax levels of cfg (yuan per ton), each checked finite and
    >= 0; None when none is given."""
    taxes = cfg.get("carbon_tax")
    if taxes is None:
        return None
    if not isinstance(taxes, (list, tuple)):
        taxes = [taxes]
    try:
        levels = [float(v) for v in taxes]
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"carbon_tax must be numbers: {exc}") from exc
    for tax in levels:
        if not (math.isfinite(tax) and tax >= 0.0):
            raise InvalidParameterError(
                f"carbon_tax must be finite and >= 0, got {tax}")
    return levels


def _load_scenarios(cfg, case, out=None):
    """ScenarioSet from files when given, else generated from history and,
    with out given, written there with its generation log (scen_log.json).

    Returns (scenario_set, source, gen_log_or_None); source holds what
    audit.json records of where the scenarios came from.
    """
    if cfg["scenarios"]:
        scen = read_scenario_set(cfg["scenarios"], case,
                                 ev_path=cfg["scenario_ev"])
        return scen, {"scenario_source": "files"}, None
    loads = _require(cfg, "history_loads", "history or scenario files")
    elec, heat, pv, ev = read_history(loads, cfg["history_ev"])
    scen, raw = generate_scenarios(
        case, elec, heat, pv, ev, n_scenarios=_n_scenarios(cfg),
        seed=int(cfg["seed"]), tol=float(cfg["gen_tol"]),
        max_iters=int(cfg["gen_max_iters"]))
    log = {"seed": raw.seed, "converged": raw.converged,
           "best_iteration": raw.best_iteration,
           "iterations": raw.iteration_log}
    if out is not None:
        os.makedirs(out, exist_ok=True)
        write_scenario_set(scen, os.path.join(out, "scenarios.csv"),
                           os.path.join(out, "scenarios_ev.csv"))
        write_audit_json(os.path.join(out, "scen_log.json"), log)
    return scen, {"scenario_source": "generated", "seed": raw.seed}, log


def cmd_validate(cfg):
    case = read_case(_require(cfg, "case", "case file"))
    print(f"case ok: {len(case.catalog.fuel_cells)} fuel-cell types, "
          f"T={case.hours_per_day}, fleet of {case.catalog.ev_fleet.n_ev}")
    if cfg["scenarios"]:
        scen = read_scenario_set(cfg["scenarios"], case,
                                 ev_path=cfg["scenario_ev"])
        print(f"scenarios ok: {scen.grid.n_scenarios} days")
    elif cfg["history_loads"]:
        elec, heat, pv, ev = read_history(cfg["history_loads"],
                                          cfg["history_ev"])
        n_ev = 0 if ev is None else ev.shape[1]
        print(f"history ok: {elec.shape[0]} days, {n_ev} vehicles")
    return EXIT_OK


def cmd_scen_gen(cfg):
    _n_scenarios(cfg)
    case = read_case(_require(cfg, "case", "case file"))
    out = cfg["out"]
    scen, _source, log = _load_scenarios(dict(cfg, scenarios=None), case, out)
    # the errors of the round whose panel was written
    best = (log["iterations"][log["best_iteration"] - 1]
            if log["best_iteration"] else {})
    print(f"wrote {scen.grid.n_scenarios} scenarios to {out} "
          f"(converged={log['converged']}, "
          f"moment_err={best.get('moment_err', float('nan')):.4f}, "
          f"corr_err={best.get('corr_err', float('nan')):.4f})")
    return EXIT_OK if log["converged"] else EXIT_PARTIAL


def _model_config(cfg):
    """ModelConfig from cfg; raises InvalidParameterError on a bad value."""
    try:
        zeta = float(cfg["zeta"])
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"zeta must be a number: {exc}") from exc
    return ModelConfig(zeta=zeta, exclusivity_mode=cfg["mode"])


def _n_scenarios(cfg):
    """The number of scenarios to generate, checked."""
    try:
        n = int(cfg["n_scenarios"])
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"n must be an integer: {exc}") from exc
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    return n


def _bnb_limits(cfg):
    """branch_and_bound's limit keywords from cfg, checked."""
    try:
        limits = {"rel_gap": float(cfg["rel_gap"]),
                  "max_nodes": int(cfg["max_nodes"]),
                  "time_limit_s": None if cfg["time_limit_s"] is None
                  else float(cfg["time_limit_s"])}
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"solver limits must be numbers: {exc}") from exc
    check_limits(**limits)
    return limits


def _single_tax(cfg, command):
    """The one carbon tax (yuan per ton) of cfg, or None for the case's."""
    taxes = _tax_list(cfg)
    if taxes is not None and len(taxes) != 1:
        raise InvalidParameterError(
            f"{command} takes a single carbon tax; use sweep for a list")
    return taxes[0] if taxes else None


def cmd_plan(cfg):
    # options are checked before any input is read
    tax = _single_tax(cfg, "plan")
    config = _model_config(cfg)
    limits = _bnb_limits(cfg)
    _n_scenarios(cfg)
    case = read_case(_require(cfg, "case", "case file"))
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    scen, source, _log = _load_scenarios(cfg, case, out)

    tariffs = case.tariffs if tax is None else case.tariffs.with_carbon_tax(tax)
    model = assemble_model(scen.grid, case.catalog, tariffs, scen, config)
    level = solve_level(model, scen, case.catalog, tariffs, config, **limits)

    audit_doc = {
        "command": "plan",
        **level.as_dict(),
        "zeta": config.zeta,
        "mode": config.exclusivity_mode,
        "carbon_tax_yuan_per_ton": tax if tax is not None
        else tariffs.carbon_tax * 1000.0,
        **source,
    }
    plan, audit, bnb = level.plan, level.audit, level.bnb
    if plan is not None:
        s_id = select_extreme_scenario(scen, cfg["extreme"])
        hdr, rows = dispatch_table(plan, scen, case.catalog, tariffs, s_id)
        write_table_csv(os.path.join(out, f"dispatch_{s_id}.csv"), hdr, rows)
        hdr, rows = soc_table(plan, case.catalog, s_id)
        write_table_csv(os.path.join(out, f"soc_{s_id}.csv"), hdr, rows)
        audit_doc["extreme_scenario"] = s_id
    write_audit_json(os.path.join(out, "audit.json"), audit_doc)
    if level.infeasible_hint is not None:
        print(f"infeasible: {level.infeasible_hint}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if plan is None:
        print(f"solver stopped early ({bnb.status}, gap {bnb.gap:.3e})",
              file=sys.stderr)
        return EXIT_PARTIAL
    print(f"optimal {bnb.objective:.4f} in {bnb.n_nodes} nodes; "
          f"x_fc {plan.x_fc}, bess {plan.x_ess:.1f} kWh; "
          f"audit {'passed' if audit.passed else 'FAILED'} "
          f"({audit.count}/{audit.limit} substandard)")
    if not (level.check.ok and level.plan_check.ok and audit.passed):
        print("verification failed; see audit.json", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_sweep(cfg):
    # options are checked before any input is read
    taxes = _tax_list(cfg)
    if not taxes:
        raise InvalidParameterError("sweep needs --carbon-tax with at least "
                                    "one level (yuan per ton)")
    config = _model_config(cfg)
    limits = _bnb_limits(cfg)
    _n_scenarios(cfg)
    case = read_case(_require(cfg, "case", "case file"))
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    scen, source, _log = _load_scenarios(cfg, case, out)

    t0 = time.perf_counter()
    sweep = sweep_carbon_tax(scen.grid, case.catalog, case.tariffs, scen,
                             config, taxes, **limits)
    wall = time.perf_counter() - t0

    write_plan_summary(os.path.join(out, "plan_summary.csv"), sweep,
                       case.catalog)
    write_cost_breakdown(os.path.join(out, "cost_breakdown.csv"), sweep)
    write_audit_json(os.path.join(out, "audit.json"), {
        "command": "sweep",
        "wall_time_s": wall,
        **source,
        "levels": [lv.as_dict() for lv in sweep.levels],
        "notes": sweep.notes,
    })
    n_ok = sum(lv.status == "optimal" for lv in sweep.levels)
    for lv in sweep.levels:
        total = "-" if lv.optimal is None \
            else f"{lv.optimal.breakdown.total:.1f}"
        print(f"tax {lv.carbon_tax:7.1f}: {lv.status:10s} total {total}")
    return EXIT_OK if n_ok >= 1 else EXIT_PARTIAL


def cmd_export_mps(cfg):
    # options are checked before any input is read
    tax = _single_tax(cfg, "export-mps")
    config = _model_config(cfg)
    case = read_case(_require(cfg, "case", "case file"))
    scen, _source, _log = _load_scenarios(cfg, case)
    tariffs = case.tariffs if tax is None else case.tariffs.with_carbon_tax(tax)
    model = assemble_model(scen.grid, case.catalog, tariffs, scen, config)
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "model.mps")
    with open(path, "w") as fh:
        fh.write(write_mps(model))
    print(f"wrote {path}: {model.n_rows} rows, {model.n_cols} cols")
    return EXIT_OK


def _add_common(p):
    p.add_argument("--config", help="JSON config; flags override its keys")
    p.add_argument("--case", help="case JSON (catalog, tariffs, horizon)")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--seed", type=int, help="scenario-generation seed")
    p.add_argument("--zeta", type=float,
                   help="chance-constraint risk level")
    p.add_argument("--carbon-tax", dest="carbon_tax", type=_parse_taxes,
                   help="carbon tax level(s) in yuan/ton, comma-separated")
    p.add_argument("--mode", choices=("relaxed", "binary"),
                   help="charge/discharge exclusivity handling")
    p.add_argument("--extreme", choices=("elec", "heat"),
                   help="which extreme scenario to report in detail")
    p.add_argument("--scenarios", help="scenario profile CSV (skip generation)")
    p.add_argument("--scenario-ev", dest="scenario_ev",
                   help="scenario EV CSV")
    p.add_argument("--history-loads", dest="history_loads",
                   help="historical profile CSV")
    p.add_argument("--history-ev", dest="history_ev",
                   help="historical EV CSV")
    p.add_argument("--n", dest="n_scenarios", type=int,
                   help="number of scenarios to generate")
    p.add_argument("--rel-gap", dest="rel_gap", type=float,
                   help="branch-and-bound relative gap")
    p.add_argument("--max-nodes", dest="max_nodes", type=int,
                   help="branch-and-bound node limit")
    p.add_argument("--time-limit", dest="time_limit_s", type=float,
                   help="branch-and-bound time limit in seconds")


def _parse_taxes(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tax list: {text!r}")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hubplan",
        description="chance-constrained capacity planning for a "
                    "building-scale multi-energy hub")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    scen = sub.add_parser("scen", help="scenario utilities")
    scen_sub = scen.add_subparsers(dest="scen_command", required=True)
    gen = scen_sub.add_parser("gen", help="generate moment-matched "
                                          "scenario days from history")
    _add_common(gen)

    for name, help_text in (
            ("plan", "solve the planning problem and write reports"),
            ("sweep", "solve across carbon-tax levels"),
            ("export-mps", "write the assembled model in MPS format"),
            ("validate", "parse and validate inputs, then stop")):
        _add_common(sub.add_parser(name, help=help_text))
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "scen":
            return cmd_scen_gen(cfg)
        if args.command == "plan":
            return cmd_plan(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "export-mps":
            return cmd_export_mps(cfg)
        return cmd_validate(cfg)
    except (ParseError, InvalidParameterError, ModelBuildError,
            MpsFormatError, MomentFitError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleSolutionError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SolverError, HubplanError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
