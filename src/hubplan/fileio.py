"""Readers and writers for case files (JSON) and scenario/history tables (CSV).

One JSON document holds the equipment catalog, tariffs and planning horizon.
Scenario days live in two CSVs: an hourly profile table with columns
``scenario,hour,elec_load_kw,heat_load_kw,pv_avail_kw`` and an optional EV
table with columns ``scenario,ev_id,arrive_hour,depart_hour,initial_soc``.
Historical day tables reuse the same layouts (day index in the scenario
column, fractional EV hours allowed).

Floats are written with ``str`` (shortest round-trip form), so a
write/read cycle reproduces values exactly.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .core import (BessSpec, EquipmentCatalog, EvFleetSpec, EvRecord, FcSpec,
                   Scenario, ScenarioSet, TariffSet, TessSpec, TimeGrid,
                   validate_scenario_set)
from .errors import InvalidParameterError, ParseError

PROFILE_HEADER = ["scenario", "hour", "elec_load_kw", "heat_load_kw", "pv_avail_kw"]
EV_HEADER = ["scenario", "ev_id", "arrive_hour", "depart_hour", "initial_soc"]


@dataclass(frozen=True)
class CaseData:
    """Contents of one case file."""

    catalog: EquipmentCatalog
    tariffs: TariffSet
    hours_per_day: int
    planning_years: int
    discount_rate: float

    def time_grid(self, n_scenarios: int) -> TimeGrid:
        return TimeGrid(self.hours_per_day, n_scenarios,
                        self.planning_years, self.discount_rate)


def _get(obj, key, path, where):
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object at {where}", path=path)
    if key not in obj:
        raise ParseError(f"missing key {where}.{key}", path=path)
    return obj[key]


def _opt(obj, key, default):
    return obj.get(key, default) if isinstance(obj, dict) else default


def read_case(path) -> CaseData:
    """Parse a case JSON file into validated domain objects."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno,
                         column=exc.colno) from exc
    try:
        plan = _get(doc, "planning", path, "$")
        fcs = []
        for k, f in enumerate(_get(doc, "fuel_cells", path, "$")):
            where = f"$.fuel_cells[{k}]"
            fcs.append(FcSpec(
                fc_id=_get(f, "id", path, where),
                invest_cost=float(_get(f, "invest_cost", path, where)),
                gas_to_elec=float(_get(f, "gas_to_elec", path, where)),
                gas_to_heat=float(_get(f, "gas_to_heat", path, where)),
                max_elec=float(_get(f, "max_elec", path, where)),
                max_heat=float(_get(f, "max_heat", path, where)),
                fuel_price=float(_get(f, "fuel_price", path, where)),
                fuel_emission=float(_get(f, "fuel_emission", path, where)),
                max_units=int(_get(f, "max_units", path, where)),
            ))
        b = _get(doc, "bess", path, "$")
        bess = BessSpec(
            invest_cost=float(_get(b, "invest_cost", path, "$.bess")),
            rate_fraction=float(_get(b, "rate_fraction", path, "$.bess")),
            eta_ch=float(_get(b, "eta_ch", path, "$.bess")),
            eta_dis=float(_get(b, "eta_dis", path, "$.bess")),
            soc_min=float(_get(b, "soc_min", path, "$.bess")),
            soc_max=float(_get(b, "soc_max", path, "$.bess")),
            lifetime_cycles=float(_get(b, "lifetime_cycles", path, "$.bess")),
            max_capacity=float(_get(b, "max_capacity", path, "$.bess")),
        )
        t = _get(doc, "tess", path, "$")
        tess = TessSpec(
            capacity=float(_get(t, "capacity", path, "$.tess")),
            rate_fraction=float(_get(t, "rate_fraction", path, "$.tess")),
            eta_ch=float(_get(t, "eta_ch", path, "$.tess")),
            eta_dis=float(_get(t, "eta_dis", path, "$.tess")),
        )
        e = _get(doc, "ev_fleet", path, "$")
        fleet = EvFleetSpec(
            n_ev=int(_get(e, "n_ev", path, "$.ev_fleet")),
            capacity=float(_get(e, "capacity", path, "$.ev_fleet")),
            charger_power=float(_get(e, "charger_power", path, "$.ev_fleet")),
            discharge_rate_fraction=float(_get(e, "discharge_rate_fraction", path, "$.ev_fleet")),
            eta_ch=float(_get(e, "eta_ch", path, "$.ev_fleet")),
            eta_dis=float(_get(e, "eta_dis", path, "$.ev_fleet")),
            soc_min=float(_get(e, "soc_min", path, "$.ev_fleet")),
            soc_max=float(_get(e, "soc_max", path, "$.ev_fleet")),
            target_departure_soc=float(_opt(e, "target_departure_soc", 0.9)),
        )
        tr = _get(doc, "tariffs", path, "$")
        tariffs = TariffSet(
            elec_price=tuple(_get(tr, "elec_price", path, "$.tariffs")),
            grid_emission=tuple(_get(tr, "grid_emission", path, "$.tariffs")),
            carbon_tax=float(_get(tr, "carbon_tax", path, "$.tariffs")),
            soc_penalty=float(_get(tr, "soc_penalty", path, "$.tariffs")),
            grid_cap=float(_get(tr, "grid_cap", path, "$.tariffs")),
            pv_cap=float(_get(tr, "pv_cap", path, "$.tariffs")),
        )
        case = CaseData(
            catalog=EquipmentCatalog(fuel_cells=tuple(fcs), bess=bess,
                                     tess=tess, ev_fleet=fleet),
            tariffs=tariffs,
            hours_per_day=int(_get(plan, "hours_per_day", path, "$.planning")),
            planning_years=int(_get(plan, "planning_years", path, "$.planning")),
            discount_rate=float(_get(plan, "discount_rate", path, "$.planning")),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad value in case file: {exc}", path=path) from exc
    if len(tariffs.elec_price) != case.hours_per_day:
        raise ParseError(
            f"tariffs.elec_price has {len(tariffs.elec_price)} entries, "
            f"planning.hours_per_day is {case.hours_per_day}", path=path)
    return case


def case_to_dict(case: CaseData) -> dict:
    return {
        "planning": {
            "hours_per_day": case.hours_per_day,
            "planning_years": case.planning_years,
            "discount_rate": case.discount_rate,
        },
        "fuel_cells": [
            {"id": f.fc_id, "invest_cost": f.invest_cost,
             "gas_to_elec": f.gas_to_elec, "gas_to_heat": f.gas_to_heat,
             "max_elec": f.max_elec, "max_heat": f.max_heat,
             "fuel_price": f.fuel_price, "fuel_emission": f.fuel_emission,
             "max_units": f.max_units}
            for f in case.catalog.fuel_cells
        ],
        "bess": {k: getattr(case.catalog.bess, k) for k in
                 ("invest_cost", "rate_fraction", "eta_ch", "eta_dis",
                  "soc_min", "soc_max", "lifetime_cycles", "max_capacity")},
        "tess": {k: getattr(case.catalog.tess, k) for k in
                 ("capacity", "rate_fraction", "eta_ch", "eta_dis")},
        "ev_fleet": {k: getattr(case.catalog.ev_fleet, k) for k in
                     ("n_ev", "capacity", "charger_power", "discharge_rate_fraction",
                      "eta_ch", "eta_dis", "soc_min", "soc_max", "target_departure_soc")},
        "tariffs": {
            "elec_price": list(case.tariffs.elec_price),
            "grid_emission": list(case.tariffs.grid_emission),
            "carbon_tax": case.tariffs.carbon_tax,
            "soc_penalty": case.tariffs.soc_penalty,
            "grid_cap": case.tariffs.grid_cap,
            "pv_cap": case.tariffs.pv_cap,
        },
    }


def write_case(case: CaseData, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(case_to_dict(case), fh, indent=2)
        fh.write("\n")


def _read_rows(path, header):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise ParseError("empty file, header row required", path=path, line=1) from None
        if [h.strip() for h in got] != header:
            raise ParseError(f"header must be {','.join(header)}", path=path, line=1)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}",
                                 path=path, line=lineno)
            rows.append((lineno, row))
    return rows


def _num(tok, path, lineno, column):
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"not a number: {tok!r}", path=path, line=lineno,
                         column=column) from None


def _int(tok, path, lineno, column):
    v = _num(tok, path, lineno, column)
    if v != int(v):
        raise ParseError(f"expected an integer, got {tok!r}", path=path,
                         line=lineno, column=column)
    return int(v)


def _read_profile_table(path):
    """Return (n_days, T, elec, heat, pv) with each profile shaped (n_days, T)."""
    rows = _read_rows(path, PROFILE_HEADER)
    if not rows:
        raise ParseError("no data rows", path=path, line=2)
    recs = {}
    for lineno, row in rows:
        s = _int(row[0], path, lineno, "scenario")
        h = _int(row[1], path, lineno, "hour")
        if (s, h) in recs:
            raise ParseError(f"duplicate (scenario, hour) = ({s}, {h})",
                             path=path, line=lineno)
        recs[(s, h)] = (_num(row[2], path, lineno, "elec_load_kw"),
                        _num(row[3], path, lineno, "heat_load_kw"),
                        _num(row[4], path, lineno, "pv_avail_kw"))
    n_days = max(s for s, _ in recs) + 1
    t_day = max(h for _, h in recs) + 1
    elec = np.empty((n_days, t_day))
    heat = np.empty((n_days, t_day))
    pv = np.empty((n_days, t_day))
    for s in range(n_days):
        for h in range(t_day):
            if (s, h) not in recs:
                raise ParseError(f"missing row for scenario {s}, hour {h}", path=path)
            elec[s, h], heat[s, h], pv[s, h] = recs[(s, h)]
    return n_days, t_day, elec, heat, pv


def _read_ev_table(path, n_days, integer_hours):
    """Return an (n_days, n_ev, 3) array of (arrive, depart, initial_soc)."""
    rows = _read_rows(path, EV_HEADER)
    recs = {}
    for lineno, row in rows:
        s = _int(row[0], path, lineno, "scenario")
        j = _int(row[1], path, lineno, "ev_id")
        if (s, j) in recs:
            raise ParseError(f"duplicate (scenario, ev_id) = ({s}, {j})",
                             path=path, line=lineno)
        if integer_hours:
            a = _int(row[2], path, lineno, "arrive_hour")
            d = _int(row[3], path, lineno, "depart_hour")
        else:
            a = _num(row[2], path, lineno, "arrive_hour")
            d = _num(row[3], path, lineno, "depart_hour")
        recs[(s, j)] = (a, d, _num(row[4], path, lineno, "initial_soc"))
    if not recs:
        return np.zeros((n_days, 0, 3))
    n_ev = max(j for _, j in recs) + 1
    out = np.empty((n_days, n_ev, 3))
    for s in range(n_days):
        for j in range(n_ev):
            if (s, j) not in recs:
                raise ParseError(f"missing row for scenario {s}, ev_id {j}", path=path)
            out[s, j] = recs[(s, j)]
    return out


def read_scenario_set(loads_path, case: CaseData, ev_path=None) -> ScenarioSet:
    """Read scenario CSVs and assemble a validated ScenarioSet.

    Raises ParseError naming the first few violations when the set breaks
    an invariant of validate_scenario_set against the case (negative
    loads, PV above pv_cap, EV visits outside the day or SOC range).
    """
    n, t_day, elec, heat, pv = _read_profile_table(loads_path)
    if t_day != case.hours_per_day:
        raise ParseError(f"profiles span {t_day} hours, case expects "
                         f"{case.hours_per_day}", path=loads_path)
    n_ev = case.catalog.ev_fleet.n_ev
    ev = None
    if ev_path is not None:
        ev = _read_ev_table(ev_path, n, integer_hours=True)
    elif n_ev > 0:
        raise ParseError(f"fleet has {n_ev} vehicles but no EV table was given",
                         path=loads_path)
    scenarios = []
    for s in range(n):
        recs = ()
        if ev is not None:
            if ev.shape[1] != n_ev:
                raise ParseError(f"EV table has {ev.shape[1]} vehicles, fleet has {n_ev}",
                                 path=ev_path)
            try:
                recs = tuple(EvRecord(int(ev[s, j, 0]), int(ev[s, j, 1]), ev[s, j, 2])
                             for j in range(n_ev))
            except InvalidParameterError as exc:
                raise ParseError(f"scenario {s}: {exc}", path=ev_path) from exc
        scenarios.append(Scenario(tuple(elec[s]), tuple(heat[s]), tuple(pv[s]), recs))
    scen_set = ScenarioSet(grid=case.time_grid(n), scenarios=tuple(scenarios))
    bad = validate_scenario_set(scen_set, case.catalog, case.tariffs)
    if bad:
        more = f" (and {len(bad) - 3} more)" if len(bad) > 3 else ""
        raise ParseError(f"{len(bad)} invalid scenario values: "
                         + "; ".join(str(v) for v in bad[:3]) + more,
                         path=ev_path if bad[0].ev is not None else loads_path)
    return scen_set


def write_scenario_set(scen_set: ScenarioSet, loads_path, ev_path=None):
    """Write a ScenarioSet back to the CSV pair (deterministic byte output)."""
    with open(loads_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(PROFILE_HEADER)
        for s, sc in enumerate(scen_set.scenarios):
            for h in range(scen_set.grid.hours_per_day):
                w.writerow([s, h, sc.elec_load[h], sc.heat_load[h], sc.pv_avail[h]])
    if ev_path is not None:
        with open(ev_path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(EV_HEADER)
            for s, sc in enumerate(scen_set.scenarios):
                for j, r in enumerate(sc.ev_records):
                    w.writerow([s, j, r.arrive_hour, r.depart_hour, r.initial_soc])


def read_history(loads_path, ev_path=None):
    """Read historical day tables into plain arrays.

    Returns (elec, heat, pv, ev) where the profiles are (n_days, T) and ev is
    (n_days, n_ev, 3) columns (arrive, depart, initial_soc) with fractional
    hours allowed, or None when no EV table is given.
    """
    n, _t, elec, heat, pv = _read_profile_table(loads_path)
    ev = None
    if ev_path is not None:
        ev = _read_ev_table(ev_path, n, integer_hours=False)
    return elec, heat, pv, ev
