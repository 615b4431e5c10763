"""Readers and writers for case files (JSON) and scenario/history tables (CSV).

One JSON document holds the equipment catalog, tariffs and planning horizon.
Scenario days live in two CSVs: an hourly profile table with columns
``scenario,hour,elec_load_kw,heat_load_kw,pv_avail_kw`` and an optional EV
table with columns ``scenario,ev_id,arrive_hour,depart_hour,initial_soc``.
Historical day tables reuse the same layouts (day index in the scenario
column, fractional EV hours allowed). Every cell must be a finite number,
and each (scenario, hour) or (scenario, ev_id) key a pair of non-negative
integers given once; a ParseError names the line and column of the first
fault.

Floats are written with ``str`` (shortest round-trip form), so a
write/read cycle reproduces values exactly.
"""

import csv
import json
from dataclasses import MISSING, dataclass, fields

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


# JSON key of a spec field where it differs from the field's name
_JSON_KEY = {"fc_id": "id"}
# the sections after "planning" and "fuel_cells", in file order
_SECTIONS = (("bess", BessSpec), ("tess", TessSpec), ("ev_fleet", EvFleetSpec),
             ("tariffs", TariffSet))
# CaseData's own fields, the "planning" section
_PLANNING = fields(CaseData)[2:]


def _read_fields(obj, spec_fields, path, where):
    """Keyword arguments for spec_fields read from the JSON object obj.

    Each value is converted by its field's type (a str is kept as read);
    an absent key takes the field's default where it has one.
    """
    kwargs = {}
    for f in spec_fields:
        key = _JSON_KEY.get(f.name, f.name)
        if isinstance(obj, dict) and key not in obj and f.default is not MISSING:
            val = f.default
        else:
            val = _get(obj, key, path, where)
        kwargs[f.name] = val if f.type is str else f.type(val)
    return kwargs


def _write_fields(spec, spec_fields):
    return {_JSON_KEY.get(f.name, f.name):
            list(getattr(spec, f.name)) if f.type is tuple
            else getattr(spec, f.name) for f in spec_fields}


def read_case(path) -> CaseData:
    """Parse a case JSON file into validated domain objects.

    The file's sections are the fields of the spec dataclasses: planning
    (CaseData's own fields), fuel_cells (a list of FcSpec, fc_id under the
    key "id"), bess, tess, ev_fleet and tariffs.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno,
                         column=exc.colno) from exc
    try:
        plan = _get(doc, "planning", path, "$")
        fcs = tuple(
            FcSpec(**_read_fields(f, fields(FcSpec), path, f"$.fuel_cells[{k}]"))
            for k, f in enumerate(_get(doc, "fuel_cells", path, "$")))
        bess, tess, fleet, tariffs = (
            cls(**_read_fields(_get(doc, key, path, "$"), fields(cls), path,
                               f"$.{key}"))
            for key, cls in _SECTIONS)
        case = CaseData(catalog=EquipmentCatalog(fcs, bess, tess, fleet),
                        tariffs=tariffs,
                        **_read_fields(plan, _PLANNING, path, "$.planning"))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad value in case file: {exc}", path=path) from exc
    if len(tariffs.elec_price) != case.hours_per_day:
        raise ParseError(
            f"tariffs.elec_price has {len(tariffs.elec_price)} entries, "
            f"planning.hours_per_day is {case.hours_per_day}", path=path)
    return case


def case_to_dict(case: CaseData) -> dict:
    return {
        "planning": _write_fields(case, _PLANNING),
        "fuel_cells": [_write_fields(f, fields(FcSpec))
                       for f in case.catalog.fuel_cells],
        **{key: _write_fields(getattr(case if key == "tariffs" else case.catalog,
                                      key), fields(cls))
           for key, cls in _SECTIONS},
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
            if not "".join(row).strip():
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}",
                                 path=path, line=lineno)
            rows.append((lineno, row))
    return rows


# per-cell faults, in the order a cell is checked
_CELL_FAULTS = (
    "not a number: {!r}",
    "not a finite number: {!r}",
    "expected an integer, got {!r}",
    "expected a non-negative integer, got {!r}",
)


def _read_table(path, header, int_cols):
    """Read a table's data rows into a float array, one row per record,
    and the file line of each record.

    Every cell must be a finite number; the columns int_cols hold integers,
    and the first two columns, the record's key, non-negative ones. The
    key must not repeat. A ParseError names the first fault in file order
    (within a row: the key cells, then a repeated key, then the rest),
    with its line and column.
    """
    rows = _read_rows(path, header)
    cells = [row for _, row in rows]
    shape = (len(cells), len(header))
    bad = np.zeros(shape, dtype=bool)
    try:
        vals = np.array(cells, dtype=float).reshape(shape)
    except ValueError:
        # name the bad cells; only a faulty table takes this path
        vals = np.full(shape, np.nan)
        for i, row in enumerate(cells):
            for j, tok in enumerate(row):
                try:
                    vals[i, j] = float(tok)
                except ValueError:
                    bad[i, j] = True
    is_int = np.zeros(shape, dtype=bool)
    is_int[:, int_cols] = True
    finite = np.isfinite(vals)
    fault = np.select(
        [bad, ~finite, is_int & (vals != np.floor(vals)),
         (np.arange(shape[1]) < 2) & (vals < 0)],
        [1, 2, 3, 4], 0)
    # a key repeats when an earlier record with a valid key has it too; the
    # sort is stable, so each key's first record in the file comes first
    keyed = np.flatnonzero(~fault[:, :2].any(axis=1))
    order = keyed[np.lexsort((vals[keyed, 1], vals[keyed, 0]))]
    keys = vals[order, :2]
    repeat = np.zeros(shape[0], dtype=bool)
    repeat[order[1:][(keys[1:] == keys[:-1]).all(axis=1)]] = True
    faulty = np.flatnonzero(fault.any(axis=1) | repeat)
    if faulty.size:
        i = int(faulty[0])
        lineno = rows[i][0]
        # only a record with valid key cells can repeat a key
        if repeat[i]:
            raise ParseError(f"duplicate ({header[0]}, {header[1]}) = "
                             f"({int(vals[i, 0])}, {int(vals[i, 1])})",
                             path=path, line=lineno)
        j = int(np.flatnonzero(fault[i])[0])
        raise ParseError(_CELL_FAULTS[fault[i, j] - 1].format(cells[i][j]),
                         path=path, line=lineno, column=header[j])
    return vals, [lineno for lineno, _ in rows]


def _by_key(vals, path, inner, n_outer=None):
    """Arrange records keyed (scenario, inner id) as an (n_outer, n_inner,
    n_fields) array of their remaining fields.

    n_inner is one past the largest inner id; n_outer, when given, must
    exceed every scenario, and is one past the largest one otherwise.
    Every pair below those counts must be present.
    """
    n_inner = vals[:, 1].max() + 1.0
    if n_outer is None:
        n_outer = int(vals[:, 0].max()) + 1
    vals = vals[np.lexsort((vals[:, 1], vals[:, 0]))]
    # keys are unique, so in key order the first record off the dense
    # sequence (0, 0), (0, 1), ... marks the first missing pair
    seq = np.arange(vals.shape[0])
    off = np.flatnonzero((vals[:, 0] != seq // n_inner)
                         | (vals[:, 1] != seq % n_inner))
    first = off[0] if off.size else vals.shape[0]
    if first < n_outer * n_inner:
        raise ParseError(f"missing row for scenario {int(first // n_inner)}, "
                         f"{inner} {int(first % n_inner)}", path=path)
    return vals[:, 2:].reshape(n_outer, int(n_inner), -1)


def _read_profile_table(path):
    """Return (n_days, T, elec, heat, pv) with each profile shaped (n_days, T)."""
    vals, _lines = _read_table(path, PROFILE_HEADER, [0, 1])
    if vals.shape[0] == 0:
        raise ParseError("no data rows", path=path, line=2)
    table = _by_key(vals, path, "hour")
    elec, heat, pv = table.transpose(2, 0, 1).copy()
    return table.shape[0], table.shape[1], elec, heat, pv


def _read_ev_table(path, n_days, integer_hours):
    """Return an (n_days, n_ev, 3) array of (arrive, depart, initial_soc).

    A record of a scenario past the loads table's last day is a ParseError
    naming the first such line.
    """
    vals, lines = _read_table(path, EV_HEADER, [0, 1, 2, 3] if integer_hours
                              else [0, 1])
    if vals.shape[0] == 0:
        return np.zeros((n_days, 0, 3))
    past = np.flatnonzero(vals[:, 0] >= n_days)
    if past.size:
        i = int(past[0])
        raise ParseError(f"scenario {int(vals[i, 0])} is past the last day "
                         f"of the loads table ({n_days} days)", path=path,
                         line=lines[i], column=EV_HEADER[0])
    return _by_key(vals, path, "ev_id", n_days).copy()


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
