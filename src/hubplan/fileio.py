"""Readers and writers for case files (JSON) and scenario/history tables
(CSV), and the writers of every output file: report tables, audit JSON and
model text.

One JSON document holds the equipment catalog, tariffs and planning horizon.
Scenario days live in two CSVs: an hourly profile table with columns
``scenario,hour,elec_load_kw,heat_load_kw,pv_avail_kw`` and an optional EV
table with columns ``scenario,ev_id,arrive_hour,depart_hour,initial_soc``.
Historical day tables reuse the same layouts (day index in the scenario
column, fractional EV hours allowed). Every cell must be a finite number,
and each (scenario, hour) or (scenario, ev_id) key a pair of non-negative
integers given once; a ParseError names the line and column of the first
fault.

Every file is written as UTF-8 through one opener that first creates its
directory; a file that cannot be written is a ParseError naming it. Table
cells are converted by csv.writer: None becomes an empty cell and a float,
numpy's included, is written with ``str`` (shortest round-trip form), so a
write/read cycle reproduces values exactly.
"""

import csv
import io
import json
import os
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .core import (BessSpec, EquipmentCatalog, EvFleetSpec, FcSpec,
                   ScenarioSet, TariffSet, TessSpec, TimeGrid,
                   validate_scenario_set)
from .errors import InvalidParameterError, ParseError

# loadtxt strips these information separators as space, float() does not
_SEPARATORS = "\x1c\x1d\x1e\x1f"

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


def _no_other_keys(obj, keys, path, where):
    for key in obj:
        if key not in keys:
            raise ParseError(f"unknown key {where}.{key}", path=path)


def _read_fields(obj, spec_fields, path, where):
    """Keyword arguments for spec_fields read from the JSON object obj.

    Each value is converted by its field's type (a str is kept as read;
    an int or float field refuses a JSON true or false, and so does a
    tuple field among its entries; an int field refuses a fractional
    number, a float field a non-finite one, and both an integer too large
    for a float); an absent key takes the field's default where it has
    one. A key that names no field is refused.
    """
    kwargs = {}
    for f in spec_fields:
        key = _JSON_KEY.get(f.name, f.name)
        if isinstance(obj, dict) and key not in obj and f.default is not MISSING:
            val = f.default
        else:
            val = _get(obj, key, path, where)
        if f.type in (int, float) and isinstance(val, bool):
            raise ParseError(f"expected a number at {where}.{key}, "
                             f"got {val!r}", path=path)
        if f.type is tuple and isinstance(val, list):
            for i, v in enumerate(val):
                if isinstance(v, bool):
                    raise ParseError(f"expected a number at {where}.{key}"
                                     f"[{i}], got {v!r}", path=path)
        if f.type is int and isinstance(val, float) and not val.is_integer():
            raise ParseError(f"expected an integer at {where}.{key}, "
                             f"got {val!r}", path=path)
        if f.type is not str and isinstance(val, int) \
                and abs(val) > sys.float_info.max:
            raise ParseError(f"expected a finite number at {where}.{key}, "
                             "got an integer too large for a float", path=path)
        val = val if f.type is str else f.type(val)
        if f.type is float and not np.isfinite(val):
            raise ParseError(f"expected a finite number at {where}.{key}, "
                             f"got {val!r}", path=path)
        kwargs[f.name] = val
    _no_other_keys(obj, [_JSON_KEY.get(f.name, f.name) for f in spec_fields],
                   path, where)
    return kwargs


def _build(cls, path, where, *args, **kwargs):
    """cls(*args, **kwargs), a value it refuses a ParseError at where."""
    try:
        return cls(*args, **kwargs)
    except InvalidParameterError as exc:
        raise ParseError(f"{where}: {exc}", path=path) from exc


def _read_spec(cls, obj, path, where):
    """The spec cls read from the JSON object obj at where."""
    return _build(cls, path, where,
                  **_read_fields(obj, fields(cls), path, where))


def _write_fields(spec, spec_fields):
    return {_JSON_KEY.get(f.name, f.name):
            list(getattr(spec, f.name)) if f.type is tuple
            else getattr(spec, f.name) for f in spec_fields}


def read_case(path) -> CaseData:
    """Parse a case JSON file into validated domain objects.

    The file's sections are the fields of the spec dataclasses: planning
    (CaseData's own fields), fuel_cells (a list of FcSpec, fc_id under the
    key "id"), bess, tess, ev_fleet and tariffs. The planning section must
    make a TimeGrid: a planning period that discounts past what a float can
    hold is refused here, before any history is read.
    """
    doc = read_json(path)
    try:
        plan = _get(doc, "planning", path, "$")
        fcs = tuple(_read_spec(FcSpec, f, path, f"$.fuel_cells[{k}]")
                    for k, f in enumerate(_get(doc, "fuel_cells", path, "$")))
        bess, tess, fleet, tariffs = (
            _read_spec(cls, _get(doc, key, path, "$"), path, f"$.{key}")
            for key, cls in _SECTIONS)
        catalog = _build(EquipmentCatalog, path, "$.fuel_cells", fcs, bess,
                         tess, fleet)
        case = CaseData(catalog=catalog, tariffs=tariffs,
                        **_read_fields(plan, _PLANNING, path, "$.planning"))
        _no_other_keys(doc, ["planning", "fuel_cells",
                             *(key for key, _cls in _SECTIONS)], path, "$")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad value in case file: {exc}", path=path) from exc
    _build(case.time_grid, path, "$.planning", 1)
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


def _open_to_write(path):
    """path opened to write UTF-8 text as given, its directory made first;
    a ParseError names the file when either fails."""
    try:
        os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot write: {exc.strerror}", path=path) from exc


def write_text(path, text):
    with _open_to_write(path) as fh:
        fh.write(text)


def _write_json(path, doc, sort_keys):
    with _open_to_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def write_case(case: CaseData, path):
    """Write case as read_case reads it, keys in schema order."""
    _write_json(path, case_to_dict(case), sort_keys=False)


def write_audit_json(path, payload):
    _write_json(path, payload, sort_keys=True)


def write_table_csv(path, header, rows):
    """Write (header, rows) as CSV; None becomes an empty cell and floats
    keep full precision."""
    with _open_to_write(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def read_text(path, newline=None):
    """The text of the file at path, read as UTF-8 with open's newline.

    A file that cannot be read, or whose bytes are not UTF-8, is a
    ParseError naming it.
    """
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read: {exc.strerror}", path=path) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x}"
                         f" ({exc.reason})", path=path) from exc


def read_json(path):
    """The JSON document in the file at path, read by read_text; invalid
    JSON is a ParseError naming its line and column."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path,
                         line=exc.lineno, column=exc.colno) from exc


def _read_records(text, path, header):
    """The records after a table's header row, as read by csv."""
    records = list(csv.reader(io.StringIO(text, newline="")))
    if not records:
        raise ParseError("empty file, header row required", path=path, line=1)
    if [h.strip() for h in records[0]] != header:
        raise ParseError(f"header must be {','.join(header)}", path=path, line=1)
    return records[1:]


def _load_plain(text, header):
    """Float array of a plain table, read by numpy's C parser, or None.

    A table is plain when its first line is exactly the header and every
    later line holds one number per header field, unquoted, so that record
    i sits on file line i + 2. loadtxt refuses quotes, blank cells and
    numbers float() reads only in Python (1_000); it skips empty lines,
    which csv counts, so a row count short of the line count means None
    too. On the tables it takes, and that hold no _SEPARATORS, it gives
    each cell float()'s value.
    """
    first, _nl, body = text.partition("\n")
    if (first.rstrip("\r") != ",".join(header) or not body.strip()
            or any(c in body for c in _SEPARATORS)):
        return None
    try:
        vals = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                          ndmin=2)
    except ValueError:
        return None
    n_lines = body.count("\n") + (not body.endswith("\n"))
    return vals if vals.shape == (n_lines, len(header)) else None


def _parse_records(records, header, path):
    """(rows, lines, vals, bad) of a table's records, read by csv.

    Blank records are skipped; a record with the wrong number of fields is
    a ParseError. vals holds each kept cell's float, NaN where bad marks
    that float() refused it.
    """
    rows, lines = [], []
    for lineno, row in enumerate(records, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}",
                             path=path, line=lineno)
        rows.append(row)
        lines.append(lineno)
    shape = (len(rows), len(header))
    vals = np.full(shape, np.nan)
    bad = np.zeros(shape, dtype=bool)
    for i, row in enumerate(rows):
        for j, tok in enumerate(row):
            try:
                vals[i, j] = float(tok)
            except ValueError:
                bad[i, j] = True
    return rows, lines, vals, bad


# per-cell faults, in the order a cell is checked
_CELL_FAULTS = (
    "not a number: {!r}",
    "not a finite number: {!r}",
    "expected an integer, got {!r}",
    "expected a non-negative integer, got {!r}",
)


def _faults(vals, bad, int_cols):
    """(fault, repeat): each cell's 1-based _CELL_FAULTS code, 0 when it is
    sound, and the records that repeat an earlier record's valid key."""
    shape = vals.shape
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
    return fault, repeat


def _read_table(path, header, int_cols):
    """Read a table's data rows into a float array, one row per record,
    and the file line of each record.

    Every cell must be a finite number; the columns int_cols hold integers,
    and the first two columns, the record's key, non-negative ones. The
    key must not repeat. A ParseError names the first fault in file order
    (within a row: the key cells, then a repeated key, then the rest),
    with its line and column.
    """
    text = read_text(path, newline="")
    vals = _load_plain(text, header)
    if vals is not None:
        fault, repeat = _faults(vals, np.zeros(vals.shape, dtype=bool),
                                int_cols)
        if not (fault.any() or repeat.any()):
            return vals, range(2, len(vals) + 2)
    # csv reads what loadtxt refused (quotes, blank records) and names the
    # first fault of a faulty table by its text, line and column
    rows, lines, vals, bad = _parse_records(
        _read_records(text, path, header), header, path)
    fault, repeat = _faults(vals, bad, int_cols)
    faulty = np.flatnonzero(fault.any(axis=1) | repeat)
    if faulty.size:
        i = int(faulty[0])
        lineno = lines[i]
        # only a record with valid key cells can repeat a key
        if repeat[i]:
            raise ParseError(f"duplicate ({header[0]}, {header[1]}) = "
                             f"({int(vals[i, 0])}, {int(vals[i, 1])})",
                             path=path, line=lineno)
        j = int(np.flatnonzero(fault[i])[0])
        raise ParseError(_CELL_FAULTS[fault[i, j] - 1].format(rows[i][j]),
                         path=path, line=lineno, column=header[j])
    return vals, lines


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
    ev = np.zeros((n, 0, 3))
    if ev_path is not None:
        ev = _read_ev_table(ev_path, n, integer_hours=True)
        if ev.shape[1] != n_ev:
            raise ParseError(f"EV table has {ev.shape[1]} vehicles, fleet has {n_ev}",
                             path=ev_path)
    elif n_ev > 0:
        raise ParseError(f"fleet has {n_ev} vehicles but no EV table was given",
                         path=loads_path)
    try:
        scen_set = ScenarioSet.from_days(case.time_grid(n), elec, heat, pv, ev)
    except InvalidParameterError as exc:
        raise ParseError(str(exc), path=ev_path) from exc
    bad = validate_scenario_set(scen_set, case.catalog, case.tariffs)
    if bad:
        more = f" (and {len(bad) - 3} more)" if len(bad) > 3 else ""
        raise ParseError(f"{len(bad)} invalid scenario values: "
                         + "; ".join(str(v) for v in bad[:3]) + more,
                         path=ev_path if bad[0].ev is not None else loads_path)
    return scen_set


def write_scenario_set(scen_set: ScenarioSet, loads_path, ev_path=None):
    """Write a ScenarioSet back to the CSV pair (deterministic byte output)."""
    scens = list(enumerate(scen_set.scenarios))
    write_table_csv(loads_path, PROFILE_HEADER, (
        [s, h, *vals] for s, sc in scens for h, vals in enumerate(
            zip(sc.elec_load, sc.heat_load, sc.pv_avail))))
    if ev_path is not None:
        write_table_csv(ev_path, EV_HEADER, (
            [s, j, r.arrive_hour, r.depart_hour, r.initial_soc]
            for s, sc in scens for j, r in enumerate(sc.ev_records)))


def read_history(loads_path, ev_path=None):
    """Read historical day tables into plain arrays.

    Returns (elec, heat, pv, ev) where the profiles are (n_days, T) and ev is
    (n_days, n_ev, 3) columns (arrive, depart, initial_soc) with fractional
    hours allowed; with no EV table given it is (n_days, 0, 3).
    """
    n, _t, elec, heat, pv = _read_profile_table(loads_path)
    ev = np.zeros((n, 0, 3))
    if ev_path is not None:
        ev = _read_ev_table(ev_path, n, integer_hours=False)
    return elec, heat, pv, ev
