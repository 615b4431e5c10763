"""File round-trips and parse diagnostics for the case/scenario formats."""
import csv
import os

import numpy as np
import pytest

from hubplan.errors import ParseError
from hubplan.fileio import (CaseData, case_to_dict, read_case, read_history,
                            read_scenario_set, write_case, write_scenario_set,
                            write_table_csv)


@pytest.fixture
def tiny_case_file(tiny, tmp_path):
    case = CaseData(catalog=tiny.catalog, tariffs=tiny.tariffs,
                    hours_per_day=4, planning_years=10, discount_rate=0.06)
    path = tmp_path / "case.json"
    write_case(case, str(path))
    return case, str(path)


def test_case_round_trip(tiny_case_file):
    case, path = tiny_case_file
    back = read_case(path)
    assert back.catalog == case.catalog
    assert back.tariffs == case.tariffs
    assert back.hours_per_day == 4
    assert back.time_grid(2) == case.time_grid(2)


def test_case_write_deterministic(tiny_case_file, tmp_path):
    case, path = tiny_case_file
    other = tmp_path / "case2.json"
    write_case(case, str(other))
    assert open(path, "rb").read() == open(other, "rb").read()
    assert open(path).read().endswith("\n")


def test_case_to_dict_keys(tiny_case_file):
    d = case_to_dict(tiny_case_file[0])
    assert set(d) == {"planning", "fuel_cells", "bess", "tess", "ev_fleet",
                      "tariffs"}
    assert d["planning"]["hours_per_day"] == 4
    assert [fc["id"] for fc in d["fuel_cells"]] == ["PEM_gas"]


def test_case_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        read_case(str(p))


def test_case_missing_key(tiny_case_file, tmp_path):
    import json
    d = case_to_dict(tiny_case_file[0])
    del d["tariffs"]
    p = tmp_path / "missing.json"
    p.write_text(json.dumps(d))
    with pytest.raises(ParseError) as ei:
        read_case(str(p))
    assert "tariffs" in str(ei.value)


def test_case_tariff_length_mismatch(tiny_case_file, tmp_path):
    import json
    d = case_to_dict(tiny_case_file[0])
    d["planning"]["hours_per_day"] = 3  # elec_price still has 4 entries
    p = tmp_path / "mismatch.json"
    p.write_text(json.dumps(d))
    with pytest.raises(ParseError):
        read_case(str(p))


def test_scenario_round_trip(tiny, tiny_case_file, tmp_path):
    case, _ = tiny_case_file
    loads = tmp_path / "scen.csv"
    evs = tmp_path / "scen_ev.csv"
    write_scenario_set(tiny.scen, str(loads), str(evs))
    back = read_scenario_set(str(loads), case, str(evs))
    assert back.grid.hours_per_day == 4 and back.grid.n_scenarios == 2
    for a, b in zip(back.scenarios, tiny.scen.scenarios):
        assert a.elec_load == b.elec_load
        assert a.heat_load == b.heat_load
        assert a.pv_avail == b.pv_avail
        assert a.ev_records == b.ev_records


def test_scenario_write_deterministic(tiny, tmp_path):
    a1, a2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    e1, e2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    write_scenario_set(tiny.scen, str(a1), str(e1))
    write_scenario_set(tiny.scen, str(a2), str(e2))
    assert a1.read_bytes() == a2.read_bytes()
    assert e1.read_bytes() == e2.read_bytes()


def test_table_cells_byte_for_byte(tmp_path):
    # csv converts each cell: None is empty, a float (numpy's too) its
    # shortest round-trip text; the missing directory is created
    path = tmp_path / "new" / "t.csv"
    write_table_csv(str(path), ["a", "b", "c", "d", "e", "f"],
                    [[0, 1.5, None, "optimal", 0.1 + 0.2,
                      np.float64(0.1) + 0.2]])
    assert path.read_bytes() == (b"a,b,c,d,e,f\n"
                                 b"0,1.5,,optimal,0.30000000000000004,"
                                 b"0.30000000000000004\n")


def test_scenario_bad_float(tiny_case_file, tmp_path):
    case, _ = tiny_case_file
    p = tmp_path / "bad.csv"
    p.write_text("scenario,hour,elec_load_kw,heat_load_kw,pv_avail_kw\n"
                 "0,0,oops,1.0,0.0\n")
    with pytest.raises(ParseError) as ei:
        read_scenario_set(str(p), case)
    err = ei.value
    assert err.line == 2 and "oops" in str(err)


def test_scenario_missing_hour(tiny_case_file, tmp_path):
    case, _ = tiny_case_file
    rows = ["scenario,hour,elec_load_kw,heat_load_kw,pv_avail_kw"]
    rows += [f"0,{h},1.0,1.0,0.0" for h in range(3)]  # hour 3 missing
    p = tmp_path / "short.csv"
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError):
        read_scenario_set(str(p), case)


def _history(tmp_path, rows):
    p = tmp_path / "hist.csv"
    p.write_text("scenario,hour,elec_load_kw,heat_load_kw,pv_avail_kw\n"
                 + "".join(r + "\n" for r in rows))
    return str(p)


_DAY = [f"{s},{h},{s + 1}.5,2.0,0.{h}" for s in range(2) for h in range(3)]


@pytest.mark.parametrize("rows, line, column, message", [
    # the first fault in file order wins: a repeated key in line 5 over a
    # bad number in line 6, and a bad number in line 4 over a repeat after
    (_DAY[:3] + ["0,1,3,3,3", "1,0,bad,1,1"] + _DAY[4:], 5, None,
     "duplicate (scenario, hour) = (0, 1)"),
    (_DAY[:2] + ["0,2,bad,1,1", "0,1,3,3,3"] + _DAY[3:], 4, "elec_load_kw",
     "not a number: 'bad'"),
    # within a row the key cells come first, then a repeated key
    (_DAY[:1] + ["0,1.5,zz,1,1"] + _DAY[2:], 3, "hour",
     "expected an integer, got '1.5'"),
    (_DAY[:3] + ["0,1,zz,3,3"] + _DAY[3:], 5, None,
     "duplicate (scenario, hour) = (0, 1)"),
    (_DAY + ["-1,0,1,1,1"], 8, "scenario",
     "expected a non-negative integer, got '-1'"),
    (["0,0,1,inf,1"] + _DAY[1:], 2, "heat_load_kw",
     "not a finite number: 'inf'"),
    (_DAY[:4] + _DAY[5:], None, None, "missing row for scenario 1, hour 1"),
])
def test_history_faults(tmp_path, rows, line, column, message):
    with pytest.raises(ParseError) as ei:
        read_history(_history(tmp_path, rows))
    assert (ei.value.line, ei.value.column) == (line, column)
    assert str(ei.value).endswith(message)


@pytest.mark.parametrize("edited, plain", [
    # cells that numpy's loadtxt and csv plus float() could read apart:
    # each table reads as its plain twin does
    (['0,0,"1.5",2.0,0.0'] + _DAY[1:], _DAY),
    (["0,0,1_000,2.0,0.0"] + _DAY[1:], ["0,0,1000,2.0,0.0"] + _DAY[1:]),
    (_DAY[:3] + [" \t "] + _DAY[3:], _DAY),
    (_DAY[:3] + [""] + _DAY[3:], _DAY),
    (["0,0, 1.5 ,\t2.0,0.0\r"] + _DAY[1:], _DAY),
])
def test_history_reads_as_csv_does(tmp_path, edited, plain):
    want = read_history(_history(tmp_path, plain))
    got = read_history(_history(tmp_path, edited))
    for a, b in zip(got[:3], want[:3]):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rows, line, column, message", [
    (["0,0,1.5#,2.0,0.0"] + _DAY[1:], 2, "elec_load_kw",
     "not a number: '1.5#'"),
    (["#0,0,1.5,2.0,0.0"] + _DAY[1:], 2, "scenario", "not a number: '#0'"),
    # float() takes no information separator as space; loadtxt does
    (_DAY[:2] + ["0,2,\x1c1,1,1"] + _DAY[3:], 4, "elec_load_kw",
     "not a number: '\\x1c1'"),
    # a blank line before a faulty row still counts
    (_DAY[:2] + [""] + ["0,2,bad,1,1"] + _DAY[3:], 5, "elec_load_kw",
     "not a number: 'bad'"),
    (_DAY[:2] + [""] + ["0,1,3,3,3"] + _DAY[2:], 5, None,
     "duplicate (scenario, hour) = (0, 1)"),
])
def test_history_cell_faults_keep_their_place(tmp_path, rows, line, column,
                                              message):
    with pytest.raises(ParseError) as ei:
        read_history(_history(tmp_path, rows))
    assert (ei.value.line, ei.value.column) == (line, column)
    assert str(ei.value).endswith(message)


def test_history_rows_in_any_order(tmp_path):
    # records are placed by key, not by file position
    fwd = read_history(_history(tmp_path, _DAY))
    back = read_history(_history(tmp_path, _DAY[::-1]))
    for a, b in zip(fwd[:3], back[:3]):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(fwd[0], [[1.5] * 3, [2.5] * 3])
    np.testing.assert_array_equal(fwd[2], [[0.0, 0.1, 0.2]] * 2)


def test_scenario_wrong_header(tiny_case_file, tmp_path):
    case, _ = tiny_case_file
    p = tmp_path / "hdr.csv"
    p.write_text("scenario,hour,elec,heat,pv\n0,0,1,1,0\n")
    with pytest.raises(ParseError):
        read_scenario_set(str(p), case)


def test_ev_fractional_hour_rejected(tiny, tiny_case_file, tmp_path):
    case, _ = tiny_case_file
    loads = tmp_path / "scen.csv"
    write_scenario_set(tiny.scen, str(loads))
    p = tmp_path / "ev.csv"
    p.write_text("scenario,ev_id,arrive_hour,depart_hour,initial_soc\n"
                 "0,0,0.5,3,0.4\n1,0,1,4,0.5\n")
    with pytest.raises(ParseError):
        read_scenario_set(str(loads), case, str(p))


def test_ev_count_mismatch(tiny, tiny_case_file, tmp_path):
    case, _ = tiny_case_file
    loads = tmp_path / "scen.csv"
    write_scenario_set(tiny.scen, str(loads))
    p = tmp_path / "ev.csv"
    p.write_text("scenario,ev_id,arrive_hour,depart_hour,initial_soc\n"
                 "0,0,0,3,0.4\n0,1,0,3,0.4\n1,0,1,4,0.5\n1,1,1,4,0.5\n")
    with pytest.raises(ParseError):
        read_scenario_set(str(loads), case, str(p))  # fleet has one vehicle


def test_ev_visit_past_day_end_names_ev_table(tiny, tiny_case_file, tmp_path):
    case, _ = tiny_case_file
    loads = tmp_path / "scen.csv"
    write_scenario_set(tiny.scen, str(loads))
    p = tmp_path / "ev.csv"
    p.write_text("scenario,ev_id,arrive_hour,depart_hour,initial_soc\n"
                 "0,0,0,3,0.4\n1,0,1,9,0.5\n")  # T = 4
    with pytest.raises(ParseError) as ei:
        read_scenario_set(str(loads), case, str(p))
    assert ei.value.path == str(p)
    assert "scenario 1, ev 0: depart_hour" in str(ei.value)


def _not_utf8(src, path):
    """Copy file src to path with a 0xff byte, never UTF-8, at the start
    of its second line; return the new path as a string."""
    with open(src, "rb") as fh:
        path.write_bytes(fh.read().replace(b"\n", b"\n\xff", 1))
    return str(path)


def _assert_not_utf8(exc, path):
    assert isinstance(exc, ParseError) and exc.path == path
    assert str(exc) == (f"{path}: not UTF-8 text: byte 0xff "
                        "(invalid start byte)")


def test_case_not_utf8(tiny_case_file, tmp_path):
    path = _not_utf8(tiny_case_file[1], tmp_path / "bad.json")
    with pytest.raises(ParseError) as ei:
        read_case(path)
    _assert_not_utf8(ei.value, path)


def test_history_not_utf8(tmp_path):
    # the plain-table reader meets the byte first
    path = _not_utf8(_history(tmp_path, _DAY), tmp_path / "bad.csv")
    with pytest.raises(ParseError) as ei:
        read_history(path)
    _assert_not_utf8(ei.value, path)


def test_records_not_utf8(tmp_path):
    # a table loadtxt refuses (a quoted cell) and csv reads: the file is
    # read once, and its bytes are refused before either parser sees them
    path = _not_utf8(_history(tmp_path, ['"0",0,1.5,2.0,0.0'] + _DAY[1:]),
                     tmp_path / "bad.csv")
    with pytest.raises(ParseError) as ei:
        read_history(path)
    _assert_not_utf8(ei.value, path)


def test_missing_file_error(tmp_path):
    # every file that cannot be read gets one text, naming it
    for path in ("/nonexistent/case.json", str(tmp_path)):
        with pytest.raises(ParseError) as ei:
            read_case(path)
        assert ei.value.path == path
        assert str(ei.value).startswith(f"{path}: cannot read: ")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_case_bad_json_names_line_and_column(tmp_path, newline):
    p = tmp_path / "bad.json"
    p.write_bytes(newline.join(['{', ' "planning": {},', ' "bess": ]',
                                '}']).encode())
    with pytest.raises(ParseError) as ei:
        read_case(str(p))
    assert str(ei.value) == (f"{p}, line 3, column 10: invalid JSON: "
                             "Expecting value")


def test_read_history_bundled(data_dir):
    elec, heat, pv, ev = read_history(
        os.path.join(data_dir, "history_loads.csv"),
        os.path.join(data_dir, "history_ev.csv"))
    assert elec.shape == (365, 24) and heat.shape == (365, 24)
    assert pv.shape == (365, 24)
    assert ev.shape[0] == 365 and ev.shape[2] == 3
    assert np.all(elec >= 0) and np.all(pv >= 0)
    # history keeps fractional hours; the day index is dense
    assert np.all(ev[:, :, 0] < ev[:, :, 1])
    # the same values a cell-by-cell float() read gives, bit for bit
    for name, got in (("history_loads.csv", (elec, heat, pv)),
                      ("history_ev.csv", tuple(np.moveaxis(ev, 2, 0)))):
        with open(os.path.join(data_dir, name), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        want = np.full(got[0].shape + (len(got),), np.nan)
        for row in rows:
            want[int(row[0]), int(row[1])] = [float(c) for c in row[2:]]
        np.testing.assert_array_equal(np.stack(got, axis=-1), want)


def test_history_skips_blank_rows(data_dir, tmp_path):
    # blank records, whitespace-only or empty cells, are skipped wherever
    # they sit; a fault after them keeps its file line
    paths = []
    for name in ("history_loads.csv", "history_ev.csv"):
        with open(os.path.join(data_dir, name)) as fh:
            lines = fh.read().splitlines()
        lines[2:2] = ["   ", ",,,,", ""]
        paths.append(tmp_path / name)
        paths[-1].write_text("\n".join(lines + [" \t "]) + "\n")
    got = read_history(*map(str, paths))
    want = read_history(os.path.join(data_dir, "history_loads.csv"),
                        os.path.join(data_dir, "history_ev.csv"))
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    lines = paths[0].read_text().splitlines()
    lines[6] = lines[6].replace(",", ",x", 1)
    paths[0].write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as ei:
        read_history(str(paths[0]))
    assert (ei.value.line, ei.value.column) == (7, "hour")


def test_history_field_count(tmp_path):
    # a short and a long record hold the right number of cells between
    # them; each record is still counted on its own
    rows = _DAY[:2] + ["0,2,1,1", "1,0,1,1,1,1"] + _DAY[4:]
    with pytest.raises(ParseError) as ei:
        read_history(_history(tmp_path, rows))
    assert ei.value.line == 4
    assert str(ei.value).endswith("expected 5 fields, got 4")


def test_bundled_case_reads(data_dir):
    case = read_case(os.path.join(data_dir, "case.json"))
    assert case.hours_per_day == 24
    assert [fc.fc_id for fc in case.catalog.fuel_cells] == \
        ["SOFC", "PEM_gas", "PEM_H2"]
    assert case.catalog.ev_fleet.n_ev == 5


def test_bundled_case_round_trips_bytes(data_dir, tmp_path):
    src = os.path.join(data_dir, "case.json")
    out = tmp_path / "case.json"
    write_case(read_case(src), str(out))
    assert out.read_bytes() == open(src, "rb").read()


def _drop(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _set(value, *path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_drop("planning", "discount_rate"), "missing key $.planning.discount_rate"),
    (_drop("fuel_cells", 0, "id"), "missing key $.fuel_cells[0].id"),
    (_drop("fuel_cells", 1, "max_units"),
     "missing key $.fuel_cells[1].max_units"),
    (_drop("bess", "lifetime_cycles"), "missing key $.bess.lifetime_cycles"),
    (_drop("tess", "eta_dis"), "missing key $.tess.eta_dis"),
    (_drop("ev_fleet", "n_ev"), "missing key $.ev_fleet.n_ev"),
    (_drop("tariffs", "pv_cap"), "missing key $.tariffs.pv_cap"),
    (_drop("tariffs"), "missing key $.tariffs"),
    (_drop("fuel_cells"), "missing key $.fuel_cells"),
    (_set("high", "bess", "eta_ch"),
     "bad value in case file: could not convert string to float: 'high'"),
    (_set("five", "ev_fleet", "n_ev"),
     "bad value in case file: invalid literal for int() with base 10: "
     "'five'"),
    (_set(None, "planning", "planning_years"),
     "bad value in case file: int() argument must be a string, a bytes-like "
     "object or a real number, not 'NoneType'"),
    (_set(0.3, "tariffs", "elec_price"),
     "bad value in case file: 'float' object is not iterable"),
    (_set([1, 2], "tess"), "expected an object at $.tess"),
    (_set("PEM_H2", "fuel_cells", 2), "expected an object at $.fuel_cells[2]"),
    (_set(3, "planning"), "expected an object at $.planning"),
    (lambda doc: doc.clear(), "missing key $.planning"),
    (_set(1, "planning", "hours_per_day"),
     "$.planning: hours_per_day must be >= 2, got 1"),
    (_set(24.9, "planning", "hours_per_day"),
     "expected an integer at $.planning.hours_per_day, got 24.9"),
    (_set(2.7, "fuel_cells", 0, "max_units"),
     "expected an integer at $.fuel_cells[0].max_units, got 2.7"),
    (_set(5.5, "ev_fleet", "n_ev"),
     "expected an integer at $.ev_fleet.n_ev, got 5.5"),
    (_set(1, "planning", "typo_key"), "unknown key $.planning.typo_key"),
    (_set(1, "fuel_cells", 1, "units"), "unknown key $.fuel_cells[1].units"),
    (_set(0.5, "ev_fleet", "target_soc"),
     "unknown key $.ev_fleet.target_soc"),
    (_set({}, "grid"), "unknown key $.grid"),
    # a non-finite number (JSON's Infinity, -Infinity, NaN) is refused at
    # its key path, before any solve could meet it
    (_set(float("inf"), "bess", "invest_cost"),
     "expected a finite number at $.bess.invest_cost, got inf"),
    (_set(float("inf"), "bess", "lifetime_cycles"),
     "expected a finite number at $.bess.lifetime_cycles, got inf"),
    (_set(float("inf"), "bess", "max_capacity"),
     "expected a finite number at $.bess.max_capacity, got inf"),
    (_set(float("inf"), "tariffs", "soc_penalty"),
     "expected a finite number at $.tariffs.soc_penalty, got inf"),
    (_set(float("inf"), "tariffs", "grid_cap"),
     "expected a finite number at $.tariffs.grid_cap, got inf"),
    (_set(float("-inf"), "planning", "discount_rate"),
     "expected a finite number at $.planning.discount_rate, got -inf"),
    (_set(float("nan"), "fuel_cells", 1, "fuel_price"),
     "expected a finite number at $.fuel_cells[1].fuel_price, got nan"),
    (_set(float("inf"), "ev_fleet", "n_ev"),
     "expected an integer at $.ev_fleet.n_ev, got inf"),
    # an integer that float arithmetic cannot hold, or a planning period
    # whose discount overflows, is refused at its key path
    (_set(10 ** 400, "bess", "max_capacity"),
     "expected a finite number at $.bess.max_capacity, got an integer too "
     "large for a float"),
    (_set(10 ** 400, "fuel_cells", 0, "max_units"),
     "expected a finite number at $.fuel_cells[0].max_units, got an integer "
     "too large for a float"),
    (_set(20000, "planning", "planning_years"),
     "$.planning: planning_years 20000 at discount_rate 0.06 overflows a "
     "float"),
    (_set(0, "planning", "planning_years"),
     "$.planning: planning_years must be >= 1"),
    # a value its spec refuses is named by file and section
    (_set("MCFC", "fuel_cells", 0, "id"),
     "$.fuel_cells[0]: fc_id must be one of ('SOFC', 'PEM_gas', 'PEM_H2'), "
     "got 'MCFC'"),
    (_set(-1.0, "tess", "capacity"), "$.tess: capacity must be >= 0"),
    (_set(-1.0, "ev_fleet", "capacity"), "$.ev_fleet: capacity must be > 0"),
    (_set([1.0, float("inf")], "tariffs", "elec_price"),
     "$.tariffs: elec_price[1] is not finite"),
    (_set("SOFC", "fuel_cells", 1, "id"),
     "$.fuel_cells: duplicate fuel-cell ids"),
])
def test_case_faults(data_dir, tmp_path, edit, message):
    import json
    with open(os.path.join(data_dir, "case.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    p = tmp_path / "case.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as ei:
        read_case(str(p))
    assert str(ei.value) == f"{p}: {message}"


def test_case_not_an_object(tmp_path):
    p = tmp_path / "case.json"
    p.write_text("[]")
    with pytest.raises(ParseError) as ei:
        read_case(str(p))
    assert str(ei.value) == f"{p}: expected an object at $"


def _edited_case(data_dir, tmp_path, edit):
    import json
    with open(os.path.join(data_dir, "case.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    p = tmp_path / "case.json"
    p.write_text(json.dumps(doc))
    return p


@pytest.mark.parametrize("value, path, where", [
    (True, ("fuel_cells", 0, "max_units"), "$.fuel_cells[0].max_units"),
    (True, ("bess", "invest_cost"), "$.bess.invest_cost"),
    (False, ("planning", "hours_per_day"), "$.planning.hours_per_day"),
])
def test_case_refuses_a_bool_in_a_numeric_field(data_dir, tmp_path, capsys,
                                                value, path, where):
    # JSON true is not the number 1, in an int field as in a float one;
    # validate reports it as an input error
    from hubplan import cli
    p = _edited_case(data_dir, tmp_path, _set(value, *path))
    message = f"{p}: expected a number at {where}, got {value!r}"
    with pytest.raises(ParseError) as ei:
        read_case(str(p))
    assert str(ei.value) == message
    assert cli.main(["validate", "--case", str(p)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_case_reads_numeric_strings(data_dir, tmp_path):
    def edit(doc):
        doc["fuel_cells"][0]["max_units"] = "3"
        doc["bess"]["invest_cost"] = "0.25"
        doc["planning"]["hours_per_day"] = "24"
    case = read_case(str(_edited_case(data_dir, tmp_path, edit)))
    assert case.catalog.fuel_cells[0].max_units == 3
    assert case.catalog.bess.invest_cost == 0.25
    assert case.hours_per_day == 24


def test_case_departure_soc_defaults(data_dir, tmp_path):
    import json
    with open(os.path.join(data_dir, "case.json")) as fh:
        doc = json.load(fh)
    doc["ev_fleet"]["target_departure_soc"] = 0.8
    p = tmp_path / "case.json"
    p.write_text(json.dumps(doc))
    assert read_case(str(p)).catalog.ev_fleet.target_departure_soc == 0.8
    del doc["ev_fleet"]["target_departure_soc"]
    p.write_text(json.dumps(doc))
    assert read_case(str(p)).catalog.ev_fleet.target_departure_soc == 0.9


@pytest.mark.parametrize("last_row", ["5,0,9.0,17.0,0.5", "5,2,9.0,17.0,0.5"])
def test_ev_rows_past_last_day(tmp_path, last_row):
    # a 2-day loads table: an EV record for day 5 is refused, also when it
    # is the only record of a new ev_id
    ev = tmp_path / "ev.csv"
    ev.write_text("scenario,ev_id,arrive_hour,depart_hour,initial_soc\n"
                  "0,0,8.5,17.0,0.4\n1,0,9.0,18.0,0.5\n" + last_row + "\n")
    with pytest.raises(ParseError) as ei:
        read_history(_history(tmp_path, _DAY), str(ev))
    assert (ei.value.line, ei.value.column) == (4, "scenario")
    assert str(ei.value).endswith(
        "scenario 5 is past the last day of the loads table (2 days)")


def test_scenario_ev_rows_past_last_day(tiny, tiny_case_file, tmp_path):
    case, _ = tiny_case_file
    loads = tmp_path / "scen.csv"
    write_scenario_set(tiny.scen, str(loads))
    p = tmp_path / "ev.csv"
    p.write_text("scenario,ev_id,arrive_hour,depart_hour,initial_soc\n"
                 "0,0,0,3,0.4\n2,0,1,4,0.5\n1,0,1,4,0.5\n")
    with pytest.raises(ParseError) as ei:
        read_scenario_set(str(loads), case, str(p))
    assert ei.value.line == 3 and "scenario 2 is past the last day" in str(
        ei.value)
