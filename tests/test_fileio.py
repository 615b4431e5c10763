"""File round-trips and parse diagnostics for the case/scenario formats."""
import os

import numpy as np
import pytest

from hubplan.errors import ParseError
from hubplan.fileio import (CaseData, case_to_dict, read_case, read_history,
                            read_scenario_set, write_case, write_scenario_set)


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


def test_missing_file_error():
    with pytest.raises((ParseError, FileNotFoundError)):
        read_case("/nonexistent/case.json")


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


def test_bundled_case_reads(data_dir):
    case = read_case(os.path.join(data_dir, "case.json"))
    assert case.hours_per_day == 24
    assert [fc.fc_id for fc in case.catalog.fuel_cells] == \
        ["SOFC", "PEM_gas", "PEM_H2"]
    assert case.catalog.ev_fleet.n_ev == 5
